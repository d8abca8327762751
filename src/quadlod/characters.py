"""Residue rings O_K/(q), their unit groups, and Dirichlet characters.

A modulus carries a Hermite-normal-form basis of the ideal lattice (q), which
gives exact coset reduction, a complete residue system, and an integer id
rid = x + a*j for the representative (x, j).  The unit group is decomposed
into independent cyclic generators of orders n_1 >= n_2 >= ..., each dividing
the group exponent L = n_1, and one int64 dlog array gives every unit's
exponent vector.  A character is an exponent vector e; its value at a unit u
is the integer phase k = sum_i e_i * dlog_i(u) * (L / n_i) mod L, that is
exp(2*pi*i * k/L), read from one table of L unit-circle values per modulus.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from .errors import BoundsTooLarge, ZeroOrUnitModulus
from .rings import (
    AlgInt,
    RingDescriptor,
    _lattice_2basis,
    canonical_associate,
    divide_exact,
    mul_xy,
)
from .sieve import factor_by_norm, prime_divisors

DEFAULT_MODULUS_GUARD = 1 << 20


def _divides(f: AlgInt, x, y) -> np.ndarray:
    """Whether f divides x + y*omega, elementwise on int64 arrays."""
    c, n = f.conj(), f.norm()
    tx, ty = mul_xy(f.ring, x, y, c.x, c.y)
    return (tx % n == 0) & (ty % n == 0)


class Modulus:
    """The residue ring O_K/(q) for a canonical q of norm >= 2."""

    def __init__(self, ring: RingDescriptor, q: AlgInt, _allow_trivial: bool = False):
        if q.ring.d != ring.d:
            q._check_ring(ring.one())
        nq = q.norm()
        if nq < 2 and not _allow_trivial:
            raise ZeroOrUnitModulus(f"modulus must have norm >= 2, got {nq}")
        if nq > DEFAULT_MODULUS_GUARD:
            raise BoundsTooLarge(f"modulus norm {nq} exceeds guard")
        self.ring = ring
        self.q = canonical_associate(q)
        self.norm = nq
        qw = self.q * ring.omega()
        basis = _lattice_2basis([(self.q.x, self.q.y), (qw.x, qw.y)])
        (a, _), (b, c) = basis[0], basis[1]
        a, c = abs(a), abs(c)
        b %= a
        assert a * c == nq, "HNF determinant must equal the ideal norm"
        self.hnf_a, self.hnf_b, self.hnf_c = a, b, c
        self._kernels: dict[tuple[int, int], np.ndarray] = {}

    # -- coset machinery -------------------------------------------------

    def rid_xy(self, x, y):
        """rid of x + y*omega mod (q); x and y are ints or int64 arrays.

        The coset representative is (x - k*b mod a, j) with y = k*c + j,
        0 <= j < c; // floors alike on ints and on int64 arrays.  When c = 1,
        j is 0 and k is y.  The remainder is v - v // a * a, in place: numpy
        divides int64 arrays by a scalar several times faster than it takes
        ``%``, and no more temporaries are alive at once than with ``%``.
        """
        a, b, c = self.hnf_a, self.hnf_b, self.hnf_c
        k = y if c == 1 else y // c
        v = x - k * b
        v -= v // a * a
        if c > 1:
            k *= -c
            k += y  # j, in place of k
            v += a * k
        return v

    def rid_coords(self, rid):
        return (rid % self.hnf_a, rid // self.hnf_a)

    def mul_rid(self, r1, r2):
        """rid of the product; ints or int64 arrays."""
        x1, y1 = self.rid_coords(r1)
        x2, y2 = self.rid_coords(r2)
        x, y = mul_xy(self.ring, x1, y1, x2, y2)
        return self.rid_xy(x, y)

    @cached_property
    def one_rid(self) -> int:
        return self.rid_xy(1, 0)

    @cached_property
    def unit_rids(self) -> list[int]:
        """rids of residues coprime to q, ascending: no prime pi | q divides them."""
        x, y = self.rid_coords(np.arange(self.norm))
        unit = np.ones(self.norm, dtype=bool)
        for pi, _ in self.factorization.factors:
            unit &= ~_divides(pi, x, y)
        return np.flatnonzero(unit).tolist()

    @cached_property
    def phi(self) -> int:
        return len(self.unit_rids)

    @cached_property
    def coprime_index(self) -> np.ndarray:
        """rid -> position in unit_rids, -1 off the unit group."""
        cop = np.full(self.norm, -1, dtype=np.int64)
        cop[self.unit_rids] = np.arange(self.phi)
        return cop

    # -- unit group structure --------------------------------------------

    @cached_property
    def unit_group(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(generator rids, orders), an internal direct product decomposition."""
        gens, orders, self._dlog = _decompose_abelian(
            np.array(self.unit_rids), self.mul_rid, self.one_rid, self.norm
        )
        return tuple(gens), tuple(orders)

    @cached_property
    def dlog(self) -> np.ndarray:
        """int64 (norm, r): row rid is a unit's exponent vector over the generators."""
        self.unit_group
        return self._dlog

    @cached_property
    def exponent(self) -> int:
        """L, the exponent of the unit group: every generator order divides it."""
        orders = self.unit_group[1]
        return orders[0] if orders else 1

    @cached_property
    def _phase_dlog(self) -> np.ndarray:
        """dlog scaled by L / n_i, so a character's phase is one dot product mod L."""
        orders = np.array(self.unit_group[1], dtype=np.int64)
        return self.dlog * (self.exponent // orders)

    @cached_property
    def circle(self) -> np.ndarray:
        """exp(2*pi*i * k/L) for k = 0 .. L-1, computed by math for fixed bits."""
        ts = [k / self.exponent for k in range(self.exponent)]
        return np.array(
            [complex(math.cos(2.0 * math.pi * t), math.sin(2.0 * math.pi * t)) for t in ts]
        )

    # -- characters --------------------------------------------------------

    @cached_property
    def characters(self) -> list[DirichletCharacter]:
        ranges = map(range, self.unit_group[1])
        return [DirichletCharacter(self, exps) for exps in itertools.product(*ranges)]

    def _factors_mod(self, f: AlgInt, exps: np.ndarray) -> np.ndarray:
        """Whether the characters with exponent vectors exps (..., r) factor mod f.

        chi factors through (O_K/f)^* iff its phases are 0 on the kernel
        K_f = {unit u : f | u - 1}; K_f is every unit when f is a unit.  The
        rows are taken over every rid r with f | r - 1: off the unit group
        the phases are 0 and do not change the test.
        """
        key = (f.x, f.y)
        if key not in self._kernels:
            x, y = self.rid_coords(np.arange(self.norm))
            self._kernels[key] = self._phase_dlog[_divides(f, x - 1, y)]
        return ~(exps @ self._kernels[key].T % self.exponent).any(axis=-1)

    def _primitive(self, exps: np.ndarray) -> np.ndarray:
        """Primitive iff chi factors mod no q/pi, pi a prime dividing q."""
        keep = np.ones(exps.shape[:-1], dtype=bool)
        for pi, _ in self.factorization.factors:
            keep &= ~self._factors_mod(divide_exact(self.q, pi), exps)
        return keep

    @cached_property
    def factorization(self):
        return factor_by_norm(self.q)

    @cached_property
    def divisor_classes(self) -> list[AlgInt]:
        """Canonical divisors of q ordered by (norm, x, y), from (1) to q."""
        divs = [self.ring.one()]
        for pi, e in self.factorization.factors:
            divs = [
                canonical_associate(d_ * pi**k) for d_ in divs for k in range(e + 1)
            ]
        divs.sort(key=lambda z: (z.norm(), z.x, z.y))
        return divs

    def __repr__(self):
        return f"Modulus(d={self.ring.d}, q={self.q}, norm={self.norm})"


def trivial_modulus(ring: RingDescriptor) -> Modulus:
    """The norm-1 modulus (1): one residue class, one (principal) character."""
    return Modulus(ring, ring.one(), _allow_trivial=True)


def _pow(x, n: int, mul, one):
    """x^n by squaring; x is one element or an array of them."""
    out = np.full_like(x, one)
    while n:
        if n & 1:
            out = mul(out, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return out


def _powers(g, n: int, mul, one) -> np.ndarray:
    """[g^0, g^1, ..., g^(n-1)] by doubling."""
    out = np.array([one], dtype=np.int64)
    gk = g  # g^len(out)
    while len(out) < n:
        out = np.concatenate([out, mul(out, gk)])
        gk = mul(gk, gk)
    return out[:n]


def _orders(elements: np.ndarray, mul, one, size: int) -> np.ndarray:
    """Element orders, prime by prime: for m the part of n prime to p, x^m has
    order p^b, b the number of p-th powers that take it to 1.  Powers are
    lookups in one x -> x^p array per prime p | n.
    """
    n = len(elements)
    pmaps = {p: np.arange(size) for p in prime_divisors(n)}
    for p, pmap in pmaps.items():
        pmap[elements] = _pow(elements, p, mul, one)
    out = np.ones(n, dtype=np.int64)
    for p in pmaps:
        y, m = elements, n
        while m % p == 0:
            m //= p
        for p2, pmap in pmaps.items():
            while m % p2 == 0:
                y, m = pmap[y], m // p2
        while (live := y != one).any():
            out[live] *= p
            y = pmaps[p][y]
    return out


def _decompose_abelian(elements: np.ndarray, mul, one, size: int):
    """Independent cyclic generators of a finite abelian group.

    Elements are ids in range(size), ascending; mul works on int64 arrays of
    them.  Constructive basis theorem: take g1, the smallest element of
    maximal order (= the exponent), decompose the quotient by <g1>
    recursively, and lift quotient generators g to g*g1^(-s) so their order is
    preserved.  Orders come out in a divisibility chain n1 >= n2 >= ..., and
    the discrete-log array expresses every element as a product of generator
    powers.

    Returns (gens, orders, dlog) with dlog int64 (size, r): row x is the
    exponent vector of x.
    """
    n = len(elements)
    if n == 1:
        return [], [], np.zeros((size, 0), dtype=np.int64)
    orders = _orders(elements, mul, one, size)
    lam = int(orders.max())
    g1 = int(elements[np.argmax(orders)])
    # subgroup <g1> and its discrete logs
    h_pow = _powers(g1, lam, mul, one)
    h_dlog = np.full(size, -1, dtype=np.int64)
    h_dlog[h_pow] = np.arange(lam)
    # quotient by <g1>: tag each coset by its smallest member, the minimum
    # along the cycles of x -> x*g1 taken by pointer doubling
    step = np.arange(size)
    step[elements] = mul(elements, g1)
    tag = np.arange(size)
    span = 1
    while span < lam:
        tag = np.minimum(tag, tag[step])
        step = step[step]
        span *= 2
    q_elements = elements[tag[elements] == elements]  # each coset's smallest member

    def q_mul(t1, t2):
        return tag[mul(t1, t2)]

    q_gens, q_orders, q_dlog = _decompose_abelian(q_elements, q_mul, tag[one], size)
    # lift: for quotient generator g of order m, g^m lands in <g1> at g1^t
    # with m | t, so g * g1^(-t/m) has true order m and the same image
    gens = [g1]
    orders_out = [lam]
    q_vec = q_dlog[tag[elements]]
    y = elements
    for i, (g, m) in enumerate(zip(q_gens, q_orders)):
        t = int(h_dlog[_pow(g, m, mul, one)])
        assert t % m == 0, "quotient order must divide the landing exponent"
        s = (t // m) % lam
        lifted = int(mul(g, h_pow[(lam - s) % lam]))
        gens.append(lifted)
        orders_out.append(m)
        y = mul(y, _powers(lifted, m, mul, one)[(m - q_vec[:, i]) % m])
    dlog = np.zeros((size, len(gens)), dtype=np.int64)
    dlog[elements, 0] = h_dlog[y]
    dlog[elements, 1:] = q_vec
    return gens, orders_out, dlog


class DirichletCharacter:
    """chi(xi) = exp(2*pi*i * k/L) on coprime residues, k the integer phase."""

    def __init__(self, modulus: Modulus, exponents: tuple[int, ...]):
        self.modulus = modulus
        self.exponents = tuple(exponents)

    @property
    def is_principal(self) -> bool:
        return all(e == 0 for e in self.exponents)

    @cached_property
    def phases(self) -> np.ndarray:
        """Integer phase mod L at every rid (0 off the unit group)."""
        m = self.modulus
        return m._phase_dlog @ np.array(self.exponents, dtype=np.int64) % m.exponent

    @cached_property
    def conductor(self) -> Modulus:
        """Smallest-norm divisor modulus through which the character factors."""
        m = self.modulus
        exps = np.array(self.exponents, dtype=np.int64)
        for f_el in m.divisor_classes:
            if m._factors_mod(f_el, exps):
                return trivial_modulus(m.ring) if f_el.is_unit() else Modulus(m.ring, f_el)
        raise AssertionError("character must factor through its own modulus")

    @property
    def is_primitive(self) -> bool:
        m = self.modulus
        return bool(m._primitive(np.array(self.exponents, dtype=np.int64)))

    def __repr__(self):
        return f"DirichletCharacter(q={self.modulus.q}, e={self.exponents})"
