"""Residue rings O_K/(q), their unit groups, and Dirichlet characters.

A modulus carries a Hermite-normal-form basis of the ideal lattice (q), which
gives exact coset reduction, a complete residue system, and an integer id
rid = x + a*j for the representative (x, j).  The unit group is decomposed
into independent cyclic generators so characters are exponent vectors; values
are exact rational phases, turned into complex numbers only on demand.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property

from .errors import BoundsTooLarge, ZeroOrUnitModulus
from .rings import (
    AlgInt,
    RingDescriptor,
    _lattice_2basis,
    canonical_associate,
    divide_exact,
    gcd,
    mul_xy,
)

DEFAULT_MODULUS_GUARD = 1 << 20


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


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
        self.q = canonical_associate(q) if nq else q
        self.norm = nq
        if nq == 0:
            raise ZeroOrUnitModulus("zero modulus")
        qw = self.q * ring.omega()
        basis = _lattice_2basis([(self.q.x, self.q.y), (qw.x, qw.y)])
        (a, _), (b, c) = basis[0], basis[1]
        a, c = abs(a), abs(c)
        b %= a
        assert a * c == nq, "HNF determinant must equal the ideal norm"
        self.hnf_a, self.hnf_b, self.hnf_c = a, b, c

    # -- coset machinery -------------------------------------------------

    def rid_xy(self, x, y):
        """rid of x + y*omega mod (q); x and y are ints or int64 arrays.

        The coset representative is (x - k*b mod a, j) with y = k*c + j,
        0 <= j < c; % and // floor alike on ints and on int64 arrays.
        """
        a, b, c = self.hnf_a, self.hnf_b, self.hnf_c
        j = y % c
        return (x - (y - j) // c * b) % a + a * j

    def reduce_coords(self, x, y):
        """Canonical representative coordinates of x + y*omega mod (q)."""
        return self.rid_coords(self.rid_xy(x, y))

    def rid(self, xi: AlgInt) -> int:
        return self.rid_xy(xi.x, xi.y)

    def rid_coords(self, rid: int) -> tuple[int, int]:
        return (rid % self.hnf_a, rid // self.hnf_a)

    def element(self, rid: int) -> AlgInt:
        x, j = self.rid_coords(rid)
        return AlgInt(self.ring, x, j)

    def mul_rid(self, r1: int, r2: int) -> int:
        x1, y1 = self.rid_coords(r1)
        x2, y2 = self.rid_coords(r2)
        x, y = mul_xy(self.ring, x1, y1, x2, y2)
        return self.rid_xy(x, y)

    def pow_rid(self, r: int, n: int) -> int:
        out = self.one_rid
        base = r
        while n:
            if n & 1:
                out = self.mul_rid(out, base)
            base = self.mul_rid(base, base)
            n >>= 1
        return out

    @cached_property
    def one_rid(self) -> int:
        return self.rid_xy(1, 0)

    @cached_property
    def residues(self) -> list[AlgInt]:
        """Complete residue system in rid order."""
        return [self.element(r) for r in range(self.norm)]

    @cached_property
    def unit_rids(self) -> list[int]:
        """rids of residues coprime to q, ascending."""
        if self.norm == 1:
            return [0]
        out = []
        for r in range(self.norm):
            rep = self.element(r)
            if rep.is_zero():
                continue
            if gcd(rep, self.q).is_unit():
                out.append(r)
        return out

    @cached_property
    def phi(self) -> int:
        return len(self.unit_rids) if self.norm > 1 else 1

    @cached_property
    def unit_index(self) -> dict[int, int]:
        return {r: i for i, r in enumerate(self.unit_rids)}

    # -- unit group structure --------------------------------------------

    @cached_property
    def unit_group(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(generator rids, orders), an internal direct product decomposition."""
        gens, orders, dlog = _decompose_abelian(
            self.unit_rids if self.norm > 1 else [0], self.mul_rid, self.one_rid
        )
        self._dlog = dlog
        return tuple(gens), tuple(orders)

    @cached_property
    def dlog(self) -> dict[int, tuple[int, ...]]:
        """rid of a unit residue -> exponent vector over unit_group generators."""
        self.unit_group
        return self._dlog

    def coprime(self, xi: AlgInt) -> bool:
        r = self.rid(xi)
        if self.norm == 1:
            return True
        return r in self.unit_index

    # -- characters --------------------------------------------------------

    @cached_property
    def characters(self) -> list[DirichletCharacter]:
        gens, orders = self.unit_group
        out = []
        for exps in itertools.product(*(range(n) for n in orders)):
            out.append(DirichletCharacter(self, exps))
        return out

    def primitive_characters(self) -> list[DirichletCharacter]:
        return [chi for chi in self.characters if chi.is_primitive]

    def character_phase_matrix(self, chars=None):
        """Float phase table, rows = characters, columns = unit_rids order.

        Bulk counterpart of DirichletCharacter.phases_on_units: one matrix
        product instead of per-value exact rational sums.  Entries are
        multiples of 1/n_i up to float rounding (~1e-15), ample for the
        1e-9 orthogonality tolerances.
        """
        import numpy as np

        if chars is None:
            chars = self.characters
        _, orders = self.unit_group
        n_units = len(self.unit_rids)
        if not orders:
            return np.zeros((len(chars), n_units))
        dl = np.array([self.dlog[r] for r in self.unit_rids], dtype=np.float64)
        ex = np.array([chi.exponents for chi in chars], dtype=np.float64)
        w = 1.0 / np.array(orders, dtype=np.float64)
        return ((ex * w) @ dl.T) % 1.0

    @cached_property
    def factorization(self):
        from .sieve import factor, sieve_primes

        table = sieve_primes(self.ring, max(self.norm, 2))
        return factor(self.q, table)

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


def make_modulus(ring: RingDescriptor, q: AlgInt) -> Modulus:
    """Residue ring constructor; rejects zero and unit moduli."""
    return Modulus(ring, q)


def euler_phi(m: Modulus) -> int:
    return m.phi


def characters(m: Modulus) -> list:
    return m.characters


def primitive_characters(m: Modulus) -> list:
    return m.primitive_characters()


def _order_of(x, mul, one, group_order: int, primes: list[int]) -> int:
    e = group_order
    for p in primes:
        while e % p == 0:
            xp = _pow_generic(x, e // p, mul, one)
            if xp != one:
                break
            e //= p
    return e


def _pow_generic(x, n, mul, one):
    out = one
    base = x
    while n:
        if n & 1:
            out = mul(out, base)
        base = mul(base, base)
        n >>= 1
    return out


def _decompose_abelian(elements, mul, one):
    """Independent cyclic generators of a finite abelian group.

    Constructive basis theorem: take g1 of maximal order (= the exponent),
    decompose the quotient by <g1> recursively, and lift quotient generators
    g to g*g1^(-s) so their order is preserved.  Orders come out in a
    divisibility chain n1 >= n2 >= ..., and the discrete-log table expresses
    every element as a product of generator powers.

    Returns (gens, orders, dlog) with dlog: element -> exponent tuple.
    """
    n = len(elements)
    if n == 1:
        return [], [], {one: ()}
    primes = _prime_factors(n)
    orders = {x: _order_of(x, mul, one, n, primes) for x in elements}
    lam = max(orders.values())
    g1 = min(x for x in elements if orders[x] == lam)
    # subgroup <g1> and its discrete logs
    h_dlog = {}
    h = one
    for k in range(lam):
        h_dlog[h] = k
        h = mul(h, g1)
    if lam == n:
        return [g1], [lam], {x: (k,) for x, k in h_dlog.items()}
    # quotient by <g1>: tag each coset by its first element in iteration order
    tag_of = {}
    q_elements = []
    for x in elements:
        if x in tag_of:
            continue
        members = []
        y = x
        for _ in range(lam):
            members.append(y)
            y = mul(y, g1)
        t = min(members)
        for mbr in members:
            tag_of[mbr] = t
        q_elements.append(t)
    q_elements.sort()

    def q_mul(t1, t2):
        return tag_of[mul(t1, t2)]

    q_one = tag_of[one]
    q_gens, q_orders, q_dlog = _decompose_abelian(q_elements, q_mul, q_one)
    # lift: for quotient generator g of order m, g^m lands in <g1> at g1^t
    # with m | t, so g * g1^(-t/m) has true order m and the same image
    gens = [g1]
    orders_out = [lam]
    for g, m in zip(q_gens, q_orders):
        t = h_dlog[_pow_generic(g, m, mul, one)]
        assert t % m == 0, "quotient order must divide the landing exponent"
        s = (t // m) % lam
        lifted = mul(g, _pow_generic(g1, (lam - s) % lam, mul, one))
        gens.append(lifted)
        orders_out.append(m)
    dlog = {}
    for x in elements:
        q_vec = q_dlog[tag_of[x]]
        y = x
        for g, m, a in zip(gens[1:], orders_out[1:], q_vec):
            y = mul(y, _pow_generic(g, (m - a) % m if a else 0, mul, one))
        dlog[x] = (h_dlog[y],) + q_vec
    return gens, orders_out, dlog


class DirichletCharacter:
    """chi(xi) = prod_i exp(2*pi*i * e_i * dlog_i(xi) / n_i) on coprime residues."""

    def __init__(self, modulus: Modulus, exponents: tuple[int, ...]):
        self.modulus = modulus
        self.exponents = tuple(exponents)
        self._phase_by_rid = None

    @property
    def is_principal(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def phase(self, xi: AlgInt) -> Fraction | None:
        """Exact phase in [0, 1), or None when gcd(xi, q) is not a unit."""
        m = self.modulus
        r = m.rid(xi)
        if m.norm > 1 and r not in m.unit_index:
            return None
        return self.phase_of_rid(r)

    def phase_of_rid(self, rid: int) -> Fraction:
        m = self.modulus
        vec = m.dlog[rid] if m.norm > 1 else ()
        ph = Fraction(0)
        for e, a, n in zip(self.exponents, vec, m.unit_group[1]):
            ph += Fraction(e * a, n)
        return ph % 1

    def __call__(self, xi: AlgInt) -> complex:
        ph = self.phase(xi)
        if ph is None:
            return 0j
        return _unit_circle(ph)

    def value_of_rid(self, rid: int) -> complex:
        return _unit_circle(self.phase_of_rid(rid))

    def phases_on_units(self) -> list[Fraction]:
        """Exact phases at every unit residue, in unit_rids order."""
        m = self.modulus
        if self._phase_by_rid is None:
            self._phase_by_rid = [self.phase_of_rid(r) for r in m.unit_rids]
        return self._phase_by_rid

    @cached_property
    def conductor(self) -> Modulus:
        """Smallest-norm divisor modulus through which the character factors."""
        m = self.modulus
        for f_el in m.divisor_classes:
            if self._factors_through(f_el):
                if f_el.is_unit():
                    return trivial_modulus(m.ring)
                return Modulus(m.ring, f_el)
        raise AssertionError("character must factor through its own modulus")

    def _factors_through(self, f_el: AlgInt) -> bool:
        # chi factors mod f iff chi(a) = 1 on every unit residue a = 1 (mod f)
        m = self.modulus
        one = m.ring.one()
        for r in m.unit_rids:
            a = m.element(r)
            if divide_exact(a - one, f_el) is None:
                continue
            if self.phase_of_rid(r) != 0:
                return False
        return True

    @property
    def is_primitive(self) -> bool:
        m = self.modulus
        if m.norm == 1:
            return True  # the character mod (1) has conductor (1)
        for pi, _ in m.factorization.factors:
            cofactor = divide_exact(m.q, pi)
            if self._factors_through(cofactor):
                return False
        return True

    def __repr__(self):
        return f"DirichletCharacter(q={self.modulus.q}, e={self.exponents})"


def _unit_circle(ph: Fraction) -> complex:
    return complex(
        math.cos(2.0 * math.pi * float(ph)), math.sin(2.0 * math.pi * float(ph))
    )


def conductor(chi: DirichletCharacter) -> Modulus:
    return chi.conductor
