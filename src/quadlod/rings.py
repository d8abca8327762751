"""Exact arithmetic in the nine imaginary quadratic rings of class number one.

Elements are written x + y*omega with integer coordinates, where omega = sqrt(d)
for d = -1, -2 and omega = (1 + sqrt(d))/2 for the seven d = 1 (mod 4) values.
Either way omega^2 = t*omega + n for two integers (t, n) of the ring, and every
norm and product below is one formula in (t, n) (Cohen, GTM 138, 5.1-5.2).
Everything here is exact integer arithmetic.
"""

from __future__ import annotations

import math

from .errors import BothZero, RingMismatch, UnsupportedRing, ZeroElement

# Stark-Heegner list: the only d with class number one.
SUPPORTED_D = (-1, -2, -3, -7, -11, -19, -43, -67, -163)


class RingDescriptor:
    """One of the nine rings O_K, with its unit group and basis convention."""

    __slots__ = ("d", "t", "n", "disc", "w_K", "units", "zeta0")

    def __init__(self, d: int):
        if d not in SUPPORTED_D:
            raise UnsupportedRing(
                f"d={d} is not supported; choose one of {list(SUPPORTED_D)}"
            )
        self.d = d
        # omega^2 = t*omega + n: (1, (d-1)/4) for omega = (1+sqrt(d))/2, else (0, d)
        self.t, self.n = (1, (d - 1) // 4) if d % 4 == 1 else (0, d)
        self.disc = self.t * self.t + 4 * self.n
        if d == -1:
            self.w_K = 4
            zeta = (0, 1)  # i
        elif d == -3:
            self.w_K = 6
            zeta = (0, 1)  # omega = (1+sqrt(-3))/2, a primitive 6th root of unity
        else:
            self.w_K = 2
            zeta = (-1, 0)
        self.zeta0 = AlgInt(self, *zeta)
        units = [AlgInt(self, 1, 0)]
        for _ in range(self.w_K - 1):
            units.append(units[-1] * self.zeta0)
        self.units = tuple(units)

    def element(self, x: int, y: int = 0) -> AlgInt:
        return AlgInt(self, x, y)

    def one(self) -> AlgInt:
        return AlgInt(self, 1, 0)

    def omega(self) -> AlgInt:
        return AlgInt(self, 0, 1)

    def __eq__(self, other):
        return isinstance(other, RingDescriptor) and other.d == self.d

    def __hash__(self):
        return hash(self.d)

    def __repr__(self):
        return f"RingDescriptor(d={self.d})"


_RINGS: dict[int, RingDescriptor] = {}


def norm_xy(ring: RingDescriptor, x, y):
    """Norm of x + y*omega; x and y are ints or int64 arrays."""
    return x * x + ring.t * x * y - ring.n * y * y


def mul_xy(ring: RingDescriptor, a, b, c, e):
    """Coordinates of (a + b*omega)(c + e*omega); ints or int64 arrays."""
    y = a * e + b * c
    if ring.t:  # t is 0 for d = -1, -2: the term is all zeros
        y += ring.t * b * e
    return a * c + ring.n * b * e, y


def make_ring(d: int) -> RingDescriptor:
    """Return the (interned) descriptor for Q(sqrt(d)), d in the supported list."""
    ring = _RINGS.get(d)
    if ring is None:
        ring = RingDescriptor(d)
        _RINGS[d] = ring
    return ring


class AlgInt:
    """An element x + y*omega of O_K with exact integer coordinates."""

    __slots__ = ("ring", "x", "y")

    def __init__(self, ring: RingDescriptor, x: int, y: int):
        self.ring = ring
        self.x = x
        self.y = y

    def norm(self) -> int:
        return norm_xy(self.ring, self.x, self.y)

    def conj(self) -> AlgInt:
        # conj(omega) = t - omega
        return AlgInt(self.ring, self.x + self.ring.t * self.y, -self.y)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def _check_ring(self, other: AlgInt):
        if self.ring.d != other.ring.d:
            raise RingMismatch(f"d={self.ring.d} vs d={other.ring.d}")

    def __add__(self, other: AlgInt) -> AlgInt:
        self._check_ring(other)
        return AlgInt(self.ring, self.x + other.x, self.y + other.y)

    def __sub__(self, other: AlgInt) -> AlgInt:
        self._check_ring(other)
        return AlgInt(self.ring, self.x - other.x, self.y - other.y)

    def __neg__(self) -> AlgInt:
        return AlgInt(self.ring, -self.x, -self.y)

    def __mul__(self, other: AlgInt) -> AlgInt:
        self._check_ring(other)
        x, y = mul_xy(self.ring, self.x, self.y, other.x, other.y)
        return AlgInt(self.ring, x, y)

    def __pow__(self, n: int) -> AlgInt:
        if n < 0:
            raise ValueError("negative powers leave the ring")
        out = AlgInt(self.ring, 1, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, AlgInt)
            and other.ring.d == self.ring.d
            and other.x == self.x
            and other.y == self.y
        )

    def __hash__(self):
        return hash((self.ring.d, self.x, self.y))

    def __repr__(self):
        return f"AlgInt(d={self.ring.d}, {self.x}, {self.y})"

    def __str__(self):
        return f"{self.x}{self.y:+d}w"


def _in_canonical_sector(ring: RingDescriptor, x: int, y: int) -> bool:
    # Exact membership test for embedding argument in [0, 2*pi/w_K).
    # w_K=2: upper half plane plus the positive real axis.
    # w_K=4 and 6: open right quadrant/sextant closed on the real axis;
    # in both cases sign(Im) = sign(y) and the upper boundary ray maps to x = 0.
    if ring.w_K == 2:
        return y > 0 or (y == 0 and x > 0)
    return x > 0 and y >= 0


def canonical_associate(xi: AlgInt) -> AlgInt:
    """The unique associate of xi with embedding argument in [0, 2*pi/w_K)."""
    if xi.is_zero():
        raise ZeroElement("canonical associate of zero is undefined")
    ring = xi.ring
    cur = xi
    for _ in range(ring.w_K):
        if _in_canonical_sector(ring, cur.x, cur.y):
            return cur
        cur = cur * ring.zeta0
    raise AssertionError("no associate landed in the canonical sector")


def divide_exact(num: AlgInt, den: AlgInt) -> AlgInt | None:
    """num/den when den divides num exactly, else None."""
    if den.is_zero():
        raise ZeroElement("division by zero")
    num._check_ring(den)
    t = num * den.conj()
    n = den.norm()
    if t.x % n or t.y % n:
        return None
    return AlgInt(num.ring, t.x // n, t.y // n)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b == g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _lattice_2basis(vectors: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Hermite-style elimination of integer 2-vectors to at most two basis vectors.

    Returns [(gx, 0), (x0, gy)] when the span has rank 2, [(gx, 0)] for rank 1
    along the x-axis, or a single vector for other rank-1 spans.
    """
    piv = None  # running vector carrying the gcd of the y-components
    xs = []  # x-components of vectors already reduced to y == 0
    for v in vectors:
        if v == (0, 0):
            continue
        if v[1] == 0:
            xs.append(v[0])
            continue
        if piv is None:
            piv = v
            continue
        x1, y1 = piv
        x2, y2 = v
        g, s, t = _xgcd(y1, y2)
        xs.append((y1 // g) * x2 - (y2 // g) * x1)
        piv = (s * x1 + t * x2, g)
    gx = 0
    for x in xs:
        gx = math.gcd(gx, x)
    basis = []
    if gx:
        basis.append((gx, 0))
    if piv is not None:
        if piv[1] < 0:
            piv = (-piv[0], -piv[1])
        if gx:
            piv = (piv[0] % gx, piv[1])
        basis.append(piv)
    return basis


def _dot2(ring: RingDescriptor, u: tuple[int, int], v: tuple[int, int]) -> int:
    # Twice the bilinear form of the norm form: 2B(u,v) = Q(u+v) - Q(u) - Q(v).
    s = norm_xy(ring, u[0] + v[0], u[1] + v[1])
    return s - norm_xy(ring, *u) - norm_xy(ring, *v)


def lagrange_gauss(
    ring: RingDescriptor, u: tuple[int, int], v: tuple[int, int]
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Reduce a rank-2 lattice basis under the norm form.

    Classic Lagrange-Gauss reduction for a positive definite binary form:
    repeatedly shear the longer vector by the nearest-integer multiple of the
    shorter one.  Terminates with Q(first) minimal over the whole lattice.
    """
    if norm_xy(ring, *u) < norm_xy(ring, *v):
        u, v = v, u
    while True:
        qv = norm_xy(ring, *v)
        # nearest integer to B(u,v)/Q(v), computed exactly: round(p / 2qv)
        p = _dot2(ring, u, v)
        m = (p + qv) // (2 * qv)
        r = (u[0] - m * v[0], u[1] - m * v[1])
        if norm_xy(ring, *r) >= qv:
            return v, r
        u, v = v, r


def gcd(alpha: AlgInt, beta: AlgInt) -> AlgInt:
    """Canonical generator of the ideal alpha*O_K + beta*O_K.

    The ideal is a rank-2 sublattice spanned by {alpha, alpha*omega, beta,
    beta*omega} in coordinates.  Because the class number is one it is
    principal, so its nonzero vectors of minimal norm are exactly the
    associates of a generator; Lagrange-Gauss reduction finds one.  This works
    uniformly in all nine rings, including the four with no Euclidean
    algorithm.
    """
    alpha._check_ring(beta)
    ring = alpha.ring
    if alpha.is_zero() and beta.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    gens = []
    for g in (alpha, beta):
        if not g.is_zero():
            gw = g * ring.omega()
            gens.append((g.x, g.y))
            gens.append((gw.x, gw.y))
    basis = _lattice_2basis(gens)
    if len(basis) == 1:
        vec = basis[0]
    else:
        vec, _ = lagrange_gauss(ring, basis[0], basis[1])
    return canonical_associate(AlgInt(ring, *vec))
