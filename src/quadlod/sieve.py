"""Prime elements of O_K up to a norm bound, factorization, and a disk cache.

Splitting of a rational prime p is read off the Kronecker symbol (D_K/p):
split for +1 (two conjugate non-associate primes of norm p), inert for -1
(p itself, norm p^2), ramified for p | D_K (one prime of norm p).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundsTooLarge,
    FormatVersionMismatch,
    RingMismatch,
    TableTooSmall,
    ZeroElement,
    ZeroOrUnit,
)
from .regions import class_arrays, class_index, class_products
from .rings import AlgInt, RingDescriptor, canonical_associate, divide_exact

SPLIT, INERT, RAMIFIED = "split", "inert", "ramified"
_SPLIT_CODE = {SPLIT: 0, INERT: 1, RAMIFIED: 2}
_SPLIT_NAME = {v: k for k, v in _SPLIT_CODE.items()}

CACHE_MAGIC = b"QLOD"
CACHE_VERSION = 1
DEFAULT_SIEVE_GUARD = 1 << 26


def rational_primes(n: int) -> list[int]:
    """Primes <= n by a plain byte sieve."""
    if n < 2:
        return []
    flags = bytearray(b"\x01") * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            start = p * p
            flags[start :: p] = b"\x00" * ((n - start) // p + 1)
    return [i for i, v in enumerate(flags) if v]


def kronecker_disc(ring: RingDescriptor, p: int) -> int:
    """Kronecker symbol (D_K / p) for a rational prime p."""
    disc = ring.disc
    if p == 2:
        if disc % 2 == 0:
            return 0
        return 1 if disc % 8 in (1, 7) else -1
    if disc % p == 0:
        return 0
    ls = pow(disc % p, (p - 1) // 2, p)
    return 1 if ls == 1 else -1


def splitting_type(ring: RingDescriptor, p: int) -> str:
    k = kronecker_disc(ring, p)
    return SPLIT if k == 1 else (INERT if k == -1 else RAMIFIED)


def solve_norm_equation(ring: RingDescriptor, m: int) -> list[AlgInt]:
    """All canonical associates with norm exactly m (sorted by (x, y))."""
    out = []
    seen = set()
    ymax = math.isqrt(4 * m // abs(ring.disc)) + 1
    for y in range(-ymax, ymax + 1):
        # norm m  <=>  (2x + t*y)^2 == 4m + disc*y^2
        ty = ring.t * y
        r = 4 * m + ring.disc * y * y
        if r < 0:
            continue
        s = math.isqrt(r)
        if s * s != r:
            continue
        for sv in {s, -s}:
            if (sv - ty) % 2 == 0:
                cand = canonical_associate(AlgInt(ring, (sv - ty) // 2, y))
                key = (cand.x, cand.y)
                if key not in seen:
                    seen.add(key)
                    out.append(cand)
    out.sort(key=lambda z: (z.x, z.y))
    return out


@dataclass
class PrimeTable:
    """Canonical prime classes of norm <= max_norm, sorted by (norm, x, y)."""

    ring: RingDescriptor
    max_norm: int
    primes: list[AlgInt]
    split_types: list[str]

    def __eq__(self, other):
        return (
            isinstance(other, PrimeTable)
            and other.ring.d == self.ring.d
            and other.max_norm == self.max_norm
            and other.primes == self.primes
            and other.split_types == self.split_types
        )

    def __len__(self):
        return len(self.primes)


def sieve_primes(
    ring: RingDescriptor, max_norm: int, guard: int = DEFAULT_SIEVE_GUARD
) -> PrimeTable:
    """Complete table of prime elements with norm <= max_norm."""
    if max_norm > guard:
        raise BoundsTooLarge(f"max_norm={max_norm} exceeds guard={guard}")
    return primes_over(ring, rational_primes(max_norm), max_norm)


def primes_over(ring: RingDescriptor, ps: list[int], max_norm: int) -> PrimeTable:
    """Prime elements of norm <= max_norm above the rational primes ps, ascending.

    For xi of norm n, factor(xi, primes_over(ring, primes dividing n, n)) equals
    factor(xi, sieve_primes(ring, n)).
    """
    entries: list[tuple[int, int, int, AlgInt, str]] = []
    for p in ps:
        t = splitting_type(ring, p)
        if t == INERT:
            if p * p <= max_norm:
                pi = canonical_associate(AlgInt(ring, p, 0))
                entries.append((p * p, pi.x, pi.y, pi, INERT))
        else:
            sols = solve_norm_equation(ring, p)
            if t == RAMIFIED:
                sols = sols[:1]  # conjugate generates the same ideal
            for pi in sols:
                entries.append((p, pi.x, pi.y, pi, t))
    entries.sort(key=lambda e: e[:3])
    return PrimeTable(
        ring, max_norm, [e[3] for e in entries], [e[4] for e in entries]
    )


def is_prime(xi: AlgInt) -> bool:
    """True iff the principal ideal (xi) is a prime ideal."""
    n = xi.norm()
    if n <= 1:
        raise ZeroOrUnit("primality undefined for zero and units")
    if _is_rational_prime(n):
        return True
    r = math.isqrt(n)
    if r * r == n and _is_rational_prime(r) and kronecker_disc(xi.ring, r) == -1:
        # norm p^2 with p inert: only associates of p qualify
        return canonical_associate(xi) == canonical_associate(AlgInt(xi.ring, r, 0))
    return False


def _is_rational_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass
class FactorMap:
    """unit * prod(prime^exp) == the factored element, factors sorted."""

    unit: AlgInt
    factors: list[tuple[AlgInt, int]] = field(default_factory=list)

    def reconstruct(self) -> AlgInt:
        out = self.unit
        for pi, e in self.factors:
            out = out * pi**e
        return out

    def distinct_primes(self) -> int:
        return len(self.factors)

    def big_omega(self) -> int:
        return sum(e for _, e in self.factors)


def factor(xi: AlgInt, table: PrimeTable) -> FactorMap:
    """Factor xi over the canonical prime classes of the table."""
    if xi.is_zero():
        raise ZeroElement("cannot factor zero")
    if xi.ring.d != table.ring.d:
        raise RingMismatch("element and table belong to different rings")
    n = xi.norm()
    if n > table.max_norm:
        raise TableTooSmall(f"norm {n} exceeds table coverage {table.max_norm}")
    rem = xi
    rem_norm = n
    factors: list[tuple[AlgInt, int]] = []
    for pi in table.primes:
        pn = pi.norm()
        if pn * pn > rem_norm:
            break
        if rem_norm % pn:
            continue
        e = 0
        while True:
            q = divide_exact(rem, pi)
            if q is None:
                break
            rem = q
            rem_norm //= pn
            e += 1
        if e:
            factors.append((pi, e))
    if rem_norm > 1:
        pi = canonical_associate(rem)
        factors.append((pi, 1))
        rem = divide_exact(rem, pi)
    factors.sort(key=lambda t: (t[0].norm(), t[0].x, t[0].y))
    return FactorMap(unit=rem, factors=factors)


def von_mangoldt(xi: AlgInt, table: PrimeTable) -> float:
    """log N(p) on powers of a single prime class, 0 elsewhere."""
    fm = factor(xi, table)
    if len(fm.factors) != 1:
        return 0.0
    return math.log(fm.factors[0][0].norm())


class FactorSieve:
    """Smallest prime factor and cofactor of every canonical class up to a bound.

    For a class index c (see `regions.class_arrays`), spf[c] is the class of
    the smallest prime dividing it, in (norm, x, y) order, and cof[c] the class
    of the quotient; both are -1 at the unit.  Following cof lists a class's
    primes in order, so factoring costs O(number of prime factors) per class.
    """

    def __init__(self, table: PrimeTable, max_norm: int):
        if max_norm > table.max_norm:
            raise TableTooSmall(
                f"need primes to norm {max_norm}, table has {table.max_norm}"
            )
        self.ring = ring = table.ring
        self.max_norm = max_norm
        self.table = table
        n = len(class_arrays(ring, max_norm)[0])
        self.spf, self.cof = np.full((2, n), -1)
        primes = [pi for pi in table.primes if pi.norm() <= max_norm]
        pidx = class_index(ring, max_norm, [p.x for p in primes], [p.y for p in primes])
        # pairs come in increasing prime order: a class's first hit is its smallest prime
        for i, j, k in class_products(ring, max_norm, pidx, np.arange(n)):
            k, first = np.unique(k, return_index=True)
            new = self.spf[k] < 0
            self.spf[k[new]], self.cof[k[new]] = pidx[i[first[new]]], j[first[new]]

    def factor(self, xi: AlgInt) -> FactorMap:
        if xi.is_zero():
            raise ZeroElement("cannot factor zero")
        if xi.norm() > self.max_norm:
            raise TableTooSmall(f"norm {xi.norm()} exceeds sieve bound {self.max_norm}")
        xs, ys, _ = class_arrays(self.ring, self.max_norm)
        c = class_index(self.ring, self.max_norm, [xi.x], [xi.y])[0]
        exps: dict[int, int] = {}  # insertion order is the chain's, i.e. class order
        while self.spf[c] >= 0:
            p, c = int(self.spf[c]), self.cof[c]
            exps[p] = exps.get(p, 0) + 1
        factors = [(AlgInt(self.ring, int(xs[p]), int(ys[p])), e) for p, e in exps.items()]
        fm = FactorMap(unit=AlgInt(self.ring, 1, 0), factors=factors)
        fm.unit = divide_exact(xi, fm.reconstruct())
        return fm


def cache_save(table: PrimeTable, path) -> None:
    """Write the table in the versioned little-endian record format."""
    with open(path, "wb") as fh:
        fh.write(
            struct.pack(
                "<4sIqQQ",
                CACHE_MAGIC,
                CACHE_VERSION,
                table.ring.d,
                table.max_norm,
                len(table.primes),
            )
        )
        for pi, st in zip(table.primes, table.split_types):
            fh.write(struct.pack("<qqB", pi.x, pi.y, _SPLIT_CODE[st]))


def cache_load(ring: RingDescriptor, path) -> PrimeTable:
    """Read a table back; the cached ring must match the requested one."""
    with open(path, "rb") as fh:
        head = fh.read(struct.calcsize("<4sIqQQ"))
        if len(head) < struct.calcsize("<4sIqQQ"):
            raise FormatVersionMismatch("truncated header")
        magic, version, d, max_norm, count = struct.unpack("<4sIqQQ", head)
        if magic != CACHE_MAGIC or version != CACHE_VERSION:
            raise FormatVersionMismatch(
                f"bad magic/version {magic!r}/{version}; expected {CACHE_MAGIC!r}/{CACHE_VERSION}"
            )
        if d != ring.d:
            raise RingMismatch(f"cache holds d={d}, requested d={ring.d}")
        rec = struct.Struct("<qqB")
        primes = []
        split_types = []
        for _ in range(count):
            chunk = fh.read(rec.size)
            if len(chunk) < rec.size:
                raise FormatVersionMismatch("truncated record section")
            x, y, code = rec.unpack(chunk)
            if code not in _SPLIT_NAME:
                raise FormatVersionMismatch(f"unknown split code {code} in record section")
            primes.append(AlgInt(ring, x, y))
            split_types.append(_SPLIT_NAME[code])
    return PrimeTable(ring, max_norm, primes, split_types)


def cache_inspect(path) -> dict:
    """Header summary without loading records."""
    with open(path, "rb") as fh:
        head = fh.read(struct.calcsize("<4sIqQQ"))
    if len(head) < struct.calcsize("<4sIqQQ"):
        raise FormatVersionMismatch("truncated header")
    magic, version, d, max_norm, count = struct.unpack("<4sIqQQ", head)
    if magic != CACHE_MAGIC:
        raise FormatVersionMismatch(f"bad magic {magic!r}")
    return {"version": version, "d": d, "max_norm": max_norm, "count": count}
