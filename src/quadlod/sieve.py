"""Prime elements of O_K up to a norm bound, factorization, and a disk cache.

Splitting of a rational prime p is read off the Kronecker symbol (D_K/p):
split for +1 (two conjugate non-associate primes of norm p), inert for -1
(p itself, norm p^2), ramified for p | D_K (one prime of norm p).  So a
canonical class is prime iff its norm is a rational prime, or p^2 with p
inert, and the prime table is that mask over `regions.class_arrays`.  Its
one memory guard is `regions.DEFAULT_GUARD`, which class_arrays checks
before it allocates anything.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    BoundsTooLarge,
    CorruptFile,
    FormatVersionMismatch,
    RingMismatch,
    TableTooSmall,
    ZeroElement,
)
from .regions import (
    DEFAULT_GUARD, _key, _x_interval, _y_max, class_arrays, class_index, class_products,
)
from .rings import AlgInt, RingDescriptor, _in_canonical_sector, divide_exact, norm_xy

SPLIT, INERT, RAMIFIED = "split", "inert", "ramified"
_SPLIT_CODE = {SPLIT: 0, INERT: 1, RAMIFIED: 2}
_SPLIT_NAME = {v: k for k, v in _SPLIT_CODE.items()}

CACHE_MAGIC = b"QLOD"
CACHE_VERSION = 1
_HEADER = struct.Struct("<4sIqQQ")
_RECORD = np.dtype([("x", "<i8"), ("y", "<i8"), ("code", "u1")])  # packed: 17 bytes


def _prime_flags(n: int) -> np.ndarray:
    """flags[k] is True iff k is a rational prime, for 0 <= k <= max(n, 1)."""
    flags = np.ones(max(n, 1) + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(len(flags) - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def prime_divisors(n: int) -> list[int]:
    """The rational primes dividing n >= 1, ascending, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    return out + [n] if n > 1 else out


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


def _prime_norm_codes(ring: RingDescriptor, bound: int) -> np.ndarray:
    """Split code of the prime classes of each norm 0..bound; -1: none is prime.

    Norm p holds two prime classes when p splits and one when p | D_K; norm
    p^2 holds one when p is inert.  (D_K / p) depends only on p mod |D_K|, so
    one prime per residue class gives it for all of them.
    """
    flags = _prime_flags(bound)
    codes = np.full(len(flags), -1, dtype=np.int8)
    ps = np.flatnonzero(flags)
    res = ps % abs(ring.disc)
    rep = np.zeros(abs(ring.disc), dtype=np.int64)
    rep[res] = ps  # any one prime of each residue class; 0 where none is
    kron = np.array([kronecker_disc(ring, p) if p else 0 for p in rep.tolist()])[res]
    codes[ps[kron == 1]] = _SPLIT_CODE[SPLIT]
    codes[ps[kron == 0]] = _SPLIT_CODE[RAMIFIED]
    inert = ps[kron == -1]
    codes[inert[inert * inert < len(flags)] ** 2] = _SPLIT_CODE[INERT]
    return codes


def solve_norm_equation(ring: RingDescriptor, m: int) -> list[AlgInt]:
    """All canonical associates with norm exactly m >= 1 (sorted by (x, y)).

    Canonical elements have y >= 0, and the norm is convex in x, so on each
    row y a point of norm exactly m is an end of the interval of norm <= m.
    """
    sols = [
        (x, y)
        for y in range(_y_max(ring, m) + 1)
        for x in set(_x_interval(ring, y, m))
        if norm_xy(ring, x, y) == m and _in_canonical_sector(ring, x, y)
    ]
    return [AlgInt(ring, x, y) for x, y in sorted(sols)]


@dataclass(eq=False)
class PrimeTable:
    """Canonical prime classes of norm <= max_norm, sorted by (norm, x, y).

    The table is four int64 arrays: coordinates, norms and split codes
    (0 split, 1 inert, 2 ramified).  `split_types` is a list view of the
    codes built on first use.
    """

    ring: RingDescriptor
    max_norm: int
    xs: np.ndarray
    ys: np.ndarray
    norms: np.ndarray
    codes: np.ndarray

    @cached_property
    def split_types(self) -> list[str]:
        return [_SPLIT_NAME[c] for c in self.codes.tolist()]

    def class_indices(self, bound: int) -> np.ndarray:
        """Class indices (see regions.class_arrays) of the primes of norm <= bound."""
        k = np.searchsorted(self.norms, bound, side="right")
        return class_index(self.ring, bound, self.xs[:k], self.ys[:k])

    def __len__(self):
        return len(self.xs)


def sieve_primes(ring: RingDescriptor, max_norm: int) -> PrimeTable:
    """Complete table of prime elements with norm <= max_norm.

    The splitting-law mask over the canonical classes, which come out in
    table order; above regions.DEFAULT_GUARD, class_arrays raises
    BoundsTooLarge.
    """
    xs, ys, norms = class_arrays(ring, max_norm)
    codes = _prime_norm_codes(ring, max_norm)[norms]
    keep = codes >= 0
    return PrimeTable(
        ring, max_norm, xs[keep], ys[keep], norms[keep], codes[keep].astype(np.int64)
    )


@lru_cache(maxsize=4096)
def _primes_above(ring: RingDescriptor, p: int) -> tuple[tuple[int, int, int, int], ...]:
    """(norm, x, y, split code) of each canonical prime above the rational prime p.

    Memoized per ring and p, as an immutable tuple: one norm equation per
    split or ramified p for the whole run, and no class arrays, so factoring
    a few moduli does not evict the run's cached tables.  An inert p is
    itself the prime, and (p, 0) is canonical; a ramified p has one
    canonical class of norm p, a split p two.
    """
    t = splitting_type(ring, p)
    if t == INERT:
        return ((p * p, p, 0, _SPLIT_CODE[INERT]),)
    return tuple((p, pi.x, pi.y, _SPLIT_CODE[t]) for pi in solve_norm_equation(ring, p))


@dataclass
class FactorMap:
    """unit * prod(prime^exp) == the factored element, factors sorted."""

    unit: AlgInt
    factors: list[tuple[AlgInt, int]] = field(default_factory=list)


def factor(xi: AlgInt) -> FactorMap:
    """Factor xi over the primes above the rational primes dividing N(xi).

    Each such prime is divided out as often as it goes; what is left has
    norm 1, the unit.  The factors are sorted by (norm, x, y).
    """
    if xi.is_zero():
        raise ZeroElement("cannot factor zero")
    n = xi.norm()
    if n > DEFAULT_GUARD:
        raise BoundsTooLarge(f"norm {n} exceeds guard={DEFAULT_GUARD}")
    rem = xi
    factors: list[tuple[AlgInt, int]] = []
    for p in prime_divisors(n):
        for _, x, y, _ in _primes_above(xi.ring, p):
            pi, e = AlgInt(xi.ring, x, y), 0
            while (q := divide_exact(rem, pi)) is not None:
                rem, e = q, e + 1
            if e:
                factors.append((pi, e))
    factors.sort(key=lambda t: (t[0].norm(), t[0].x, t[0].y))
    return FactorMap(unit=rem, factors=factors)


class FactorSieve:
    """Smallest prime factor and cofactor of every canonical class up to a bound.

    For a class index c (see `regions.class_arrays`), spf[c] is the class of
    the smallest prime dividing it, in (norm, x, y) order, and cof[c] the class
    of the quotient; both are -1 at the unit.  Following cof lists a class's
    primes in order.  Each chunk of (prime, class) pairs takes one
    np.minimum.at for the smallest prime that hits each class; a prime hits a
    class at most once, so exactly one pair attains that minimum, and it
    writes the cofactor.
    """

    def __init__(self, table: PrimeTable, max_norm: int):
        if max_norm > table.max_norm:
            raise TableTooSmall(
                f"need primes to norm {max_norm}, table has {table.max_norm}"
            )
        n = len(class_arrays(table.ring, max_norm)[0])
        pidx = table.class_indices(max_norm)
        first = np.full(n, len(pidx))  # position in pidx of the smallest prime; none
        self.cof = np.full(n, -1)
        # pairs come in increasing prime order: no later chunk lowers a minimum
        for i, j, k in class_products(table.ring, max_norm, pidx, np.arange(n)):
            np.minimum.at(first, k, i)
            hit = first[k] == i
            self.cof[k[hit]] = j[hit]
        self.spf = np.append(pidx, -1).astype(np.int64)[first]


def cache_save(table: PrimeTable, path) -> None:
    """Write the table in the versioned little-endian record format."""
    rec = np.empty(len(table), dtype=_RECORD)
    rec["x"], rec["y"], rec["code"] = table.xs, table.ys, table.codes
    # packed before the file is opened, so a header that does not fit leaves no file
    head = _HEADER.pack(CACHE_MAGIC, CACHE_VERSION, table.ring.d, table.max_norm, len(table))
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(rec.tobytes())


def _read_header(fh) -> tuple[bytes, int, int, int, int]:
    """(magic, version, d, max_norm, count) from the start of an open cache file."""
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise FormatVersionMismatch("truncated header")
    return _HEADER.unpack(head)


def cache_load(ring: RingDescriptor, path) -> PrimeTable:
    """Read a table back; the cached ring must match the requested one.

    The file must hold as many records as there are prime classes of norm
    <= max_norm (so, all of them), each a canonical prime class of norm <=
    max_norm with the split code of its norm, in strict (norm, x, y) order;
    anything else raises CorruptFile.
    """
    with open(path, "rb") as fh:
        magic, version, d, max_norm, count = _read_header(fh)
        if magic != CACHE_MAGIC or version != CACHE_VERSION:
            raise FormatVersionMismatch(
                f"bad magic/version {magic!r}/{version}; expected {CACHE_MAGIC!r}/{CACHE_VERSION}"
            )
        if d != ring.d:
            raise RingMismatch(f"cache holds d={d}, requested d={ring.d}")
        body = fh.read()
    if len(body) != count * _RECORD.itemsize:
        raise CorruptFile(f"{path}: {len(body)} record bytes for the header's {count} records")
    rec = np.frombuffer(body, dtype=_RECORD)
    if (unknown := rec["code"] > max(_SPLIT_NAME)).any():
        code = rec["code"][unknown][0]
        raise FormatVersionMismatch(f"unknown split code {code} in record section")
    if max_norm > DEFAULT_GUARD:
        raise CorruptFile(f"{path}: max_norm={max_norm} exceeds guard={DEFAULT_GUARD}")
    prime_codes = _prime_norm_codes(ring, max_norm)
    want = (prime_codes >= 0).sum() + (prime_codes == _SPLIT_CODE[SPLIT]).sum()
    if count != want:  # two classes of norm p per split p
        raise CorruptFile(f"{path}: {count} records for {want} prime classes to {max_norm}")
    xs, ys, codes = (rec[k].astype(np.int64) for k in ("x", "y", "code"))

    def reject(bad: np.ndarray, what: str):
        if bad.any():
            raise CorruptFile(f"{path}: record {int(bad.argmax()) + 1} {what}")

    # |x|, |y| <= r holds below max_norm, and keeps norm_xy and _key in int64
    r = 2 * math.isqrt(max_norm) + 2
    reject((xs < -r) | (xs > r) | (ys < -r) | (ys > r), f"has norm above {max_norm}")
    norms = norm_xy(ring, xs, ys)
    reject(norms > max_norm, f"has norm above {max_norm}")
    nonzero = (xs != 0) | (ys != 0)  # zero fails below, as "is not prime"
    reject(nonzero & ~_in_canonical_sector(ring, xs, ys), "is not a canonical associate")
    expected = prime_codes[norms]
    reject(expected < 0, "is not prime")
    reject(expected != codes, "has a split code that disagrees with its norm")
    later = np.diff(_key(max_norm, xs, ys, norms)) > 0
    reject(np.concatenate(([False], ~later)), "is out of (norm, x, y) order")
    return PrimeTable(ring, max_norm, xs, ys, norms, codes)


def cache_inspect(path) -> dict:
    """Header summary without loading records."""
    with open(path, "rb") as fh:
        magic, version, d, max_norm, count = _read_header(fh)
    if magic != CACHE_MAGIC:
        raise FormatVersionMismatch(f"bad magic {magic!r}")
    return {"version": version, "d": d, "max_norm": max_norm, "count": count}
