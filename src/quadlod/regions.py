"""Annulus sets of algebraic integers selected by exact squared-norm bounds.

A region holds integer bounds lo_sq <= norm(xi) <= hi_sq, derived once from the
real parameters (Y', Y, N, b) by exact rational squaring, so every membership
test afterwards is an integer comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import BoundsTooLarge, TableTooSmall
from .rings import AlgInt, RingDescriptor, make_ring, mul_xy, norm_xy

# Memory guard: enumeration materializes ~pi*hi_sq coordinates.
DEFAULT_GUARD = 1 << 24


@dataclass(frozen=True)
class NormRegion:
    ring: RingDescriptor
    lo_sq: int
    hi_sq: int
    n: float = 1.0  # N, whose A0(N) count large_sieve_ratios reads

    @staticmethod
    def from_params(
        ring: RingDescriptor, y_prime: float, y_shift: float, n: float, b: float = 1.0
    ) -> NormRegion:
        """Region Y' <= |embedding| <= Y + N^b, squared exactly before rounding.

        N and the outer radius Y + N^b must be positive (ValueError); an N^b
        beyond the float range is BoundsTooLarge.
        """
        if not n > 0:
            raise ValueError(f"N must be positive, got {n}")
        lo = Fraction(y_prime) ** 2
        hi_radius = Fraction(y_shift) + _pow_exact(n, b)
        if hi_radius <= 0:
            raise ValueError(f"outer radius Y + N^b must be positive, got {float(hi_radius)!r}")
        hi = hi_radius * hi_radius
        return NormRegion(ring, math.ceil(lo), math.floor(hi), n)


def a0(ring: RingDescriptor, n: float) -> NormRegion:
    """The basic set 1 <= norm(xi) <= N^2."""
    return NormRegion.from_params(ring, 1.0, 0.0, n, 1.0)


# Cap on the bits of an exact power Fraction(N) ** b: |b| times floor(log2) of
# N's numerator plus that of its denominator.  Under DEFAULT_GUARD, Y + N^b <=
# 2^12 with a float |Y| < 2^1024, so an integer N with b >= 0 needs under 1025
# bits.  Past the cap the rationals are too large to build whatever N^b is:
# N = 1.0000001, b = 10^5 gives N^b ~ 1.01 from two 5-million-bit integers.
_POW_BITS = 1 << 16


def _pow_exact(n: float, b: float) -> Fraction:
    if float(b).is_integer():
        q = Fraction(n)
        if abs(b) * (q.numerator.bit_length() + q.denominator.bit_length() - 2) > _POW_BITS:
            raise BoundsTooLarge(f"N^b is too large to compute exactly at N={n}, b={b}")
        return q ** int(b)
    try:
        return Fraction(math.pow(n, b))
    except OverflowError:
        raise BoundsTooLarge(f"N^b overflows a float at N={n}, b={b}") from None


def _y_max(ring: RingDescriptor, hi_sq: int) -> int:
    # the largest y with y^2 * |D_K| <= 4*hi_sq; y^2 is an integer, so
    # flooring 4*hi_sq/|D_K| before the square root loses nothing
    return math.isqrt(4 * hi_sq // abs(ring.disc))


def _x_interval(ring: RingDescriptor, y: int, bound: int) -> tuple[int, int] | None:
    """Integer x with norm(x + y*omega) <= bound, as a closed interval."""
    if bound < 0:
        return None
    # norm = x^2 + t*x*y - n*y^2, so (2x + t*y)^2 <= 4*bound + disc*y^2
    ty = ring.t * y
    r = 4 * bound + ring.disc * y * y
    if r < 0:
        return None
    s = math.isqrt(r)
    # x in [ceil((-s-ty)/2), floor((s-ty)/2)]; floor division handles signs
    return (-((s + ty) // 2), (s - ty) // 2)


def _annulus_spans(ring: RingDescriptor, lo: int, hi: int) -> Iterator[tuple[int, int, int]]:
    """Spans (a, b, y), a <= b + 1: the x in [a, b] with lo <= norm(x + y*omega) <= hi.

    Each row y is the disc of norm <= hi less the disc of norm <= lo - 1.
    """
    if hi < lo:
        return
    _check_guard(hi)
    for y in range(-_y_max(ring, hi), _y_max(ring, hi) + 1):
        outer = _x_interval(ring, y, hi)
        inner = _x_interval(ring, y, lo - 1)
        if inner is None:
            yield (*outer, y)
        else:
            yield outer[0], inner[0] - 1, y
            yield inner[1] + 1, outer[1], y


def count_region(region: NormRegion) -> int:
    """Number of elements in the region, without materializing them."""
    spans = _annulus_spans(region.ring, max(region.lo_sq, 1), region.hi_sq)
    return sum(b - a + 1 for a, b, _ in spans)


def element_arrays(
    ring_d: int, lo_sq: int, hi_sq: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(xs, ys, norms) of all elements in the annulus, sorted by (norm, x, y).

    This is the single source of truth for enumeration order; the AlgInt
    stream and the vectorized scans both read from it.
    """
    return _element_arrays_cached(ring_d, max(lo_sq, 1), hi_sq)


@lru_cache(maxsize=8)
def _element_arrays_cached(ring_d, lo, hi):
    ring = make_ring(ring_d)
    return _sorted_points(ring, _annulus_spans(ring, lo, hi))


def _check_guard(hi: int) -> None:
    if hi > DEFAULT_GUARD:
        raise BoundsTooLarge(f"hi_sq={hi} exceeds guard={DEFAULT_GUARD}")


def _sorted_points(ring: RingDescriptor, spans) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (xs, ys, norms) of the points a <= x <= b of each span (a, b, y).

    Sorted by (norm, x, y).
    """
    spans = [(a, b, y) for a, b, y in spans if a <= b] or [(0, -1, 0)]  # never no arrays
    xs = np.concatenate([np.arange(a, b + 1, dtype=np.int64) for a, b, _ in spans])
    ys = np.concatenate([np.full(b - a + 1, y, dtype=np.int64) for a, b, y in spans])
    norms = norm_xy(ring, xs, ys)
    order = np.lexsort((ys, xs, norms))
    out = xs[order], ys[order], norms[order]
    for a in out:
        a.setflags(write=False)
    return out


def enumerate_region(region: NormRegion) -> Iterator[AlgInt]:
    """Yield the region's elements exactly once, sorted by (norm, x, y)."""
    xs, ys, _ = element_arrays(region.ring.d, region.lo_sq, region.hi_sq)
    ring = region.ring
    for x, y in zip(xs.tolist(), ys.tolist()):
        yield AlgInt(ring, x, y)


def canonical_classes(ring: RingDescriptor, max_norm: int) -> list[AlgInt]:
    """Canonical associate representatives of norm 1..max_norm, sorted."""
    xs, ys, _ = class_arrays(ring, max_norm)
    return [AlgInt(ring, x, y) for x, y in zip(xs.tolist(), ys.tolist())]


@lru_cache(maxsize=8)
def class_arrays(ring: RingDescriptor, max_norm: int) -> tuple[np.ndarray, ...]:
    """(xs, ys, norms) of the canonical classes of norm 1..max_norm.

    Sorted by (norm, x, y); position i is class index i of every class-indexed
    table (`arith.ArithFn.vals`, the factor sieve, the prime table).  The
    canonical associates are enumerated directly, row by row over the sector
    of `rings._in_canonical_sector`: y > 0 or (y = 0 and x > 0) when w_K = 2,
    else x > 0 and y >= 0.
    """
    _check_guard(max_norm)
    spans = []
    for y in range(_y_max(ring, max_norm) + 1 if max_norm > 0 else 0):
        a, b = _x_interval(ring, y, max_norm)
        spans.append((a if ring.w_K == 2 and y > 0 else max(a, 1), b, y))
    return _sorted_points(ring, spans)


def _key(max_norm: int, xs, ys, norms):
    # |x|, |y| <= r below max_norm, so with w = 2r + 1 keys increase with (norm, x, y)
    w = 4 * math.isqrt(max(max_norm, 0)) + 5
    return (norms * w + xs) * w + ys


def _associates(ring: RingDescriptor, xs: np.ndarray, ys: np.ndarray):
    """The w_K associates zeta0^k * (xs, ys), k = 0..w_K - 1."""
    for _ in range(ring.w_K):
        yield xs, ys
        xs, ys = mul_xy(ring, xs, ys, ring.zeta0.x, ring.zeta0.y)


@lru_cache(maxsize=8)
def _class_table(ring: RingDescriptor, max_norm: int) -> np.ndarray:
    """Read-only int32 table of the class index (see class_arrays) of each (x, y).

    The table covers the smallest box |x| <= rx, |y| <= ry that holds every
    element of norm 1..max_norm, with (x, y) at [x + rx, y + ry], so its
    shape is (2rx + 1, 2ry + 1).  Each such element holds its class's index
    and every other cell, zero among them, holds -1.
    """
    xs, ys, _ = class_arrays(ring, max_norm)
    rx = ry = 0
    for ax, ay in _associates(ring, xs, ys):
        rx = max(rx, int(np.abs(ax).max(initial=0)))
        ry = max(ry, int(np.abs(ay).max(initial=0)))
    table = np.full((2 * rx + 1, 2 * ry + 1), -1, dtype=np.int32)
    idx = np.arange(len(xs), dtype=np.int32)
    for ax, ay in _associates(ring, xs, ys):
        table[ax + rx, ay + ry] = idx
    table.setflags(write=False)
    return table


def class_index(ring: RingDescriptor, max_norm: int, xs, ys) -> np.ndarray:
    """Class index (see class_arrays) of each element; all nonzero, norm <= max_norm."""
    table = _class_table(ring, max_norm)
    rx, ry = table.shape[0] // 2, table.shape[1] // 2
    xs, ys = np.asarray(xs, np.int64), np.asarray(ys, np.int64)
    # the box check comes first, so that the flat index cannot overflow
    if xs.size and not (-rx <= xs.min() and xs.max() <= rx and -ry <= ys.min() and ys.max() <= ry):
        raise TableTooSmall(f"element norms outside 1..{max_norm}")
    idx = table.ravel()[(xs + rx) * table.shape[1] + ys + ry]
    if idx.size and idx.min() < 0:
        raise TableTooSmall(f"element norms outside 1..{max_norm}")
    return idx


# Pairs per chunk of class_products: bounds its working memory to a few MB.
_PAIR_CHUNK = 1 << 14


def class_products(ring: RingDescriptor, bound: int, left: np.ndarray, right: np.ndarray):
    """Chunks (i, j, k) of the pairs (left[i], right[j]) with norm product <= bound.

    left and right are increasing class indices below bound.  Pairs come
    i-major with j ascending; k is the class index of the product.  Norms
    increase with class index, so left[i] pairs with the first caps[i] entries
    of right, and a chunk's i is one np.repeat over its slice of caps.
    """
    xs, ys, norms = class_arrays(ring, bound)
    caps = np.searchsorted(norms[right], bound // norms[left], side="right")
    ends = np.cumsum(caps)
    firsts = ends - caps  # pair number of left[i]'s first pair
    total = int(ends[-1]) if ends.size else 0
    for lo in range(0, total, _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, total)
        # left indices i0..i1 - 1 have pairs in [lo, hi); their runs clipped to it
        i0, i1 = np.searchsorted(ends, [lo, hi - 1], side="right") + [0, 1]
        counts = np.minimum(ends[i0:i1], hi) - np.maximum(firsts[i0:i1], lo)
        i = np.repeat(np.arange(i0, i1), counts)
        j = np.arange(lo, hi) - firsts[i]
        a, b = left[i], right[j]
        yield i, j, class_index(ring, bound, *mul_xy(ring, xs[a], ys[a], xs[b], ys[b]))


def density_ratio(ring: RingDescriptor, n: float) -> float:
    """count(A0(N)) over the lattice-point model 2*pi*N^2/sqrt(|D_K|), N > 0."""
    cnt = count_region(a0(ring, n))
    return cnt / (2.0 * math.pi * n * n / math.sqrt(abs(ring.disc)))
