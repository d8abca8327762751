import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlod.errors import BoundsTooLarge
from quadlod.regions import (
    DEFAULT_GUARD,
    NormRegion,
    a0,
    canonical_classes,
    canonical_coords,
    class_arrays,
    count_region,
    density_ratio,
    element_arrays,
    enumerate_region,
)
from quadlod.rings import SUPPORTED_D, AlgInt, canonical_associate, make_ring
from _oracles import brute_region_count


def test_a0_of_one_is_units(gauss, eisen):
    assert count_region(a0(gauss, 1)) == 4
    els = list(enumerate_region(a0(gauss, 1)))
    assert sorted((z.x, z.y) for z in els) == sorted((u.x, u.y) for u in gauss.units)
    assert count_region(a0(eisen, 1)) == 6


@pytest.mark.parametrize("n", [0, -3, -0.5, float("nan")])
def test_region_rejects_n_at_most_zero(gauss, n):
    with pytest.raises(ValueError, match="N must be positive"):
        a0(gauss, n)
    with pytest.raises(ValueError, match="N must be positive"):
        NormRegion.from_params(gauss, 1.0, 0.0, n, 0.5)


def test_a0_of_five(gauss):
    assert count_region(a0(gauss, 5)) == 80
    assert brute_region_count(gauss, 1, 25) == 80
    els = list(enumerate_region(a0(gauss, 5)))
    assert len(els) == 80


def test_enumeration_sorted_and_exact(gauss):
    els = list(enumerate_region(a0(gauss, 9)))
    keys = [(z.norm(), z.x, z.y) for z in els]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))
    assert all(1 <= z.norm() <= 81 for z in els)


@pytest.mark.parametrize("d", SUPPORTED_D)
def test_count_equals_stream_length(d):
    ring = make_ring(d)
    rng = random.Random(d * 13)
    for _ in range(50):
        hi = rng.randint(2, 1_000_000)
        lo = rng.randint(1, hi)
        if hi - lo > 20_000:  # keep thin annuli at large heights
            lo = max(1, hi - rng.randint(0, 20_000))
        region = NormRegion(ring, lo, hi)
        n = 0
        for _xi in enumerate_region(region):
            n += 1
        assert n == count_region(region)


@pytest.mark.parametrize("d", SUPPORTED_D)
def test_count_matches_brute_force(d):
    ring = make_ring(d)
    rng = random.Random(d * 17)
    for _ in range(8):
        hi = rng.randint(1, 400)
        lo = rng.randint(1, hi)
        assert count_region(NormRegion(ring, lo, hi)) == brute_region_count(ring, lo, hi)


@pytest.mark.parametrize("d", SUPPORTED_D)
def test_canonical_coords_match_scalar(d):
    ring = make_ring(d)
    rng = random.Random(d * 19)
    xs = np.array([rng.randint(-60, 60) for _ in range(400)] + [0], dtype=np.int64)
    ys = np.array([rng.randint(-60, 60) for _ in range(400)] + [0], dtype=np.int64)
    cx, cy = canonical_coords(ring, xs, ys)
    for x, y, gx, gy in zip(xs.tolist(), ys.tolist(), cx.tolist(), cy.tolist()):
        if x == y == 0:
            assert (gx, gy) == (0, 0)  # zero maps to itself
            continue
        c = canonical_associate(AlgInt(ring, x, y))
        assert (gx, gy) == (c.x, c.y)


def test_empty_annulus(gauss):
    region = NormRegion(gauss, 10, 5)
    assert count_region(region) == 0
    assert list(enumerate_region(region)) == []


@pytest.mark.parametrize("d", [-1, -3, -7])
def test_unit_closure_and_symmetry(d):
    ring = make_ring(d)
    region = NormRegion(ring, 5, 60)
    els = {(z.x, z.y) for z in enumerate_region(region)}
    for x, y in els:
        z = AlgInt(ring, x, y)
        for u in ring.units:
            w = u * z
            assert (w.x, w.y) in els
        c = z.conj()
        assert (c.x, c.y) in els
        assert (-x, -y) in els


def test_monotone_in_n(gauss):
    prev = set()
    for n in (2, 3, 5, 8):
        cur = {(z.x, z.y) for z in enumerate_region(a0(gauss, n))}
        assert prev <= cur
        prev = cur


def test_boundaries_inclusive(gauss):
    region = NormRegion(gauss, 4, 9)
    norms = {z.norm() for z in enumerate_region(region)}
    assert 4 in norms and 9 in norms
    assert min(norms) == 4 and max(norms) == 9


def test_exact_rational_bounds(gauss):
    # floor/ceil applied to exactly squared values, no float boundary slop
    region = NormRegion.from_params(gauss, 1.0, 0.0, 5.0, 1.0)
    assert (region.lo_sq, region.hi_sq) == (1, 25)
    region = NormRegion.from_params(gauss, 1.5, 0.0, 2.0, 2.0)
    assert (region.lo_sq, region.hi_sq) == (3, 16)  # ceil(2.25), floor(16)
    region = NormRegion.from_params(gauss, 2.0, 0.0, 3.5, 1.0)
    assert (region.lo_sq, region.hi_sq) == (4, 12)  # [4, 12.25]


def test_density_examples(gauss):
    got = density_ratio(gauss, 5)
    assert abs(got - 80 / (2 * math.pi * 25 / 2)) < 1e-12
    assert abs(got - 1.0186) < 1e-3
    assert 0.97 <= density_ratio(gauss, 300) <= 1.03
    assert 0.90 <= density_ratio(make_ring(-163), 300) <= 1.10


def test_bounds_guard(gauss):
    with pytest.raises(BoundsTooLarge):
        count_region(a0(gauss, 10**9))
    with pytest.raises(BoundsTooLarge):
        list(enumerate_region(a0(gauss, 10**9)))


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from(SUPPORTED_D), max_norm=st.integers(-2, 3000))
def test_class_arrays_are_the_canonical_elements(d, max_norm):
    ring = make_ring(d)
    xs, ys, norms = element_arrays(d, 1, max_norm)
    cxs, cys = canonical_coords(ring, xs, ys)
    keep = (cxs == xs) & (cys == ys)
    got = class_arrays(ring, max_norm)
    for a, b in zip(got, (xs[keep], ys[keep], norms[keep])):
        assert a.dtype == np.int64 and a.tolist() == b.tolist() and not a.flags.writeable


def test_class_arrays_guard(gauss):
    with pytest.raises(BoundsTooLarge):
        class_arrays(gauss, DEFAULT_GUARD + 1)


def test_canonical_classes(gauss):
    classes = canonical_classes(gauss, 25)
    assert len(classes) == 20  # 80 elements / w_K = 4
    assert all(canonical_associate(c) == c for c in classes)
    keys = [(c.norm(), c.x, c.y) for c in classes]
    assert keys == sorted(keys)


@pytest.mark.parametrize("d", SUPPORTED_D)
def test_classes_times_units_cover_region(d):
    ring = make_ring(d)
    classes = canonical_classes(ring, 50)
    rebuilt = {
        ((u * c).x, (u * c).y) for c in classes for u in ring.units
    }
    direct = {(z.x, z.y) for z in enumerate_region(a0(ring, math.sqrt(50) + 1e-9))}
    direct = {(x, y) for x, y in direct if AlgInt(ring, x, y).norm() <= 50}
    assert rebuilt == direct
