"""The blocked breakpoint sweep against the per-breakpoint loop it replaced.

Equality is on repr, so it is bit for bit, signed zeros included.
"""

import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlod import lab
from quadlod.arith import ArithFn, tabulate
from quadlod.characters import Modulus
from quadlod.regions import a0, canonical_classes, element_arrays
from quadlod.rings import SUPPORTED_D, make_ring
from quadlod.sieve import sieve_primes
from _oracles import loop_sweep_running

INTEGER_VALUES = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
LOG_VALUES = st.one_of(
    st.just(0.0), st.integers(2, 10**4).map(math.log), st.floats(-2.0, 2.0)
).map(complex)
COMPLEX_VALUES = st.builds(
    complex, st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 0.5, -1.25])
)
# real integers take the exact path while sum |f| < 2^52; four values near
# +-2^50 reach that bound, so some large draws take the general path
REAL_INTEGER_VALUES = st.integers(-3, 3).map(complex)
LARGE_INTEGER_VALUES = st.one_of(
    st.integers(-3, 3), st.integers(2**50 - 3, 2**50 + 3), st.integers(-2**50 - 3, -2**50 + 3)
).map(complex)


def assert_same_sweep(m, xs, ys, norms, fv):
    """At every prefix cut, the sweep's first maximum matches the loop over that prefix.

    Each distinct active norm is a cut, and so is 0 (the empty prefix).
    Returns the sweep's profile.
    """
    sweep = lab._sweep_arrays(m, xs, ys, norms, fv)
    cid = lab._coprime_index(m)[lab._rids(m, xs, ys)]
    cuts = np.unique(norms[(cid >= 0) & (fv != 0)]) if m.phi > 1 else norms[:0]
    assert sweep[0].tolist() == cuts.tolist()  # one profile row per breakpoint
    assert all(a.size == cuts.size for a in sweep)
    # one loop pass: its result over a prefix is its running best at the cut
    running = list(loop_sweep_running(m, xs, ys, norms, fv))
    at = [cut for cut, _ in running]
    cuts = [0, *cuts.tolist()]
    for cut, got in zip(cuts, lab._best_at(m, sweep, cuts), strict=True):
        want = running[bisect_right(at, cut) - 1][1]
        assert repr(got) == repr(want), cut
    return sweep


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sweep_bit_identical_to_loop(data):
    ring = make_ring(data.draw(st.sampled_from(SUPPORTED_D), label="d"))
    hi = a0(ring, data.draw(st.floats(1.5, 13.0), label="N")).hi_sq
    classes = canonical_classes(ring, hi)
    values = data.draw(st.sampled_from(
        [INTEGER_VALUES, REAL_INTEGER_VALUES, LARGE_INTEGER_VALUES, LOG_VALUES, COMPLEX_VALUES]
    ))
    vals = data.draw(st.lists(values, min_size=len(classes), max_size=len(classes)))
    f = ArithFn(ring, hi, vals, "drawn")
    moduli = [q for q in canonical_classes(ring, 60) if q.norm() >= 2]
    m = Modulus(ring, data.draw(st.sampled_from(moduli), label="q"))
    xs, ys, norms = element_arrays(ring.d, 1, hi)
    assert_same_sweep(m, xs, ys, norms, lab._fvals(f, xs, ys))


@pytest.mark.parametrize("name", ["log_norm", "lambda", "moebius", "prime_indicator", "tau"])
def test_sweep_bit_identical_across_blocks(gauss, monkeypatch, name):
    monkeypatch.setattr(lab, "_SWEEP_BLOCK", 64)
    f = tabulate(name, gauss, 900, sieve_primes(gauss, 900))
    xs, ys, norms = element_arrays(-1, 1, 900)
    fv = lab._fvals(f, xs, ys)
    for q in canonical_classes(gauss, 40):
        if q.norm() >= 2:
            m = Modulus(gauss, q)
            assert m.phi < 64 < len(np.unique(norms[fv != 0])) * m.phi  # several blocks
            assert_same_sweep(m, xs, ys, norms, fv)


@pytest.mark.parametrize("d", [-1, -3])
def test_sweep_real_plane_matches_complex(monkeypatch, d):
    """Real values take the float64 plane; -0.0 imaginary parts too, a 1e-300 one does not.

    The switch is on whether any imaginary part is nonzero, so each variant of
    the same log_norm values must match the loop at every cut, and the +0.0
    and -0.0 variants must give the same profile bytes.
    """
    monkeypatch.setattr(lab, "_SWEEP_BLOCK", 64)
    ring = make_ring(d)
    f = tabulate("log_norm", ring, 400)
    xs, ys, norms = element_arrays(d, 1, 400)
    fv = lab._fvals(f, xs, ys)
    assert not fv.imag.any() and not np.signbit(fv.imag).any()
    neg = fv.copy()
    neg.imag = -0.0
    assert np.signbit(neg.imag).all()
    forced = fv.copy()
    forced.imag[0] = 1e-300  # element 0 is a unit: coprime to every q
    for q in canonical_classes(ring, 40):
        if q.norm() >= 2:
            m = Modulus(ring, q)
            plain = assert_same_sweep(m, xs, ys, norms, fv)
            assert [a.tobytes() for a in assert_same_sweep(m, xs, ys, norms, neg)] == \
                [a.tobytes() for a in plain]
            assert_same_sweep(m, xs, ys, norms, forced)


def test_sweep_exact_path_only_for_exact_integer_sums(monkeypatch):
    """Integer f with sum |f| < 2^52 skips the class running sums; anything else takes them.

    The exact path is chosen from f's values alone: a 0.5, a sum |f| of 2^52
    or an imaginary part of 1e-300 each send the sweep back to the general
    path.  Both paths must match the loop at every cut.
    """
    monkeypatch.setattr(lab, "_SWEEP_BLOCK", 64)
    ring = make_ring(-1)
    xs, ys, norms = element_arrays(-1, 1, 400)
    table = sieve_primes(ring, 400)
    fvs = [lab._fvals(tabulate(name, ring, 400, table), xs, ys) for name in ("tau", "moebius")]
    general = lab._class_running_sums
    calls = []

    def refuse(*args):
        raise AssertionError("the exact path takes no class running sums")

    def count(*args):
        calls.append(1)
        return general(*args)

    for q in canonical_classes(ring, 20):
        if q.norm() < 3:  # phi is 1: eps is 0 and nothing is summed
            continue
        m = Modulus(ring, q)
        kept = lab._coprime_index(m)[lab._rids(m, xs, ys)] >= 0
        for fv in fvs:
            # element 0 is a unit: coprime to every q
            rest = np.abs(fv.real[kept]).sum() - abs(fv[0].real)
            under, at_bound, half, tiny = (fv.copy() for _ in range(4))
            under[0] = 2**52 - 1 - rest
            at_bound[0] = 2**52 - rest
            half[0] = 0.5
            tiny.imag[0] = 1e-300
            monkeypatch.setattr(lab, "_class_running_sums", refuse)
            for exact in (fv, under):
                assert_same_sweep(m, xs, ys, norms, exact)
            monkeypatch.setattr(lab, "_class_running_sums", count)
            for inexact in (at_bound, half, tiny):
                calls.clear()
                assert_same_sweep(m, xs, ys, norms, inexact)
                assert calls == [1]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 300), min_size=1, max_size=12), st.integers(0, 2**32 - 1))
def test_level_sums_match_per_level_sum(sizes, seed):
    rng = np.random.default_rng(seed)
    va = rng.standard_normal(sum(sizes)) + 1j * rng.standard_normal(sum(sizes))
    starts = np.cumsum([0] + sizes[:-1])
    got = lab._level_sums(va, starts, np.array(sizes))
    want = np.array([va[s:s + n].sum() for s, n in zip(starts, sizes)])
    assert got.tobytes() == want.tobytes()
