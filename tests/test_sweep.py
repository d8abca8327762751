"""The blocked breakpoint sweep against the per-breakpoint loop it replaced.

Equality is on repr, so it is bit for bit, signed zeros included.  The loop
always runs over elements; the sweep reads what a scan gives it
(`sweep_arguments`): canonical classes and unit orbits for exact f.
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
from quadlod.regions import a0, canonical_classes, class_arrays, element_arrays
from quadlod.rings import SUPPORTED_D, AlgInt, make_ring
from quadlod.sieve import sieve_primes
from _oracles import loop_sweep_running, loop_unit_orbits, sweep_arguments

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


def profile_bytes(sweep):
    return [None if a is None else a.tobytes() for a in sweep]


def element_values(f, hi):
    """(xs, ys, norms, fv): the elements of norm 1..hi and f at them, the loop's input."""
    xs, ys, norms = element_arrays(f.ring.d, 1, hi)
    return xs, ys, norms, lab._fvals(f, xs, ys)


def assert_same_sweep(m, xs, ys, norms, fv, swept=None):
    """At every prefix cut, the sweep's first maximum matches the loop over that prefix.

    The loop runs over the elements (xs, ys, norms, fv); the sweep reads
    swept, the canonical classes and f's values there for an exact f, and
    by default the elements themselves.  The profile has one row per
    distinct norm of f's nonzero elements, which holds every coprime
    breakpoint; a row with no coprime element repeats the row before it bit
    for bit (the empty prefix's zeros for row 0).  Each row's norm is a cut,
    and so is 0 (the empty prefix).  Returns the sweep's profile.
    """
    sweep = lab._sweep_arrays(m, *(swept or (xs, ys, norms, fv)))
    cid = lab._coprime_index(m)[lab._rids(m, xs, ys)]
    rows = np.unique(norms[fv != 0])
    breakpoints = np.unique(norms[(cid >= 0) & (fv != 0)]) if m.phi > 1 else norms[:0]
    assert sweep.norms.tolist() == rows.tolist()  # one profile row per norm of f's support
    assert np.isin(breakpoints, rows).all()
    # norms to t_im hold one entry per row; t_im is None for real f
    assert all(a.size == rows.size for a in sweep[:5] if a is not None)
    for i in np.flatnonzero(~np.isin(rows, breakpoints)).tolist():
        for a in (sweep.row_sq, sweep.t_re, sweep.t_im):
            if a is not None:
                assert a[i].tobytes() == (a[i - 1] if i else np.float64(0.0)).tobytes()
    # one loop pass: its result over a prefix is its running best at the cut
    running = list(loop_sweep_running(m, xs, ys, norms, fv))
    at = [cut for cut, _ in running]
    cuts = [0, *rows.tolist()]
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
    assert_same_sweep(m, *element_values(f, hi), swept=sweep_arguments(f, hi))


@pytest.mark.parametrize("name", ["log_norm", "lambda", "moebius", "prime_indicator", "tau"])
def test_sweep_bit_identical_across_blocks(gauss, monkeypatch, name):
    monkeypatch.setattr(lab, "_SWEEP_BLOCK", 64)
    f = tabulate(name, gauss, 900, sieve_primes(gauss, 900))
    elements, swept = element_values(f, 900), sweep_arguments(f, 900)
    for q in canonical_classes(gauss, 40):
        if q.norm() >= 2:
            m = Modulus(gauss, q)
            sweep = assert_same_sweep(m, *elements, swept=swept)
            # the blocks' rows: unit orbits on the exact path, classes otherwise
            k = m.unit_orbits[1].size if sweep.w is not None else m.phi
            assert k < 64 < sweep.norms.size * k  # several blocks


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
            assert profile_bytes(assert_same_sweep(m, xs, ys, norms, neg)) == \
                profile_bytes(plain)
            assert_same_sweep(m, xs, ys, norms, forced)


def test_sweep_exact_path_only_for_exact_integer_sums(monkeypatch):
    """Integer f with sum |f| < 2^52 over the elements skips the class running sums.

    The exact path is chosen from f's values alone, over all of its nonzero
    classes, coprime to q or not: each class stands for its w_K associates,
    so w_K times the sum |f| over the classes decides.  On d = -1 and
    d = -3, a class sum just below 2^52 / w_K takes the exact path on the
    classes; at or just above it, a 0.5 or an imaginary part of 1e-300 each
    send the sweep back to the general path on the elements.  Both paths must
    match the loop at every cut.
    """
    monkeypatch.setattr(lab, "_SWEEP_BLOCK", 64)
    general = lab._class_running_sums
    calls = []

    def refuse(*args):
        raise AssertionError("the exact path takes no class running sums")

    def count(*args):
        calls.append(1)
        return general(*args)

    for d in (-1, -3):
        ring = make_ring(d)
        table = sieve_primes(ring, 400)
        moduli = [Modulus(ring, q) for q in canonical_classes(ring, 20) if q.norm() >= 2]
        for name in ("tau", "moebius"):
            f = tabulate(name, ring, 400, table)
            # class 0 is the unit class 1, coprime to every q
            rest = np.abs(f.vals.real).sum() - abs(f.vals[0].real)
            # w_K * sum |f| over the classes: below 2^52 - 4 on both rings; ceil
            # 2^52 on d = -1 and 2^52 + 2 on d = -3; above 2^52 + 4 and 2^52 + 2
            variants = {v: f.vals.copy() for v in ("below", "ceil", "above", "half", "tiny")}
            variants["below"][0] = (2**52 - 1) // ring.w_K - rest
            variants["ceil"][0] = -(-(2**52) // ring.w_K) - rest
            variants["above"][0] = 2**52 // ring.w_K + 1 - rest
            variants["half"][0] = 0.5
            variants["tiny"].imag[0] = 1e-300
            fns = {v: ArithFn(ring, 400, vals, v) for v, vals in variants.items()}
            for m in moduli:
                if m.phi == 1:  # eps is 0 and nothing is summed
                    continue
                monkeypatch.setattr(lab, "_class_running_sums", refuse)
                for exact in (f, fns["below"]):
                    assert_same_sweep(
                        m, *element_values(exact, 400), swept=sweep_arguments(exact, 400)
                    )
                monkeypatch.setattr(lab, "_class_running_sums", count)
                for key in ("ceil", "above", "half", "tiny"):
                    calls.clear()
                    elements = element_values(fns[key], 400)
                    assert sweep_arguments(fns[key], 400)[0].size == elements[0].size
                    assert_same_sweep(m, *elements)
                    assert calls == [1]


@pytest.mark.parametrize("d", SUPPORTED_D)
def test_orbit_sweep_matches_element_loop_with_ties(monkeypatch, d):
    """On every ring, `_best_at` on unit orbits equals the loop over elements at every cut.

    f = one ties many classes at every row, and a modulus of phi 1 ties its
    one class at eps 0; moebius and tau break ties.  Moduli run over every
    norm from 2 to 30 the ring has, phi 1 among them where it occurs.
    """
    monkeypatch.setattr(lab, "_SWEEP_BLOCK", 64)
    ring = make_ring(d)
    table = sieve_primes(ring, 300)
    moduli = [Modulus(ring, q) for q in canonical_classes(ring, 30) if q.norm() >= 2]
    for name in ("one", "moebius", "tau"):
        f = tabulate(name, ring, 300, table)
        elements, swept = element_values(f, 300), sweep_arguments(f, 300)
        for m in moduli:
            assert assert_same_sweep(m, *elements, swept=swept).w is not None


def test_exact_sweep_refuses_elements(gauss):
    """An exact f given as elements fails loudly: the sweep would read each as its w_K associates.

    A general f given as elements, and an exact f given as canonical
    classes, are swept.
    """
    table = sieve_primes(gauss, 400)
    m = Modulus(gauss, AlgInt(gauss, 3, 0))
    for name in ("one", "moebius", "tau", "prime_indicator"):
        f = tabulate(name, gauss, 400, table)
        elements = element_values(f, 400)
        with pytest.raises(ValueError, match="canonical classes"):
            lab._sweep_arrays(m, *elements)
        assert lab._sweep_arrays(m, *sweep_arguments(f, 400)).w is not None
    f = tabulate("lambda", gauss, 400, table)
    assert lab._sweep_arrays(m, *element_values(f, 400)).sums is not None


def tied_fv(m, xs, ys, norms, scale):
    """f whose maximum is a tie of opposite signs at norm 1, met again at a later norm.

    At norm 1 the unit of the lowest coprime class carries -scale and the unit
    of the highest +scale, so the two classes tie for the row maximum with
    eps = -scale and +scale.  Four later elements, in increasing norm, undo
    both values and set them again: the last breakpoint's row maximum equals
    the first one's, with the same tie.
    """
    cid = lab._coprime_index(m)[lab._rids(m, xs, ys)]
    units = np.flatnonzero(norms == 1)
    lo, hi = cid[units].min(), cid[units].max()
    fv = np.zeros(xs.size, dtype=np.complex128)
    fv[units[cid[units] == lo]] = -scale
    fv[units[cid[units] == hi]] = scale
    later = np.flatnonzero(norms > 1)
    for c, v in ((lo, scale), (hi, -scale), (lo, -scale), (hi, scale)):
        e = later[cid[later] == c][0]
        fv[e] = v
        later = later[norms[later] > norms[e]]
    return fv, lo


def tied_fn(m, hi):
    """Exact f on classes whose maximum is a tie at norm 1, met again at a later norm.

    q has two unit orbits, each of w_K classes (s_R = 1), so both orbits'
    eps are +-(A_0 - A_1) / 2 for A_0 the class sum of orbit 0, which holds
    class 0, and A_1 the other's: every class ties at every row.  f(1) puts
    A_0 - A_1 at -2, so class 0's eps is -1 at norm 1; four later classes,
    in increasing norm, move it to 0, 1, 0 and -2 again.
    """
    orbit, keys, stab = m.unit_orbits
    assert keys.size == 2 and stab.tolist() == [1, 1]
    xs, ys, norms = class_arrays(m.ring, hi)
    cid = lab._coprime_index(m)[lab._rids(m, xs, ys)]
    side = np.where(cid >= 0, 1 - 2 * orbit[cid], 0)  # +1 on orbit 0, -1 on orbit 1
    vals = np.zeros(xs.size)
    at, used = 0, set()
    for step in (-2, 2, 1, -1, -2):  # the moves of A_0 - A_1, at increasing norms
        while side[at] == 0 or norms[at] in used:
            at += 1
        vals[at] = step * side[at]
        used.add(norms[at])
    return ArithFn(m.ring, hi, vals, "tied")


@pytest.mark.parametrize("block", [64, 1])  # 1: one row per block
@pytest.mark.parametrize("scale", [1.0, 1 / 3])  # 1/3 takes the general path
def test_readback_first_class_and_first_row(gauss, monkeypatch, block, scale):
    """`_best_at` reads the first class, with its sign, at the first row of a repeated maximum.

    On the exact path that class is the key of the first orbit that attains it.
    """
    monkeypatch.setattr(lab, "_SWEEP_BLOCK", block)
    if scale == 1:
        m = Modulus(gauss, AlgInt(gauss, 3, 0))  # phi = 8: two orbits of the four units
        f = tied_fn(m, 100)
        sweep = assert_same_sweep(m, *element_values(f, 100), swept=sweep_arguments(f, 100))
        lo = 0
    else:
        xs, ys, norms = element_arrays(-1, 1, 100)
        m = Modulus(gauss, AlgInt(gauss, 1, 2))  # phi = 4: the four units are coprime, apart
        fv, lo = tied_fv(m, xs, ys, norms, scale)
        sweep = assert_same_sweep(m, xs, ys, norms, fv)
    assert (sweep.w is None, sweep.sums is None) == (scale != 1, scale == 1)
    assert sweep.norms.size == 5
    assert np.flatnonzero(sweep.row_sq == sweep.row_sq.max()).tolist() == [0, 4]
    (got,) = lab._best_at(m, sweep, [math.inf])
    assert repr(got.max_eps) == repr(complex(-scale, 0.0))
    assert (got.argmax_norm, got.gamma_x, got.gamma_y) == (1, *m.rid_coords(m.unit_rids[lo]))


@pytest.mark.parametrize("block", [64, 1])
@pytest.mark.parametrize("scale", [1.0, 1 / 3])
def test_readback_without_breakpoints(gauss, monkeypatch, block, scale):
    """phi = 1, and an f that is nonzero only off the coprime classes: every cut is empty.

    The rows are still f's norms, but every one repeats the empty prefix.
    """
    monkeypatch.setattr(lab, "_SWEEP_BLOCK", block)
    xs, ys, norms = class_arrays(gauss, 100)
    one = Modulus(gauss, AlgInt(gauss, 1, 1))
    assert one.phi == 1
    fv = np.full(xs.size, scale)
    m = Modulus(gauss, AlgInt(gauss, 1, 2))
    off = np.where(lab._coprime_index(m)[lab._rids(m, xs, ys)] < 0, fv, 0)
    assert off.any()
    for mod, vals in ((one, fv), (m, off)):
        f = ArithFn(gauss, 100, vals, "scaled")
        sweep = assert_same_sweep(mod, *element_values(f, 100), swept=sweep_arguments(f, 100))
        assert sweep.norms.size > 0 and not sweep.row_sq.any()
        assert all(r.argmax_norm == 0 for r in lab._best_at(mod, sweep, [0, 50, math.inf]))


def sparse_coprime_fv(m, xs, ys, norms, values):
    """values on every element (or class) not coprime to q, and on one in twenty
    coprime ones past norm 10.

    Most of f's elements are then not coprime to q, many rows hold no
    coprime element, and the first rows come before the first coprime one.
    """
    cid = lab._coprime_index(m)[lab._rids(m, xs, ys)]
    keep = cid < 0
    keep[np.flatnonzero((cid >= 0) & (norms > 10))[::20]] = True
    return np.where(keep, values, 0)


@pytest.mark.parametrize("block", [16, 1])
@pytest.mark.parametrize("q", [(3, 0), (3, 3)])  # phi 8: 3 is prime; 3 + 3i = 3 (1 + i)
def test_rows_without_coprime_change(gauss, monkeypatch, block, q):
    """f mostly on multiples of a prime dividing q: most rows add nothing coprime.

    Such a row repeats the row before it, and every cut, at a row norm with
    only non-coprime elements or before the first coprime element, matches
    the loop: on the exact path, the general path, a complex f with -0.0
    imaginary parts, and a real f whose only nonzero imaginary parts sit off
    the coprime classes, which takes the complex path and gives the real
    f's results.
    """
    monkeypatch.setattr(lab, "_SWEEP_BLOCK", block)
    xs, ys, norms = element_arrays(-1, 1, 300)
    m = Modulus(gauss, AlgInt(gauss, *q))
    rng = np.random.default_rng(7)
    n = xs.size
    integers = rng.choice([-3, -2, -1, 1, 2, 3], n).astype(np.complex128)
    floats = rng.standard_normal(n).astype(np.complex128)
    signed_zero = rng.standard_normal(n) + 1j * rng.choice([0.0, -0.0, 0.5], n)
    coprime = lab._coprime_index(m)[lab._rids(m, xs, ys)] >= 0
    fvs = {}
    for name, values in (("exact", integers), ("general", floats), ("complex", signed_zero)):
        if name == "exact":  # on classes: each element takes its class's value
            cx, cy, cn = class_arrays(gauss, 300)
            f = ArithFn(gauss, 300, sparse_coprime_fv(m, cx, cy, cn, values[: cx.size]), "sparse")
            fv = element_values(f, 300)[3]
            sweep = assert_same_sweep(m, xs, ys, norms, fv, swept=sweep_arguments(f, 300))
        else:
            fv = sparse_coprime_fv(m, xs, ys, norms, values)
            sweep = assert_same_sweep(m, xs, ys, norms, fv)
        fvs[name] = fv
        assert sweep.w is not None if name == "exact" else sweep.sums is not None
        assert (sweep.t_im is not None) == (name == "complex")
        first = norms[coprime & (fv != 0)].min()
        assert sweep.norms[0] < first  # rows before the first coprime element
        assert (fv[coprime] != 0).sum() < (fv[~coprime] != 0).sum()
        assert (~np.isin(sweep.norms, norms[coprime & (fv != 0)])).sum() >= 10
    off_imag = fvs["general"].copy()
    off_imag[(off_imag != 0) & ~coprime] += 0.25j
    off_imag.imag[coprime] = -0.0
    assert np.signbit(off_imag[coprime].imag).all()
    cuts = [0, *np.unique(norms[fvs["general"] != 0]).tolist()]
    want = lab._best_at(m, lab._sweep_arrays(m, xs, ys, norms, fvs["general"]), cuts)
    sweep = assert_same_sweep(m, xs, ys, norms, off_imag)
    assert sweep.t_im is not None
    assert [repr(r) for r in lab._best_at(m, sweep, cuts)] == [repr(r) for r in want]


def small_scan(gauss):
    """Two functions and a grid whose Q falls with N: three grid N are the largest for some q."""
    table = sieve_primes(gauss, 400)
    fns = [tabulate(name, gauss, 400, table) for name in ("prime_indicator", "log_norm")]
    return lab.LodScanConfig(d=-1, theta=0.7, B=3.0, N_grid=(2, 3, 5, 8, 12)), fns


def test_scan_builds_rows_once_per_function_and_cut(gauss, monkeypatch):
    """`_scan` builds each function's rows once per cut, before the sweeps; no modulus builds."""
    build = lab._levels
    calls = []

    def count(norms, fv, w_K):
        calls.append((id(fv.base), norms.size))  # (function, cut)
        return build(norms, fv, w_K)

    monkeypatch.setattr(lab, "_levels", count)
    cfg, fns = small_scan(gauss)
    tables = lab._scan(cfg, fns, workers=1)
    # each modulus sweeps to the largest grid N whose table holds its record
    last = {}
    for k, table in enumerate(tables[0]):
        for r in table.records:
            last[r.q_x, r.q_y] = k
    cuts = set(last.values())
    assert len(cuts) == 3 and len(last) > 2 * len(cuts)
    assert len(set(calls)) == len(calls) == len(fns) * len(cuts)


def test_prefix_copy_sweeps_like_the_scan_rows(gauss, monkeypatch):
    """Inside a scan, a copy of a prefix (same values, another object) builds its own rows.

    Its profile has the same bytes as the sweep of the scan's prefix, whose
    rows the scan's table supplies.
    """
    monkeypatch.setattr(lab, "_SWEEP_BLOCK", 64)
    build, sweep = lab._levels, lab._sweep_arrays
    built, checked = [], []

    def count(norms, fv, w_K):
        built.append(1)
        return build(norms, fv, w_K)

    def both(m, xs, ys, norms, fv):
        before = len(built)
        got = sweep(m, xs, ys, norms, fv)
        assert len(built) == before  # read from the table
        copy = sweep(m, xs.copy(), ys.copy(), norms.copy(), fv.copy())
        assert len(built) == before + 1
        assert profile_bytes(copy) == profile_bytes(got)
        checked.append(1)
        return got

    cfg, fns = small_scan(gauss)
    monkeypatch.setattr(lab, "_levels", count)
    monkeypatch.setattr(lab, "_sweep_arrays", both)
    tables = lab._scan(cfg, fns, workers=1)
    moduli = {(r.q_x, r.q_y) for table in tables[0] for r in table.records}
    assert len(checked) == len(fns) * len(moduli)
    assert lab._SWEEP_CTX == {}


@pytest.mark.parametrize("d", [-1, -3])
@pytest.mark.parametrize("name", ["log_norm", "tau"])
def test_sweep_dtype_does_not_change_bytes(monkeypatch, d, name):
    """A real f gives the same results at every cut as float64 and as complex128.

    The general path's level sums stay complex128 for float64 input: a
    float64 pairwise ``.sum()`` groups differently and can change a row.
    """
    monkeypatch.setattr(lab, "_SWEEP_BLOCK", 64)
    ring = make_ring(d)
    f = tabulate(name, ring, 400, sieve_primes(ring, 400))
    xs, ys, norms, wide = sweep_arguments(f, 400)
    assert not wide.imag.any()
    real = wide.real.copy()
    for q in canonical_classes(ring, 40):
        if q.norm() >= 2:
            m = Modulus(ring, q)
            want = lab._sweep_arrays(m, xs, ys, norms, wide)
            got = lab._sweep_arrays(m, xs, ys, norms, real)
            cuts = [0, *want.norms.tolist()]
            assert [repr(r) for r in lab._best_at(m, got, cuts)] == \
                [repr(r) for r in lab._best_at(m, want, cuts)]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 300), min_size=1, max_size=12), st.integers(0, 2**32 - 1))
def test_level_sums_match_per_level_sum(sizes, seed):
    rng = np.random.default_rng(seed)
    va = rng.standard_normal(sum(sizes)) + 1j * rng.standard_normal(sum(sizes))
    starts = np.cumsum([0] + sizes[:-1])
    got = lab._level_sums(va, starts, np.array(sizes))
    want = np.array([va[s:s + n].sum() for s, n in zip(starts, sizes)])
    assert got.tobytes() == want.tobytes()
