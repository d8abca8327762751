"""The blocked breakpoint sweep against two loops.

The sweep reads what a scan gives it (`sweep_arguments`): f's canonical
classes, swept on unit orbits.  `loop_orbit_sweep_running` pins its float
order, on repr, so bit for bit, signed zeros included.  `loop_sweep_running`,
the element loop of the old float order, checks it within ``TOLERANCE``;
where every sum is an exact integer it checks it bit for bit too.
"""

import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlod import lab
from quadlod.arith import ArithFn, load_csv, save_csv, tabulate
from quadlod.characters import Modulus
from quadlod.regions import a0, canonical_classes, class_arrays, element_arrays
from quadlod.rings import SUPPORTED_D, AlgInt, make_ring
from quadlod.sieve import sieve_primes
from _oracles import loop_orbit_sweep_running, loop_sweep_running, sweep_arguments

INTEGER_VALUES = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
LOG_VALUES = st.one_of(
    st.just(0.0), st.integers(2, 10**4).map(math.log), st.floats(-2.0, 2.0)
).map(complex)
COMPLEX_VALUES = st.builds(
    complex, st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 0.5, -1.25])
)
# real integers have exact sums while w_K * sum |f| < 2^52; four values near
# +-2^50 reach that bound, so some large draws do not
REAL_INTEGER_VALUES = st.integers(-3, 3).map(complex)
LARGE_INTEGER_VALUES = st.one_of(
    st.integers(-3, 3), st.integers(2**50 - 3, 2**50 + 3), st.integers(-2**50 - 3, -2**50 + 3)
).map(complex)

# A record may move from the element loop's by this share of sum |re f| +
# |im f| over the elements of norm <= its cut: the float order changed.
# The largest share seen at paper scale is 1.7e-14.
TOLERANCE = 1e-12


def profile_bytes(sweep):
    """Every array of the profile, its rows' included, as bytes."""
    out = []
    for a in sweep:
        if isinstance(a, (tuple, list)):
            out.extend(profile_bytes(a))
        elif isinstance(a, np.ndarray):
            out.append(a.tobytes())
        else:
            out.append(repr(a))
    return out


def element_values(f, hi):
    """(xs, ys, norms, fv): the elements of norm 1..hi and f at them, the element loop's input."""
    xs, ys, norms = element_arrays(f.ring.d, 1, hi)
    return xs, ys, norms, lab._fvals(f, xs, ys)


def at_cuts(running, cuts):
    """A loop's running records read at each cut."""
    running = list(running)
    at = [cut for cut, _ in running]
    return [running[bisect_right(at, cut) - 1][1] for cut in cuts]


def element_eps(m, elements, cut, gx, gy):
    """eps at cut and the class of (gx, gy), summed over the elements."""
    xs, ys, norms, fv = elements
    rid = m.rid_xy(xs, ys)
    upto = norms <= cut
    a = fv[upto & (rid == m.rid_xy(gx, gy))].sum()
    t = fv[upto & (m.coprime_index[rid] >= 0)].sum()
    return complex(a.real - t.real / m.phi, a.imag - t.imag / m.phi)


def assert_near_element_loop(m, elements, cuts, got):
    """Each record is within TOLERANCE of the element loop's at its cut.

    max_abs is within the bound; so is max_eps where the argmax row and class
    agree.  Where they moved, the loop's |eps| at the new row and class is
    within the bound of the loop's maximum.
    """
    norms, fv = elements[2], elements[3]
    mag = np.abs(fv.real) + np.abs(fv.imag)
    for cut, new, ref in zip(cuts, got, at_cuts(loop_sweep_running(m, *elements), cuts)):
        bound = TOLERANCE * mag[norms <= cut].sum()
        assert abs(new.max_abs - ref.max_abs) <= bound, cut
        if (new.argmax_norm, new.gamma_x, new.gamma_y) == (ref.argmax_norm, ref.gamma_x, ref.gamma_y):
            assert abs(new.max_eps - ref.max_eps) <= bound, cut
        elif new.argmax_norm:
            eps = element_eps(m, elements, new.argmax_norm, new.gamma_x, new.gamma_y)
            assert ref.max_abs - abs(eps) <= bound, cut


def assert_same_sweep(m, f, hi):
    """At every prefix cut, the sweep's first maximum matches both loops over that prefix.

    The sweep and the orbit loop read f's canonical classes of norm <= hi,
    the element loop the elements.  The profile has one row per distinct
    norm of f's nonzero classes, which holds every coprime breakpoint; a row
    with no coprime class repeats the row before it bit for bit (the empty
    prefix's zeros for row 0), and so does every row when one unit orbit
    holds every coprime class.  Each row's norm is a cut, and so is 0 (the
    empty prefix).  The orbit loop gives the same bits at every cut; so does
    the element loop when the sums are exact (no block starts kept), and
    otherwise it is within TOLERANCE.  Returns the sweep's profile.
    """
    classes = sweep_arguments(f, hi)
    xs, ys, norms, fv = classes
    sweep = lab._sweep_arrays(m, *classes)
    cid = m.coprime_index[m.rid_xy(xs, ys)]
    rows = np.unique(norms[fv != 0])
    several = m.unit_orbits[1].size > 1
    breakpoints = np.unique(norms[(cid >= 0) & (fv != 0)]) if several else norms[:0]
    assert sweep.lv.norms.tolist() == rows.tolist()  # one profile row per norm of f's support
    assert np.isin(breakpoints, rows).all()
    # one plane for real f, two for complex f
    assert len(sweep.t) == len(sweep.w) == (1 if not fv.imag.any() else 2)
    assert all(a.size == rows.size for a in (sweep.row_sq, *sweep.t))
    for i in np.flatnonzero(~np.isin(rows, breakpoints)).tolist():
        for a in (sweep.row_sq, *sweep.t):
            assert a[i].tobytes() == (a[i - 1] if i else np.float64(0.0)).tobytes()
    cuts = [0, *rows.tolist()]
    got = lab._best_at(m, sweep, cuts)
    want = at_cuts(loop_orbit_sweep_running(m, *classes), cuts)
    assert [repr(r) for r in got] == [repr(r) for r in want]
    elements = element_values(f, hi)
    if sweep.starts is None:  # exact sums keep the element loop's bits
        old = at_cuts(loop_sweep_running(m, *elements), cuts)
        assert [repr(r) for r in got] == [repr(r) for r in old]
    else:
        assert_near_element_loop(m, elements, cuts, got)
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
    assert_same_sweep(m, f, hi)


@pytest.mark.parametrize("name", ["log_norm", "lambda", "moebius", "prime_indicator", "tau"])
def test_sweep_bit_identical_across_blocks(gauss, monkeypatch, name):
    monkeypatch.setattr(lab, "_SWEEP_BLOCK", 64)
    f = tabulate(name, gauss, 900, sieve_primes(gauss, 900))
    for q in canonical_classes(gauss, 40):
        if q.norm() >= 2:
            m = Modulus(gauss, q)
            sweep = assert_same_sweep(m, f, 900)
            # the blocks' rows are unit orbits; exact sums keep no block starts
            k = m.unit_orbits[1].size
            assert k < 64 < sweep.lv.norms.size * k  # several blocks
            assert (sweep.starts is None) == (name not in ("log_norm", "lambda"))


def complex_fn(ring, hi, seed):
    """f with random real and imaginary parts on the classes."""
    rng = np.random.default_rng(seed)
    n = class_arrays(ring, hi)[0].size
    return ArithFn(ring, hi, rng.standard_normal(n) + 1j * rng.standard_normal(n), "complex")


@pytest.mark.parametrize("block", [None, 1])  # None: the default
@pytest.mark.parametrize("d", SUPPORTED_D)
def test_sweep_matches_both_loops_on_every_ring(monkeypatch, d, block):
    """lambda, log_norm and a complex f, on every ring, one row per block and the default.

    Every modulus of norm 2 to 30 the ring has, so one-orbit moduli and phi
    1 among them where they occur.
    """
    if block is not None:
        monkeypatch.setattr(lab, "_SWEEP_BLOCK", block)
    ring = make_ring(d)
    table = sieve_primes(ring, 300)
    fns = [tabulate(name, ring, 300, table) for name in ("lambda", "log_norm")]
    fns.append(complex_fn(ring, 300, -d))
    for q in canonical_classes(ring, 30):
        if q.norm() >= 2:
            m = Modulus(ring, q)
            for f in fns:
                assert assert_same_sweep(m, f, 300).starts is not None


@pytest.mark.parametrize("d", [-1, -3])
def test_sweep_real_plane_matches_complex(monkeypatch, d):
    """Real values take one float64 plane; -0.0 imaginary parts too, a 1e-300 one does not.

    The switch is on whether any imaginary part is nonzero, so each variant of
    the same log_norm values must match both loops at every cut, and the +0.0
    and -0.0 variants must give the same profile bytes.
    """
    monkeypatch.setattr(lab, "_SWEEP_BLOCK", 64)
    ring = make_ring(d)
    f = tabulate("log_norm", ring, 400)
    assert not f.vals.imag.any() and not np.signbit(f.vals.imag).any()
    neg = f.vals.copy()
    neg.imag = -0.0
    assert np.signbit(neg.imag).all()
    forced = f.vals.copy()
    forced.imag[0] = 1e-300  # class 0 is the unit 1: coprime to every q
    neg_f, forced_f = (ArithFn(ring, 400, v, "log_norm") for v in (neg, forced))
    for q in canonical_classes(ring, 40):
        if q.norm() >= 2:
            m = Modulus(ring, q)
            plain = assert_same_sweep(m, f, 400)
            assert len(plain.w) == 1
            assert profile_bytes(assert_same_sweep(m, neg_f, 400)) == profile_bytes(plain)
            assert len(assert_same_sweep(m, forced_f, 400).w) == 2


def test_sweep_exact_path_only_for_exact_integer_sums(monkeypatch):
    """Integer f with w_K * sum |f| < 2^52 over the classes reads rows back without a replay.

    The exact path is chosen from f's values alone, over all of its nonzero
    classes, coprime to q or not: each class stands for its w_K associates,
    so w_K times the sum |f| over the classes decides.  On d = -1 and
    d = -3, a class sum just below 2^52 / w_K keeps no block starts and
    reads each row back with one bincount; at or just above it, a 0.5 or an
    imaginary part of 1e-300 each keep the block starts and replay the
    row's block once per nonempty readback.  Both must match the loops at
    every cut.
    """
    monkeypatch.setattr(lab, "_SWEEP_BLOCK", 64)
    replay = lab._replay
    calls = []

    def refuse(*args):
        raise AssertionError("exact sums are read back without a replay")

    def count(*args):
        calls.append(1)
        return replay(*args)

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
                if m.unit_orbits[1].size == 1:  # eps is 0 and nothing is summed
                    continue
                monkeypatch.setattr(lab, "_replay", refuse)
                for exact in (f, fns["below"]):
                    assert assert_same_sweep(m, exact, 400).starts is None
                monkeypatch.setattr(lab, "_replay", count)
                for key in ("ceil", "above", "half", "tiny"):
                    calls.clear()
                    sweep = assert_same_sweep(m, fns[key], 400)
                    assert sweep.starts is not None
                    cuts = [0, *sweep.lv.norms.tolist()]
                    readbacks = sum(r.argmax_norm > 0 for r in lab._best_at(m, sweep, cuts))
                    assert 0 < len(calls) == 2 * readbacks  # assert_same_sweep's and this one


@pytest.mark.parametrize("block", [None, 64, 1])
@pytest.mark.parametrize("d", [-1, -3, -7])
def test_exact_readback_matches_the_replay(monkeypatch, d, block):
    """On exact sums the one-bincount readback and the replay give the same bits.

    The same f is swept once as exact and once with its sums declared not
    exact, which keeps the block starts and replays: the profiles' row
    maxima and every record agree bit for bit.
    """
    if block is not None:
        monkeypatch.setattr(lab, "_SWEEP_BLOCK", block)
    ring = make_ring(d)
    table = sieve_primes(ring, 400)
    levels = lab._levels

    def not_exact(*args):
        return levels(*args)._replace(exact=False)

    for name in ("moebius", "tau", "prime_indicator"):
        args = sweep_arguments(tabulate(name, ring, 400, table), 400)
        for q in canonical_classes(ring, 30):
            if q.norm() < 2:
                continue
            m = Modulus(ring, q)
            exact = lab._sweep_arrays(m, *args)
            monkeypatch.setattr(lab, "_levels", not_exact)
            replayed = lab._sweep_arrays(m, *args)
            monkeypatch.setattr(lab, "_levels", levels)
            assert exact.starts is None and replayed.starts is not None
            assert exact.row_sq.tobytes() == replayed.row_sq.tobytes()
            cuts = [0, *exact.lv.norms.tolist()]
            assert [repr(r) for r in lab._best_at(m, replayed, cuts)] == \
                [repr(r) for r in lab._best_at(m, exact, cuts)]


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
        for m in moduli:
            assert assert_same_sweep(m, f, 300).starts is None


def test_exact_sweep_refuses_elements(gauss):
    """Any f given as elements fails loudly: the sweep would read each as its w_K associates.

    The same f given as canonical classes is swept, exact or not.
    """
    table = sieve_primes(gauss, 400)
    m = Modulus(gauss, AlgInt(gauss, 3, 0))
    for name in ("one", "moebius", "tau", "prime_indicator", "lambda", "log_norm"):
        f = tabulate(name, gauss, 400, table)
        with pytest.raises(ValueError, match="canonical classes"):
            lab._sweep_arrays(m, *element_values(f, 400))
        exact = lab._sweep_arrays(m, *sweep_arguments(f, 400)).starts is None
        assert exact == (name not in ("lambda", "log_norm"))
    f = complex_fn(gauss, 400, 1)
    with pytest.raises(ValueError, match="canonical classes"):
        lab._sweep_arrays(m, *element_values(f, 400))
    assert len(lab._sweep_arrays(m, *sweep_arguments(f, 400)).w) == 2


def tied_fn(m, hi, scale=1.0):
    """f on classes whose maximum is a tie at norm 1, met again at a later norm.

    q has two unit orbits, each of w_K classes (s_R = 1), so both orbits'
    eps are +-(A_0 - A_1) / 2 for A_0 the class sum of orbit 0, which holds
    class 0, and A_1 the other's: every class ties at every row.  f sits on
    orbit 0 alone, so A_1 is 0.  f(1) puts A_0 at -2 scale, so class 0's
    eps is -scale at norm 1; four later classes, in increasing norm, move it
    to 0, scale, 0 and -scale again.  Every partial sum is a power of two
    times scale, or 0, so each is exact whatever scale is.
    """
    orbit, keys, stab = m.unit_orbits
    assert keys.size == 2 and stab.tolist() == [1, 1]
    xs, ys, norms = class_arrays(m.ring, hi)
    cid = m.coprime_index[m.rid_xy(xs, ys)]
    vals = np.zeros(xs.size)
    at, used = 0, set()
    for step in (-2, 2, 1, -1, -2):  # the moves of A_0, at increasing norms
        while cid[at] < 0 or orbit[cid[at]] != 0 or norms[at] in used:
            at += 1
        vals[at] = step * scale
        used.add(norms[at])
    return ArithFn(m.ring, hi, vals, "tied")


@pytest.mark.parametrize("block", [64, 1])  # 1: one row per block
@pytest.mark.parametrize("scale", [1.0, 1 / 3])  # 1/3: sums not exact, read back by a replay
def test_readback_first_class_and_first_row(gauss, monkeypatch, block, scale):
    """`_best_at` reads the first class, with its sign, at the first row of a repeated maximum.

    That class is the key of the first orbit that attains it.
    """
    monkeypatch.setattr(lab, "_SWEEP_BLOCK", block)
    m = Modulus(gauss, AlgInt(gauss, 3, 0))  # phi = 8: two orbits of the four units
    sweep = assert_same_sweep(m, tied_fn(m, 100, scale), 100)
    assert (sweep.starts is None) == (scale == 1)
    assert sweep.lv.norms.size == 5
    assert np.flatnonzero(sweep.row_sq == sweep.row_sq.max()).tolist() == [0, 4]
    (got,) = lab._best_at(m, sweep, [math.inf])
    assert repr(got.max_eps) == repr(complex(-scale, 0.0))
    assert (got.argmax_norm, got.gamma_x, got.gamma_y) == (1, *m.rid_coords(m.unit_rids[0]))


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
    off = np.where(m.coprime_index[m.rid_xy(xs, ys)] < 0, fv, 0)
    assert off.any()
    for mod, vals in ((one, fv), (m, off)):
        sweep = assert_same_sweep(mod, ArithFn(gauss, 100, vals, "scaled"), 100)
        assert sweep.lv.norms.size > 0 and not sweep.row_sq.any()
        assert all(r.argmax_norm == 0 for r in lab._best_at(mod, sweep, [0, 50, math.inf]))


def sparse_coprime_fn(m, hi, values):
    """values on every class not coprime to q, and on one in twenty coprime
    ones past norm 10.

    Most of f's classes are then not coprime to q, many rows hold no coprime
    class, and the first rows come before the first coprime one.
    """
    xs, ys, norms = class_arrays(m.ring, hi)
    cid = m.coprime_index[m.rid_xy(xs, ys)]
    keep = cid < 0
    keep[np.flatnonzero((cid >= 0) & (norms > 10))[::20]] = True
    return ArithFn(m.ring, hi, np.where(keep, values[: xs.size], 0), "sparse")


@pytest.mark.parametrize("block", [16, 1])
@pytest.mark.parametrize("q", [(3, 0), (3, 3)])  # phi 8: 3 is prime; 3 + 3i = 3 (1 + i)
def test_rows_without_coprime_change(gauss, monkeypatch, block, q):
    """f mostly on multiples of a prime dividing q: most rows add nothing coprime.

    Such a row repeats the row before it, and every cut, at a row norm with
    only non-coprime classes or before the first coprime class, matches the
    loops: for exact sums, other real sums, a complex f with -0.0 imaginary
    parts, and a real f whose only nonzero imaginary parts sit off the
    coprime classes, which takes two planes and gives the real f's results.
    """
    monkeypatch.setattr(lab, "_SWEEP_BLOCK", block)
    xs, ys, norms = class_arrays(gauss, 300)
    m = Modulus(gauss, AlgInt(gauss, *q))
    rng = np.random.default_rng(7)
    n = xs.size
    integers = rng.choice([-3, -2, -1, 1, 2, 3], n).astype(np.complex128)
    floats = rng.standard_normal(n).astype(np.complex128)
    signed_zero = rng.standard_normal(n) + 1j * rng.choice([0.0, -0.0, 0.5], n)
    coprime = m.coprime_index[m.rid_xy(xs, ys)] >= 0
    fns = {}
    for name, values in (("exact", integers), ("general", floats), ("complex", signed_zero)):
        f = fns[name] = sparse_coprime_fn(m, 300, values)
        sweep = assert_same_sweep(m, f, 300)
        assert (sweep.starts is None) == (name == "exact")
        assert len(sweep.t) == (2 if name == "complex" else 1)
        fv = f.vals
        first = norms[coprime & (fv != 0)].min()
        assert sweep.lv.norms[0] < first  # rows before the first coprime class
        assert (fv[coprime] != 0).sum() < (fv[~coprime] != 0).sum()
        assert (~np.isin(sweep.lv.norms, norms[coprime & (fv != 0)])).sum() >= 10
    off_imag = fns["general"].vals.copy()
    off_imag[(off_imag != 0) & ~coprime] += 0.25j
    off_imag.imag[coprime] = -0.0
    assert np.signbit(off_imag[coprime].imag).all()
    cuts = [0, *np.unique(norms[fns["general"].vals != 0]).tolist()]
    want = lab._best_at(m, lab._sweep_arrays(m, *sweep_arguments(fns["general"], 300)), cuts)
    sweep = assert_same_sweep(m, ArithFn(gauss, 300, off_imag, "off"), 300)
    assert len(sweep.t) == 2
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
    """A real f gives the same profile bytes and records as float64 and as complex128.

    Its one plane is float64 either way.
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
            assert profile_bytes(got) == profile_bytes(want)
            cuts = [0, *want.lv.norms.tolist()]
            assert [repr(r) for r in lab._best_at(m, got, cuts)] == \
                [repr(r) for r in lab._best_at(m, want, cuts)]


def general_fns(ring, hi, tmp_path):
    """lambda, log_norm and a complex f read back from a csv file, to norm hi."""
    save_csv(complex_fn(ring, hi, 3), tmp_path / "f.csv")
    lam = tabulate("lambda", ring, hi, sieve_primes(ring, hi))
    return [lam, tabulate("log_norm", ring, hi), load_csv(tmp_path / "f.csv")]


@pytest.mark.parametrize("d", SUPPORTED_D)
def test_one_orbit_moduli_give_the_empty_record(tmp_path, d):
    """Where one unit orbit holds every coprime class, eps is 0 at every cut.

    Each such modulus's record is then the empty one, max_abs 0.0 and
    argmax_norm 0, for every f: the sweep sums nothing for it.  On d = -1
    these moduli have norm 4, 5, 8 and 10 (and 2, where phi is 1); d = -19
    and the rings after it have none, as w_K = 2 and phi > 2 there.
    """
    ring = make_ring(d)
    fns = general_fns(ring, 1600, tmp_path)
    assert len(fns[2].vals) and fns[2].vals.imag.all()
    cfg = lab.LodScanConfig(d=d, theta=0.5, B=0.0, N_grid=(20, 40))
    moduli = [Modulus(ring, q) for q in canonical_classes(ring, 80) if q.norm() >= 2]
    one = {(m.q.x, m.q.y) for m in moduli if m.unit_orbits[1].size == 1}
    assert any(m.phi > 1 for m in moduli if (m.q.x, m.q.y) in one) == (d > -19)
    seen = 0
    for tables in lab._scan(cfg, fns, workers=1):
        for table in tables:
            for r in table.records:
                if (r.q_x, r.q_y) in one:
                    assert (r.max_abs, r.max_eps, r.argmax_norm) == (0.0, 0j, 0)
                    seen += 1
    assert seen >= 2 * len(fns) * (d > -19)


@pytest.mark.parametrize("d", SUPPORTED_D)
def test_scan_aggregates_near_the_element_loop(tmp_path, d):
    """Each record and aggregate of a scan is within TOLERANCE of the element loop's.

    The bound is TOLERANCE times sum |re f| + |im f| over A0(N), for lambda,
    log_norm and a complex f.
    """
    ring = make_ring(d)
    grid = (10, 20) if d > -43 else (20, 40)  # A0(N) is sparser as |d| grows
    fns = general_fns(ring, grid[-1] ** 2, tmp_path)
    cfg = lab.LodScanConfig(d=d, theta=0.7, B=0.0, N_grid=grid)
    for f, tables in zip(fns, lab._scan(cfg, fns, workers=1)):
        for table in tables:
            elements = element_values(f, a0(ring, table.n).hi_sq)
            fv = elements[3]
            bound = TOLERANCE * (np.abs(fv.real).sum() + np.abs(fv.imag).sum())
            old = []
            for r in table.records:
                m = Modulus(ring, AlgInt(ring, r.q_x, r.q_y))
                ref = list(loop_sweep_running(m, *elements))[-1][1]
                assert abs(r.max_abs - ref.max_abs) <= bound
                old.append(ref.max_abs)
            assert len(old) > 3
            assert abs(table.aggregate - math.fsum(old)) <= bound
