import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlod import lab
from quadlod.arith import ArithFn, tabulate
from quadlod.characters import Modulus
from quadlod.errors import (
    EmptyModulusRange,
    TableTooSmall,
    UnsupportedWeight,
)
from quadlod.lab import (
    LodScanConfig,
    ModulusRecord,
    _fvals,
    convolution_experiment,
    large_sieve_ratios,
    lod_scan,
    mertens_sums,
    sw_check,
    write_lod_csv,
)
from quadlod.regions import a0, canonical_classes, element_arrays, enumerate_region
from quadlod.rings import SUPPORTED_D, canonical_associate, gcd, make_ring
from quadlod.sieve import sieve_primes
from conftest import random_float_fn, random_int_fn
from _oracles import (
    character_sum_lhs,
    chi_at,
    cumsum_sweep_max,
    epsilon,
    epsilon_sweep,
    is_coprime,
    loop_class_fold,
    primitive_characters,
    residue,
    rid_of,
    sw_sum,
)


@pytest.fixture(scope="module")
def one_2500(gauss):
    return tabulate("one", gauss, 2500, sieve_primes(gauss, 2500))


def brute_epsilon(ring, f, hi, m, gamma):
    """Independent double loop; integer cut hi on the squared norm."""
    g_red = m.rid_xy(gamma.x, gamma.y)
    tot_g = 0j
    tot_c = 0j
    for xi in enumerate_region(a0(ring, math.isqrt(hi) + 1)):
        if xi.norm() > hi:
            continue
        red = m.rid_xy(xi.x, xi.y)
        can = canonical_associate(xi)
        v = f.values[(can.x, can.y)]
        if red == g_red:
            tot_g += v
        if red in m.unit_rids:
            tot_c += v
    return complex(
        tot_g.real - tot_c.real / m.phi, tot_g.imag - tot_c.imag / m.phi
    )


def test_epsilon_matches_brute_force(gauss, one_2500):
    m = Modulus(gauss, gauss.element(3, 0))
    for rid in m.unit_rids:
        gamma = residue(m, rid)
        got = epsilon(one_2500, 5, m, gamma)
        expect = brute_epsilon(gauss, one_2500, 25, m, gamma)
        assert got == expect


def test_epsilon_phi_one_is_zero(gauss, one_2500):
    m = Modulus(gauss, gauss.element(1, 1))
    assert epsilon(one_2500, 5, m, gauss.element(1, 0)) == 0j


def test_epsilon_errors(gauss, one_2500):
    m = Modulus(gauss, gauss.element(3, 0))
    with pytest.raises(TableTooSmall):
        epsilon(one_2500, 51, m, gauss.element(1, 0))


@pytest.mark.parametrize("n", [0, -3])
def test_cut_at_most_zero_is_value_error(one_2500, n):
    # the experiments read A0(N) through _a0_values, which takes N > 0 as
    # regions.a0 does: -3 is not A0(3)
    with pytest.raises(ValueError, match="N must be positive"):
        lab._a0_values(one_2500, n)


def test_epsilon_decomposition_sums_to_zero(gauss):
    f = random_float_fn(gauss, 400, 2)
    for coords in [(3, 0), (2, 3), (1, 1)]:
        m = Modulus(gauss, gauss.element(*coords))
        total = sum(epsilon(f, 20, m, residue(m, r)) for r in m.unit_rids)
        assert abs(total) <= 1e-9


def test_unit_action_permutes_gammas(gauss):
    # f unit-invariant: replacing gamma by u*gamma permutes the eps values
    f = random_int_fn(gauss, 400, seed=8)
    m = Modulus(gauss, gauss.element(4, 1))
    i_unit = gauss.element(0, 1)
    vals = {r: epsilon(f, 20, m, residue(m, r)) for r in m.unit_rids}
    mapped = {}
    for r in m.unit_rids:
        u_gamma = i_unit * residue(m, r)
        mapped[r] = epsilon(f, 20, m, u_gamma)
    assert sorted(
        (v.real, v.imag) for v in vals.values()
    ) == sorted((v.real, v.imag) for v in mapped.values())
    assert max(abs(v) for v in vals.values()) == max(abs(v) for v in mapped.values())


def test_sweep_equals_brute_max(gauss):
    f = random_int_fn(gauss, 144, seed=3)
    xs, ys, norms = element_arrays(-1, 1, 144)
    fv = _fvals(f, xs, ys)
    for q in canonical_classes(gauss, 20):
        if q.norm() < 2:
            continue
        m = Modulus(gauss, q)
        res = epsilon_sweep(f, 12, m)
        assert res.max_abs == cumsum_sweep_max(m, xs, ys, norms, fv)


def test_sweep_argmax_is_attained(gauss):
    f = random_int_fn(gauss, 400, seed=12)
    m = Modulus(gauss, gauss.element(3, 2))
    res = epsilon_sweep(f, 20, m)
    gamma = gauss.element(res.gamma_x, res.gamma_y)
    e = brute_epsilon(gauss, f, res.argmax_norm, m, gamma)
    assert math.sqrt(e.real * e.real + e.imag * e.imag) == res.max_abs


def test_sweep_zero_function(gauss):
    zero = ArithFn(
        gauss, 400, [0j for c in canonical_classes(gauss, 400)], "zero"
    )
    m = Modulus(gauss, gauss.element(3, 0))
    res = epsilon_sweep(zero, 20, m)
    assert res.max_abs == 0.0 and res.max_eps == 0j


def test_sweep_phi_one(gauss, one_2500):
    m = Modulus(gauss, gauss.element(1, 1))
    assert epsilon_sweep(one_2500, 20, m).max_abs == 0.0


def test_unit_class_indicator_closed_form(gauss):
    vals = [
        1 + 0j if (c.x, c.y) == (1, 0) else 0j
        for c in canonical_classes(gauss, 400)
    ]
    f = ArithFn(gauss, 400, vals, "unit_class")
    for coords in [(3, 0), (2, 1), (2, 3)]:
        m = Modulus(gauss, gauss.element(*coords))
        for rid in m.unit_rids:
            gamma = residue(m, rid)
            units_hitting = sum(
                1
                for u in gauss.units
                if m.rid_xy(u.x, u.y) == m.rid_xy(gamma.x, gamma.y)
            )
            expect = units_hitting - gauss.w_K / m.phi
            assert abs(epsilon(f, 20, m, gamma) - expect) < 1e-12


def test_lod_scan_matches_closed_form_for_unit_class(gauss):
    # one * moebius is the unit-class indicator; eps is then constant in M
    # beyond the first shell, so E(N, Q) has a closed form from unit residues
    table = sieve_primes(gauss, 2500)
    one = tabulate("one", gauss, 2500, table)
    mu = tabulate("moebius", gauss, 2500, table)
    from quadlod.arith import convolve

    delta = convolve(one, mu)
    cfg = LodScanConfig(d=-1, theta=0.5, B=0.0, N_grid=(30,))
    (scan,) = lod_scan(cfg, delta)
    expected_total = 0.0
    for rec in scan.records:
        m = Modulus(gauss, gauss.element(rec.q_x, rec.q_y))
        best = 0.0
        for rid in m.unit_rids:
            hits = sum(
                1
                for u in gauss.units
                if rid_of(m, u) == rid
            )
            best = max(best, abs(hits - gauss.w_K / m.phi))
        assert rec.max_abs == pytest.approx(best, abs=1e-12), (rec.q_x, rec.q_y)
        expected_total += best
    assert scan.aggregate == pytest.approx(expected_total, rel=1e-12)


def test_lod_csv_degenerate_row(gauss, one_2500, tmp_path):
    cfg = LodScanConfig(d=-1, theta=0.01, B=6.0, N_grid=(20,))
    tables = lod_scan(cfg, one_2500)
    path = tmp_path / "degenerate.csv"
    write_lod_csv(tables, path, "# config: {}\n")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config: {}" and lines[1].startswith("N,Q,")
    assert lines[-1].split(",")[4] == "aggregate"
    assert float(lines[-1].split(",")[8]) == 0.0


def test_lod_config_validation():
    with pytest.raises(ValueError):
        LodScanConfig(d=-1, theta=0.0, B=0.0, N_grid=(10, 20))
    with pytest.raises(ValueError):
        LodScanConfig(d=-1, theta=0.5, B=-1.0, N_grid=(10, 20))
    with pytest.raises(ValueError):
        LodScanConfig(d=-1, theta=0.5, B=0.0, N_grid=(20, 10))
    with pytest.raises(ValueError):
        LodScanConfig(d=-1, theta=0.5, B=0.0, N_grid=())


def test_lod_scan_zero_function(gauss):
    zero = ArithFn(
        gauss, 2500, [0j for c in canonical_classes(gauss, 2500)], "zero"
    )
    cfg = LodScanConfig(d=-1, theta=0.4, B=0.0, N_grid=(20, 50))
    tables = lod_scan(cfg, zero)
    assert all(t.aggregate == 0.0 for t in tables)


def test_lod_scan_degenerate_q(gauss, one_2500):
    cfg = LodScanConfig(d=-1, theta=0.01, B=6.0, N_grid=(20,))
    tables = lod_scan(cfg, one_2500)
    assert tables[0].degenerate and tables[0].aggregate == 0.0


def test_lod_scan_aggregate_is_sum(gauss, one_2500):
    cfg = LodScanConfig(d=-1, theta=0.4, B=0.0, N_grid=(30,))
    (table,) = lod_scan(cfg, one_2500)
    assert table.aggregate == math.fsum(r.max_abs for r in table.records)
    assert table.normalized == table.aggregate / table.count
    for rec in table.records:
        gamma = gauss.element(rec.gamma_x, rec.gamma_y)
        m = Modulus(gauss, gauss.element(rec.q_x, rec.q_y))
        assert is_coprime(m, gamma)


def test_lod_scan_worker_determinism(gauss, one_2500, tmp_path):
    cfg = LodScanConfig(d=-1, theta=0.4, B=0.0, N_grid=(20, 40))
    t1 = lod_scan(cfg, one_2500, workers=1)
    t2 = lod_scan(cfg, one_2500, workers=3)
    assert all(
        ra == rb for a, b in zip(t1, t2) for ra, rb in zip(a.records, b.records)
    )
    p1, p2 = tmp_path / "w1.csv", tmp_path / "w3.csv"
    write_lod_csv(t1, p1)
    write_lod_csv(t2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_lod_scan_builds_each_modulus_once(one_2500, monkeypatch):
    built = []

    class CountingModulus(lab.Modulus):
        def __init__(self, ring, q, *args, **kwargs):
            super().__init__(ring, q, *args, **kwargs)
            built.append((q.x, q.y))

    monkeypatch.setattr(lab, "Modulus", CountingModulus)
    cfg = LodScanConfig(d=-1, theta=0.4, B=0.0, N_grid=(20, 30, 40))
    tables = lod_scan(cfg, one_2500)
    assert len(tables[0].records) < len(tables[-1].records)
    assert len(built) == len(set(built)) == len(tables[-1].records)
    # one scan for f, g and f*g: each modulus is built once, each function read once
    fvals, fvals_calls = lab._fvals, []
    monkeypatch.setattr(lab, "_fvals", lambda *a: fvals_calls.append(a) or fvals(*a))
    mu = tabulate("moebius", one_2500.ring, 2500, sieve_primes(one_2500.ring, 2500))
    for g, n_fns in ((one_2500, 2), (mu, 3)):
        built.clear()
        fvals_calls.clear()
        convolution_experiment(one_2500, g, cfg)
        assert len(built) == len(set(built)) == len(tables[-1].records)
        assert len(fvals_calls) == n_fns


@pytest.fixture(scope="module")
def tau_scan():
    """d = -2, theta 0.7, B 3: Q(N) = 15.05, 6.56, 4.02, 3.50, 3.70, not monotone."""
    ring = make_ring(-2)
    f = tabulate("tau", ring, 144, sieve_primes(ring, 144))
    cfg = LodScanConfig(d=-2, theta=0.7, B=3.0, N_grid=(2, 3, 5, 8, 12))
    return f, cfg, lod_scan(cfg, f)


def test_lod_scan_on_non_monotone_q_matches_epsilon_sweep(tau_scan):
    f, cfg, tables = tau_scan
    qs = [int(t.q_bound) for t in tables]
    assert qs == [15, 6, 4, 3, 3]
    for t in tables:
        want = []
        for q in canonical_classes(f.ring, int(t.q_bound)):
            if q.norm() >= 2:
                m = Modulus(f.ring, q)
                r = epsilon_sweep(f, t.n, m)
                want.append(ModulusRecord(
                    q.x, q.y, m.norm, m.phi,
                    r.max_abs, r.max_eps, r.argmax_norm, r.gamma_x, r.gamma_y,
                ))
        assert not t.degenerate and repr(t.records) == repr(want), t.n


def test_lod_scan_on_non_monotone_q_is_worker_independent(tau_scan):
    f, cfg, tables = tau_scan
    assert repr(lod_scan(cfg, f, workers=2)) == repr(tables)


def test_sw_sum_principal_counts_coprime(gauss, one_2500):
    m = Modulus(gauss, gauss.element(3, 0))
    principal = [c for c in m.characters if c.is_principal][0]
    got = sw_sum(one_2500, 10, principal)
    expect = sum(
        1 for xi in enumerate_region(a0(gauss, 10)) if gcd(xi, m.q).is_unit()
    )
    assert got == expect


def test_sw_nonprincipal_cancels(gauss):
    table = sieve_primes(gauss, 10_000)
    pr = tabulate("prime", gauss, 10_000, table)
    m = Modulus(gauss, gauss.element(3, 0))
    count = len(list(enumerate_region(a0(gauss, 100))))
    for chi in m.characters:
        if chi.is_principal:
            continue
        assert abs(sw_sum(pr, 100, chi)) <= count / math.log(100)


def test_sw_check_report(gauss):
    table = sieve_primes(gauss, 2500)
    one = tabulate("one", gauss, 2500, table)
    rep = sw_check(one, 50, 1.5)
    assert rep.bound_power == 4.5
    assert rep.modulus_cap == pytest.approx(math.log(50) ** 1.5)
    for row in rep.rows:
        assert row["q_norm"] <= rep.modulus_cap
        assert row["scaled"] <= rep.max_scaled
    assert rep.max_scaled < 1.0  # f = one cancels very strongly


def test_sw_check_reads_f_once_and_reduces_each_modulus_once(gauss, monkeypatch):
    calls = {"fvals": 0, "rids": 0, "sw_term": 0}
    built = []
    fvals, rids, sw_term = lab._fvals, lab._rids, lab.sw_term

    def counting_fvals(*args):
        calls["fvals"] += 1
        return fvals(*args)

    def counting_rids(*args):
        calls["rids"] += 1
        return rids(*args)

    def counting_sw_term(*args):  # the benchmark probes wrap the same global
        calls["sw_term"] += 1
        return sw_term(*args)

    class CountingModulus(lab.Modulus):
        def __init__(self, ring, q, *args, **kwargs):
            super().__init__(ring, q, *args, **kwargs)
            built.append((q.x, q.y))

    monkeypatch.setattr(lab, "_fvals", counting_fvals)
    monkeypatch.setattr(lab, "_rids", counting_rids)
    monkeypatch.setattr(lab, "sw_term", counting_sw_term)
    monkeypatch.setattr(lab, "Modulus", CountingModulus)
    one = tabulate("one", gauss, 2500, sieve_primes(gauss, 2500))
    rep = sw_check(one, 50, 1.5)
    assert len(rep.rows) > len(built) > 1
    assert calls["sw_term"] == len(rep.rows)
    assert calls["fvals"] == 1
    assert calls["rids"] == len(built) == len(set(built))


@pytest.mark.parametrize("n", [1, 0.5, 0, -3, float("nan")])
def test_sw_check_rejects_n_at_most_one(gauss, one_2500, n):
    with pytest.raises(ValueError, match="N must exceed 1"):
        sw_check(one_2500, n, 1.5)


def test_convolution_experiment_shape(gauss):
    bound = 2500
    table = sieve_primes(gauss, bound)
    pr = tabulate("prime", gauss, bound, table)
    cfg = LodScanConfig(d=-1, theta=0.4, B=0.0, N_grid=(20, 50))
    rep = convolution_experiment(pr, pr, cfg)
    assert len(rep.rows) == 2
    assert rep.rows[0]["E_f_norm"] == rep.rows[0]["E_g_norm"]  # same function
    assert set(rep.decaying) == {"E_f_norm", "E_g_norm", "E_conv_norm"}


def test_zero_convolution_experiment(gauss):
    zero = ArithFn(
        gauss, 2500, [0j for c in canonical_classes(gauss, 2500)], "zero"
    )
    cfg = LodScanConfig(d=-1, theta=0.4, B=0.0, N_grid=(10, 20))
    rep = convolution_experiment(zero, zero, cfg)
    assert all(
        row[k] == 0.0 for row in rep.rows for k in ("E_f_norm", "E_g_norm", "E_conv_norm")
    )


def _xy(els):
    """The coordinate arrays that large_sieve_ratios takes, of a list of elements."""
    xs = np.array([z.x for z in els], dtype=np.int64)
    return xs, np.array([z.y for z in els], dtype=np.int64)


def test_large_sieve_zero_coeffs(gauss):
    region = a0(gauss, 7)
    els = list(enumerate_region(region))
    res = large_sieve_ratios(np.zeros((1, len(els))), *_xy(els), 5, 30, region)
    assert res[0] == (0.0, 0.0, 0.0)


def test_large_sieve_single_support(gauss):
    region = a0(gauss, 7)
    xi0 = gauss.element(1, 0)
    lhs, rhs, ratio = large_sieve_ratios(np.array([[1.0 + 0j]]), *_xy([xi0]), 3, 50, region)[0]
    direct = 0.0
    for q in canonical_classes(gauss, 50):
        if q.norm() <= 3:
            continue
        m = Modulus(gauss, q)
        direct += len(primitive_characters(m)) / m.phi  # |chi(1)| = 1
    assert lhs == pytest.approx(direct, rel=1e-12)
    assert rhs == pytest.approx((len(list(enumerate_region(region))) / 3 + 50) * 1.0)


def test_large_sieve_positivity_and_vanishing(gauss):
    region = a0(gauss, 7)
    els = list(enumerate_region(region))
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(4, len(els)))
    for lhs, _, _ in large_sieve_ratios(mat, *_xy(els), 4, 30, region):
        assert lhs >= 0
    # support non-coprime to the only modulus in range: every character sum is 0
    sup = [z for z in els if z.norm() % 9 == 0 or (z.x % 3 == 0 and z.y % 3 == 0)]
    coeffs = np.ones((1, len(sup)), dtype=np.complex128)
    lhs, _, _ = large_sieve_ratios(coeffs, *_xy(sup), 8.5, 9.5, region)[0]
    assert lhs == 0.0


def test_large_sieve_errors(gauss):
    region = a0(gauss, 7)
    one = np.ones((1, 1))
    unit = [gauss.element(1, 0)]
    with pytest.raises(EmptyModulusRange):
        large_sieve_ratios(one, *_xy(unit), 10, 10, region)
    for q1 in (0, -2):
        with pytest.raises(ValueError, match="Q1 must be positive"):
            large_sieve_ratios(one, *_xy(unit), q1, 10, region)
    with pytest.raises(UnsupportedWeight):
        large_sieve_ratios(one, *_xy(unit), 5, 20, region, weight=[(5.0, 1.0), (20.0, 2.0)])
    with pytest.raises(UnsupportedWeight):
        large_sieve_ratios(one, *_xy(unit), 5, 20, region, weight=[(5.0, 1.0)])
    with pytest.raises(ValueError):
        large_sieve_ratios(one, *_xy([gauss.element(9, 0)]), 5, 20, region)
    els = [gauss.element(1, 0), gauss.element(0, 0), gauss.element(9, 0)]
    with pytest.raises(ValueError, match=r"support 0\+0w outside"):
        large_sieve_ratios(np.ones(3), *_xy(els), 5, 20, region)
    # (2^32)^2 + 1^2 wraps to 1 in int64
    with pytest.raises(ValueError, match="outside the region"):
        large_sieve_ratios(one, *_xy([gauss.element(1 << 32, 1)]), 5, 20, region)
    xs, ys = _xy(els)
    for bad_xs, bad_ys in [(xs, ys[:2]), (xs[None], ys[None])]:
        with pytest.raises(ValueError, match="coordinate arrays of shapes"):
            large_sieve_ratios(np.ones(3), bad_xs, bad_ys, 5, 20, region)


def test_large_sieve_weighted_matches_manual(gauss):
    region = a0(gauss, 6)
    els = list(enumerate_region(region))
    rng = np.random.default_rng(3)
    vec = rng.choice([-1.0, 1.0], size=len(els))
    weight = [(4.0, 1.0), (30.0, 1.0)]  # constant weight 1
    lhs_w, rhs_w, _ = large_sieve_ratios(vec, *_xy(els), 4, 30, region, weight=weight)[0]
    # manual: same sums with factor w(|q|)*|q|/phi = |q|/phi
    lhs = 0.0
    for q in canonical_classes(gauss, 30):
        nq = q.norm()
        if nq <= 4:
            continue
        m = Modulus(gauss, q)
        prims = primitive_characters(m)
        for chi in prims:
            s = sum(
                c * chi_at(chi, z) for c, z in zip(vec.tolist(), els)
            )
            lhs += (nq / m.phi) * abs(s) ** 2
    assert lhs_w == pytest.approx(lhs, rel=1e-9)
    count = len(list(enumerate_region(a0(gauss, region.n))))
    integral = 0.5 * (4.0 + 30.0) * 26.0  # trapezoid of x*1 on [4, 30]
    assert rhs_w == pytest.approx((1.0 * (16 + count) + integral) * len(els))


def test_large_sieve_random_sign_ratios(gauss):
    region = a0(gauss, 20)
    els = list(enumerate_region(region))
    rng = np.random.default_rng(42)
    mat = rng.choice([-1.0, 1.0], size=(20, len(els)))
    results = large_sieve_ratios(mat, *_xy(els), 8, 60, region)
    assert all(ratio <= 10 for _, _, ratio in results)


@pytest.mark.parametrize("d,qx,qy", [(-1, 7, 4), (-3, 9, 0), (-2, 5, 3)])
def test_fold_classes_matches_left_to_right_loop(d, qx, qy):
    # non-integer complex coefficients: every class sum is a rounded float sum,
    # and the fold must add each class in element order, bit for bit
    ring = make_ring(d)
    m = Modulus(ring, ring.element(qx, qy))
    xs, ys, _ = element_arrays(d, 1, 900)
    cid = lab._coprime_index(m)[lab._rids(m, xs, ys)]
    rng = np.random.default_rng(-d)
    coeffs = rng.normal(size=(3, len(xs))) + 1j * rng.normal(size=(3, len(xs)))
    want = loop_class_fold(coeffs, cid, m.phi)
    assert _pack(coeffs).lanes == 1
    assert np.array_equal(lab._fold_classes(_pack(coeffs), cid, m.phi), want)
    real = lab._fold_classes(_pack(coeffs.real), cid, m.phi)
    assert real.dtype == np.float64 and np.array_equal(real, want.real)


def _pack(coeffs):
    """coeffs packed whole, at the lanes its largest per-vector sum |c| allows."""
    return lab._pack_lanes(coeffs, lab._lanes_for(lab._coeff_bounds(coeffs)[0]))


def _one_lane(coeffs):
    """coeffs unpacked, one vector per bincount: the fold's reference."""
    return lab._Lanes(lab._real_parts(coeffs), 1, len(coeffs))


def _fold_bits(pack, cid, phi):
    """The fold as int64 bit patterns, so that -0.0 and 0.0 differ."""
    return pack.lanes, lab._fold_classes(pack, cid, phi).view(np.int64)


def _gauss_classes():
    ring = make_ring(-1)
    m = Modulus(ring, ring.element(7, 4))
    xs, ys, _ = element_arrays(-1, 1, 900)
    return lab._coprime_index(m)[lab._rids(m, xs, ys)], m.phi


@pytest.mark.parametrize("rows", [1, 2, "L", "L+1", 100])
def test_packed_fold_matches_one_lane(rows):
    cid, phi = _gauss_classes()
    n = len(cid)
    lanes = 53 // (2 * n).bit_length()  # signs: A = n
    assert lanes > 2
    rows = {"L": lanes, "L+1": lanes + 1}.get(rows, rows)
    coeffs = np.random.default_rng(rows).choice([-1.0, 1.0], size=(rows, n))
    got_lanes, got = _fold_bits(_pack(coeffs), cid, phi)
    assert got_lanes == lanes
    want_lanes, want = _fold_bits(_one_lane(coeffs), cid, phi)
    assert want_lanes == 1 and np.array_equal(got, want)
    assert np.array_equal(got, loop_class_fold(coeffs, cid, phi).real.view(np.int64))


@pytest.mark.parametrize(
    "a,lanes,bits", [(65535, 3, 17), (65536, 2, 18), (2**25 - 1, 2, 26), (2**25, 1, 27)]
)
def test_packed_fold_at_a_lane_width_step(a, lanes, bits):
    # the largest per-vector sum |c| is exactly a: in rows 0-6 one class takes
    # all of it, +a or -a, the extreme digits; rows 7-13 are random
    cid, phi = _gauss_classes()
    rng = np.random.default_rng(a)
    coeffs = rng.integers(-3, 4, size=(14, len(cid))).astype(np.float64)
    coeffs[:, -1] = 0.0
    coeffs[:, -1] = a - np.abs(coeffs).sum(axis=1)
    signs = [1, 1, 1, -1, -1, -1, 1]
    i, j = np.flatnonzero(cid == 0)[:2]
    coeffs[:7] = 0.0
    coeffs[:7, i] = np.multiply(signs, a - 5)
    coeffs[:7, j] = np.multiply(signs, 5)
    assert np.abs(coeffs).sum(axis=1).max() == a and (2 * a).bit_length() == bits
    pack = _pack(coeffs)
    assert pack.lanes == lanes and pack.bits == 53 // lanes
    folded = lab._fold_classes(pack, cid, phi)
    assert list(folded[:7, 0]) == [s * a for s in signs]
    want = _fold_bits(_one_lane(coeffs), cid, phi)[1]
    assert np.array_equal(folded.view(np.int64), want)


def test_packed_fold_negative_zero_and_complex():
    cid, phi = _gauss_classes()
    rng = np.random.default_rng(5)
    values = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]
    shape = (9, len(cid))
    coeffs = rng.choice(values, size=shape) + 1j * rng.choice(values, size=shape)
    coeffs[0] = complex(-0.0, -0.0)
    coeffs[1].real = -0.0
    lanes, got = _fold_bits(_pack(coeffs), cid, phi)
    assert lanes > 1
    assert np.array_equal(got, _fold_bits(_one_lane(coeffs), cid, phi)[1])
    assert np.array_equal(got, loop_class_fold(coeffs, cid, phi).view(np.int64))
    real = coeffs.real.copy()
    lanes, got = _fold_bits(_pack(real), cid, phi)
    assert lanes > 1
    assert np.array_equal(got, _fold_bits(_one_lane(real), cid, phi)[1])


@pytest.mark.parametrize(
    "bad", [0.5, np.nan, np.inf, -np.inf, 2.0**26, 1e300, complex(1, 0.5), complex(0, np.nan)]
)
def test_packed_fold_falls_back_to_one_lane(bad):
    cid, phi = _gauss_classes()
    coeffs = np.random.default_rng(11).choice([-1.0, 1.0], size=(4, len(cid)))
    coeffs = coeffs + 0j if isinstance(bad, complex) else coeffs
    coeffs[2, 17] = bad
    pack = _pack(coeffs)
    assert pack.lanes == 1 and np.shares_memory(pack.parts[0], coeffs)
    want = loop_class_fold(coeffs, cid, phi)
    want = want if np.iscomplexobj(coeffs) else want.real
    assert np.array_equal(lab._fold_classes(pack, cid, phi).view(np.int64), want.view(np.int64))


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from(SUPPORTED_D),
    q_index=st.integers(0, 30),
    n_vec=st.integers(0, 12),
    scale=st.sampled_from([1, 30, 10**4, 10**6, 10**8]),
    is_complex=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_packed_fold_matches_one_lane_on_every_ring(d, q_index, n_vec, scale, is_complex, seed):
    ring = make_ring(d)
    qs = [q for q in canonical_classes(ring, 60) if q.norm() >= 2]
    m = Modulus(ring, qs[q_index % len(qs)])
    xs, ys, _ = element_arrays(d, 1, 400)
    cid = lab._coprime_index(m)[lab._rids(m, xs, ys)]
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(-scale, scale + 1, size=(n_vec, len(xs))).astype(np.float64)
    if is_complex:
        coeffs = coeffs + 1j * rng.integers(-scale, scale + 1, size=coeffs.shape)
    lanes, got = _fold_bits(_pack(coeffs), cid, m.phi)
    assert got.shape[0] == n_vec and (lanes > 1 or scale >= 10**4)
    assert np.array_equal(got, _fold_bits(_one_lane(coeffs), cid, m.phi)[1])


_PACK, _FOLD = lab._pack_lanes, lab._fold_classes


@contextmanager
def _spied_folds(one_lane):
    """(lanes, class sums) of each fold large_sieve_ratios makes, in modulus order.

    With one_lane every pack it asks for comes back as one lane.
    """
    folds = []

    def pack(coeffs, lanes, buf=None):
        return _one_lane(coeffs) if one_lane else _PACK(coeffs, lanes, buf)

    def fold(p, cid, phi):
        out = _FOLD(p, cid, phi)
        folds.append((p.lanes, out.copy()))  # the projection then works in place
        return out

    with mock.patch.object(lab, "_pack_lanes", pack), mock.patch.object(lab, "_fold_classes", fold):
        yield folds


def _packed_against_one_lane(coeffs, xs, ys, q1, q2, region):
    """Lanes of each packed fold, after checking rows and fold bits against one lane."""
    runs = []
    for one_lane in (False, True):
        with _spied_folds(one_lane) as folds:
            runs.append((large_sieve_ratios(coeffs, xs, ys, q1, q2, region), folds))
    (rows, folds), (want_rows, want_folds) = runs
    assert rows == want_rows
    assert len(folds) == len(want_folds) and {lanes for lanes, _ in want_folds} <= {1}
    for (_, got), (_, want) in zip(folds, want_folds):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    return [lanes for lanes, _ in folds]


@pytest.mark.parametrize("d", [-1, -3])
def test_large_sieve_packed_matches_one_lane(d):
    ring = make_ring(d)
    region = a0(ring, 8)
    xs, ys, _ = element_arrays(d, 1, region.hi_sq)
    rng = np.random.default_rng(-d)
    inputs = [
        rng.choice([-1.0, 1.0], size=len(xs)),
        rng.choice([-1.0, 1.0], size=(7, len(xs))),
        rng.integers(-5, 6, size=(4, len(xs))) + 1j * rng.integers(-5, 6, size=(4, len(xs))),
    ]
    for c in inputs:
        lanes = _packed_against_one_lane(c, xs, ys, 2, 40, region)
        assert lanes and min(lanes) > 1


def _class_counts(m, xs, ys):
    cid = lab._coprime_index(m)[lab._rids(m, xs, ys)]
    return np.bincount(cid[cid >= 0], minlength=m.phi)


def test_large_sieve_bench_moduli_take_more_lanes():
    # the bench's elements and signs: A = n gives 3 lanes for the whole matrix,
    # and each modulus takes the lanes its largest coprime class allows
    ring = make_ring(-1)
    region = a0(ring, 50)
    xs, ys, _ = element_arrays(-1, 1, region.hi_sq)
    n = len(xs)
    assert n == 7844 and 53 // (2 * n).bit_length() == 3
    coeffs = np.random.default_rng(7).choice([-1.0, 1.0], size=(8, n))
    lanes = _packed_against_one_lane(coeffs, xs, ys, 10, 20, region)
    moduli = [Modulus(ring, q) for q in canonical_classes(ring, 20) if 10 < q.norm()]
    moduli = [m for m in moduli if lab._has_primitive(m)]
    want = [53 // (2 * int(_class_counts(m, xs, ys).max())).bit_length() for m in moduli]
    assert lanes == want and min(want) > 3


@pytest.mark.parametrize("cmax,amax,lanes", [(7, 73, 5), (8, 64, 4), (15, 4369, 3), (16, 4096, 2)])
def test_large_sieve_class_sum_at_a_lane_width_step(cmax, amax, lanes):
    # q = 3 is the one Gaussian modulus of norm in (8.5, 9.5]; two of its
    # classes hold cmax elements each, so amax * cmax is the per-class bound,
    # half of A, and it sits on one side of a lane-width step; each vector's
    # two class sums are +-amax * cmax, the extreme digits
    ring = make_ring(-1)
    region = a0(ring, 12)
    m = Modulus(ring, ring.element(3, 0))
    all_xs, all_ys, _ = element_arrays(-1, 1, region.hi_sq)
    cid = lab._coprime_index(m)[lab._rids(m, all_xs, all_ys)]
    pick = np.concatenate([np.flatnonzero(cid == 0)[:cmax], np.flatnonzero(cid == 5)[:cmax]])
    xs, ys = all_xs[pick], all_ys[pick]
    assert _class_counts(m, xs, ys).max() == cmax
    signs = np.array([1, 1, 1, -1, -1, 1, -1, 1, 1, -1, -1, -1, 1], dtype=np.float64)
    coeffs = np.repeat(signs[:, None] * amax, 2 * cmax, axis=1)
    coeffs[:, cmax:] *= -1
    bound = amax * cmax
    assert lab._lanes_for(bound) == lanes and lab._lanes_for(bound - 1) > lab._lanes_for(bound + 1)
    with _spied_folds(False) as folds:
        large_sieve_ratios(coeffs, xs, ys, 8.5, 9.5, region)
    ((got_lanes, folded),) = folds
    assert got_lanes == lanes
    assert list(folded[:, 0]) == list(signs * amax * cmax)
    assert list(folded[:, 5]) == list(-signs * amax * cmax)
    assert _packed_against_one_lane(coeffs, xs, ys, 8.5, 9.5, region) == [lanes]


def test_large_sieve_huge_coefficient_leaves_the_lanes_to_a():
    # one coefficient 2^10 among signs: amax * cmax is above A on every
    # modulus, so the vector sum A, not the class bound, sets the lanes
    ring = make_ring(-1)
    region = a0(ring, 8)
    xs, ys, _ = element_arrays(-1, 1, region.hi_sq)
    coeffs = np.random.default_rng(3).choice([-1.0, 1.0], size=(9, len(xs)))
    coeffs[4, 17] = 2.0**10
    a = 2**10 + len(xs) - 1
    moduli = [Modulus(ring, q) for q in canonical_classes(ring, 40) if 2 < q.norm()]
    moduli = [m for m in moduli if lab._has_primitive(m)]
    assert all(2**10 * _class_counts(m, xs, ys).max() > a for m in moduli)
    lanes = _packed_against_one_lane(coeffs, xs, ys, 2, 40, region)
    assert lanes == [lab._lanes_for(a)] * len(moduli) and lab._lanes_for(a) == 4


@settings(max_examples=30, deadline=None)
@given(
    d=st.sampled_from(SUPPORTED_D),
    n=st.integers(2, 9),
    q1=st.integers(1, 20),
    width=st.integers(1, 30),
    n_vec=st.integers(0, 9),
    scale=st.sampled_from([1, 7, 300, 10**4, 10**6]),
    is_complex=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_large_sieve_packed_matches_one_lane_on_every_ring(
    d, n, q1, width, n_vec, scale, is_complex, seed
):
    ring = make_ring(d)
    region = a0(ring, n)
    xs, ys, _ = element_arrays(d, 1, region.hi_sq)
    rng = np.random.default_rng(seed)
    keep = rng.random(len(xs)) < 0.8
    xs, ys = xs[keep], ys[keep]
    coeffs = rng.integers(-scale, scale + 1, size=(n_vec, len(xs))).astype(np.float64)
    if is_complex:
        coeffs = coeffs + 1j * rng.integers(-scale, scale + 1, size=coeffs.shape)
    lanes = _packed_against_one_lane(coeffs, xs, ys, q1, q1 + width, region)
    a = lab._coeff_bounds(coeffs)[0]
    assert all(q >= lab._lanes_for(a) for q in lanes)


def test_large_sieve_checks_the_coefficient_shape(gauss):
    region = a0(gauss, 7)
    els = list(enumerate_region(region))
    assert len(els) == 148
    # no modulus of norm in (17, 18] has a primitive character, so nothing
    # reads the coefficients but sum |c|^2: 153 of them gave a silent rhs
    bad_shapes = [(1, 153), (153,), (2, 1, 148), (1, 147), ()]
    for bad in map(np.ones, bad_shapes):
        with pytest.raises(ValueError, match="does not match 148 elements"):
            large_sieve_ratios(bad, *_xy(els), 17, 18, region)
    with pytest.raises(ValueError, match="does not match 148 elements"):
        large_sieve_ratios(np.ones((3, 147)), *_xy(els), 4, 30, region)
    assert large_sieve_ratios(np.zeros((0, 148)), *_xy(els), 4, 30, region) == []


@pytest.mark.parametrize("d", [-1, -2, -3, -7, -163])
def test_large_sieve_matches_primitive_character_sums(d):
    # the projection onto the primitive characters against the characters
    # themselves; the two sum in different orders, so they agree to rounding
    ring = make_ring(d)
    region = a0(ring, 6)
    els = list(enumerate_region(region))
    rng = np.random.default_rng(-d)
    shape = (3, len(els))
    inputs = [
        rng.choice([-1.0, 1.0], size=shape),
        rng.normal(size=shape),
        rng.normal(size=shape) + 1j * rng.normal(size=shape),
        np.full(shape, 0.1),
    ]
    for weight in (None, [(2.0, 1.0), (10.0, 0.5), (40.0, 0.2)]):
        for mat in inputs:
            rows = large_sieve_ratios(mat, *_xy(els), 2, 40, region, weight)
            want = character_sum_lhs(mat, els, 2, 40, ring, weight)
            for (lhs, rhs, ratio), w in zip(rows, want):
                assert lhs >= 0
                assert lhs == pytest.approx(w, rel=1e-13, abs=0)
                assert ratio == pytest.approx(w / rhs, rel=1e-13, abs=0)


@pytest.mark.parametrize("d", [-1, -2, -3, -7, -11, -19, -43, -67, -163])
def test_primitive_count_matches_characters(d):
    ring = make_ring(d)
    for q in canonical_classes(ring, 60):
        if q.norm() >= 2:
            m = Modulus(ring, q)
            assert lab._has_primitive(m) == bool(primitive_characters(m))


@pytest.mark.parametrize("d,p", [(-1, 3), (-2, 5), (-7, 3)])
def test_large_sieve_norm_two_prime_once_adds_zero(d, p):
    # every modulus of norm 2p^2 is a norm-2 prime times the inert p: no
    # primitive character, so the window adds exactly nothing
    ring = make_ring(d)
    region = a0(ring, 6)
    els = list(enumerate_region(region))
    mat = np.random.default_rng(1).normal(size=(2, len(els)))
    nq = 2 * p * p
    moduli = [Modulus(ring, q) for q in canonical_classes(ring, nq) if q.norm() == nq]
    assert moduli and not any(primitive_characters(m) for m in moduli)
    assert [lhs for lhs, _, _ in large_sieve_ratios(mat, *_xy(els), nq - 1, nq, region)] == [0.0, 0.0]


def test_large_sieve_real_and_complex_input_agree(gauss):
    region = a0(gauss, 12)
    els = list(enumerate_region(region))
    mat = np.random.default_rng(5).choice([-1.0, 1.0], size=(6, len(els)))
    got = large_sieve_ratios(mat, *_xy(els), 4, 60, region)
    assert got == large_sieve_ratios(mat.astype(np.complex128), *_xy(els), 4, 60, region)


def test_mertens_examples(gauss):
    rep = mertens_sums(gauss, 3)
    assert rep.ideal_sum == pytest.approx(1.5)  # (1) and (1+i)
    rep2 = mertens_sums(gauss, 2)
    assert rep2.prime_sum == pytest.approx(0.5)  # only the ramified 1+i


def test_mertens_ratio_stability(gauss):
    ratios = [mertens_sums(gauss, 10**k).ideal_ratio for k in (2, 3, 4)]
    assert max(ratios) / min(ratios) < 2
    pratios = [mertens_sums(gauss, 10**k).prime_ratio for k in (2, 3, 4)]
    assert max(pratios) / min(pratios) < 2
