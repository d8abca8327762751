"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the checklist; every
tolerance is pinned here, not configurable.
"""

import math
import random

import numpy as np
import pytest
import sympy

from quadlod.arith import convolve, tabulate
from quadlod.characters import Modulus
from quadlod.lab import (
    LodScanConfig,
    _fvals,
    convolution_experiment,
    large_sieve_ratios,
    mertens_sums,
    write_conv_csv,
)
from quadlod.regions import (
    a0,
    canonical_classes,
    density_ratio,
    element_arrays,
)
from quadlod.rings import SUPPORTED_D, AlgInt, gcd, make_ring
from quadlod.sieve import sieve_primes, splitting_type
from quadlod.arith import unit_fold_check
from conftest import random_int_fn
from _oracles import brute_common_divisor, cumsum_sweep_max, epsilon_sweep, phase_matrix
from quadlod.rings import divide_exact


def ok(num, label):
    print(f"criterion {num:02d} ({label}): PASS")


@pytest.fixture(scope="module")
def gauss_table_10k():
    return sieve_primes(make_ring(-1), 10_000)


@pytest.fixture(scope="module")
def conv_trend_run(tmp_path_factory):
    """Criterion 11 computation, reused byte-for-byte by criterion 12."""
    ring = make_ring(-1)
    bound = 400 * 400
    table = sieve_primes(ring, bound)
    pr = tabulate("prime_indicator", ring, bound, table)
    cfg = LodScanConfig(d=-1, theta=0.4, B=0.0, N_grid=(100, 200, 400))
    report = convolution_experiment(pr, pr, cfg, workers=1)
    path = tmp_path_factory.mktemp("accept") / "conv_w1.csv"
    write_conv_csv(report, path)
    return ring, pr, cfg, report, path.read_bytes()


def test_criterion_01_unit_groups():
    # exact, < 1 s
    for d in SUPPORTED_D:
        ring = make_ring(d)
        brute = sorted(
            (x, y)
            for x in range(-3, 4)
            for y in range(-3, 4)
            if AlgInt(ring, x, y).norm() == 1
        )
        assert sorted((u.x, u.y) for u in ring.units) == brute
        assert ring.w_K == len(brute)
        assert ring.w_K in (2, 4, 6)
        if d == -1:
            assert ring.w_K == 4
        elif d == -3:
            assert ring.w_K == 6
        else:
            assert ring.w_K == 2
    ok(1, "unit groups match w_K in {2,4,6}")


def test_criterion_02_point_count_asymptotic():
    # < 10 s total
    for d in SUPPORTED_D:
        ratio = density_ratio(make_ring(d), 300)
        assert 0.90 <= ratio <= 1.10, (d, ratio)
        if d in (-1, -2, -3, -7, -11):
            assert 0.97 <= ratio <= 1.03, (d, ratio)
    ok(2, "count(A0(300)) within Minkowski model bands, all nine rings")


def test_criterion_03_gcd_oracle_equivalence():
    # exact, < 2 min
    for d in SUPPORTED_D:
        ring = make_ring(d)
        rng = random.Random(10_000 + d)
        ymax = math.isqrt(4 * 10_000 // abs(ring.disc)) + 1
        checked = 0
        while checked < 10_000:
            a = AlgInt(ring, rng.randint(-100, 100), rng.randint(-ymax, ymax))
            b = AlgInt(ring, rng.randint(-100, 100), rng.randint(-ymax, ymax))
            if a.is_zero() or b.is_zero():
                continue
            if a.norm() > 10_000 or b.norm() > 10_000:
                continue
            assert gcd(a, b) == brute_common_divisor(ring, a, b)
            checked += 1
    ok(3, "lattice gcd == brute-force common divisor, 10^4 pairs x 9 rings")


def test_criterion_04_splitting_census(gauss_table_10k):
    # exact, < 1 min
    for d in SUPPORTED_D:
        ring = make_ring(d)
        for p in sympy.primerange(1001):
            if p == 2:
                expect = 0 if ring.disc % 2 == 0 else (
                    1 if ring.disc % 8 in (1, 7) else -1
                )
            else:
                expect = int(sympy.jacobi_symbol(ring.disc, p))
            got = splitting_type(ring, p)
            assert got == {1: "split", -1: "inert", 0: "ramified"}[expect], (d, p)
    # prime-class counts at norm <= 10^4 versus a trial-division oracle
    ring = make_ring(-1)
    classes = canonical_classes(ring, 10_000)
    by_norm = {}
    for c in classes:
        by_norm.setdefault(c.norm(), []).append(c)
    def oracle_prime(xi):
        n = xi.norm()
        for m in range(2, math.isqrt(n) + 1):
            if n % m:
                continue
            for cand in by_norm.get(m, ()):
                if divide_exact(xi, cand) is not None:
                    return False
        return n > 1
    brute_count = sum(1 for c in classes if oracle_prime(c))
    assert brute_count == len(gauss_table_10k)
    ok(4, "splitting law == Kronecker symbol; prime counts == trial division")


def test_criterion_05_character_orthogonality():
    # deviations <= 1e-9, < 2 min
    worst = 0.0
    for d in (-1, -3):
        ring = make_ring(d)
        for q in canonical_classes(ring, 500):
            if q.norm() < 2:
                continue
            m = Modulus(ring, q)
            u = np.exp(2j * np.pi * phase_matrix(m, m.characters)) / math.sqrt(m.phi)
            eye = np.eye(m.phi)
            worst = max(worst, float(np.max(np.abs(u @ u.conj().T - eye))))
            worst = max(worst, float(np.max(np.abs(u.conj().T @ u - eye))))
    assert worst <= 1e-9, worst
    ok(5, f"orthogonality, both relations, norm(q)<=500, d=-1,-3 (worst {worst:.2e})")


def test_criterion_06_mobius_and_von_mangoldt(gauss_table_10k):
    # exact / <= 1e-9 on norms <= 10^4, < 30 s
    ring = make_ring(-1)
    bound = 10_000
    one = tabulate("one", ring, bound, gauss_table_10k)
    mu = tabulate("moebius", ring, bound, gauss_table_10k)
    delta = convolve(mu, one)
    for coords, v in delta.values.items():
        assert v == (1 if coords == (1, 0) else 0)
    f = random_int_fn(ring, bound, seed=6)
    back = convolve(convolve(f, one), mu)
    assert all(back.values[k] == f.values[k] for k in f.values)
    ln = tabulate("log_norm", ring, bound, gauss_table_10k)
    lam = tabulate("lambda", ring, bound, gauss_table_10k)
    conv = convolve(mu, ln)
    worst = max(abs(conv.values[k] - lam.values[k]) for k in lam.values)
    assert worst <= 1e-9, worst
    ok(6, f"Mobius inversion exact; mu*log == Lambda (worst {worst:.2e})")


def test_criterion_07_unit_folding():
    # exact (integer-valued random complex f), < 30 s
    for d in SUPPORTED_D:
        ring = make_ring(d)
        rng = random.Random(700 + d)
        for k in range(20):
            n = rng.randint(2, 50)
            f = random_int_fn(ring, n * n, seed=rng.randrange(2**30), lo=-99, hi=99)
            element_sum, folded = unit_fold_check(f, n)
            assert element_sum == folded, (d, k, n)
    ok(7, "element sum == w_K x class sum, 20 random f per ring, exact")


def test_criterion_08_sweep_exactness():
    # exact agreement, < 1 min
    ring = make_ring(-1)
    xs, ys, norms = element_arrays(-1, 1, 400)
    moduli = [q for q in canonical_classes(ring, 50) if q.norm() >= 2]
    for seed in range(10):
        f = random_int_fn(ring, 400, seed=800 + seed)
        fv = _fvals(f, xs, ys)
        for q in moduli:
            m = Modulus(ring, q)
            got = epsilon_sweep(f, 20, m).max_abs
            expect = cumsum_sweep_max(m, xs, ys, norms, fv)
            assert got == expect, (seed, q)
    ok(8, "epsilon_sweep == brute-force max, q<=50, N<=20, 10 random f")


def test_criterion_09_large_sieve_ratio():
    # ratio <= 10 for each of 100 seeded sign vectors, < 2 min
    ring = make_ring(-1)
    region = a0(ring, 50)
    xs, ys, _ = element_arrays(-1, 1, region.hi_sq)
    rng = np.random.default_rng(2025)
    mat = rng.choice([-1.0, 1.0], size=(100, len(xs)))
    results = large_sieve_ratios(mat, xs, ys, 10, 100, region)
    worst = max(r for _, _, r in results)
    assert all(ratio <= 10 for _, _, ratio in results), worst
    ok(9, f"large-sieve lhs/rhs <= 10 on 100 sign vectors (max {worst:.3f})")


def test_criterion_10_mertens_shape():
    # within a factor 2 of fixed constants, < 1 min
    ring = make_ring(-1)
    ideal_c = math.pi / 4  # Dedekind zeta residue for Q(i): 2*pi/(w_K*sqrt|D|)
    prime_c = 1.0
    for r in (100, 1000, 10_000):
        rep = mertens_sums(ring, r)
        assert ideal_c / 2 <= rep.ideal_ratio <= 2 * ideal_c, (r, rep.ideal_ratio)
        assert prime_c / 2 <= rep.prime_ratio <= 2 * prime_c, (r, rep.prime_ratio)
    ok(10, "ideal_sum/log R and prime_sum/loglog R stable within factor 2")


def test_criterion_11_convolution_trend(conv_trend_run):
    # runtime target < 10 min at these sizes
    _, _, _, report, _ = conv_trend_run
    for key in ("E_f_norm", "E_g_norm", "E_conv_norm"):
        series = [row[key] for row in report.rows]
        assert all(a > b for a, b in zip(series, series[1:])), (key, series)
        assert report.decaying[key]
    ok(11, "normalized E(N,Q) strictly decreasing for f, g, f*g on {100,200,400}")


def test_criterion_12_worker_determinism(conv_trend_run, tmp_path):
    ring, pr, cfg, _, bytes_w1 = conv_trend_run
    report4 = convolution_experiment(pr, pr, cfg, workers=4)
    path = tmp_path / "conv_w4.csv"
    write_conv_csv(report4, path)
    assert path.read_bytes() == bytes_w1
    ok(12, "workers {1,4} produce byte-identical CSV")
