import math

import pytest

from quadlod.arith import (
    ArithFn,
    convolve,
    load_csv,
    save_csv,
    tabulate,
    unit_fold_check,
)
from quadlod.errors import RingMismatch, TableTooSmall
from quadlod.regions import a0, enumerate_region
from quadlod.rings import canonical_associate, make_ring
from quadlod.sieve import sieve_primes
from conftest import random_float_fn, random_int_fn
from _oracles import as_dict_fn, loop_dirichlet_series, loop_weighted_log_sum


def dirichlet_series(f, s, trunc_norm):
    return loop_dirichlet_series(as_dict_fn(f), s, trunc_norm)


def weighted_log_sum(f, n, k):
    return loop_weighted_log_sum(as_dict_fn(f), n, k)


def value_at(values, z):
    """A function's value at z: its value at z's canonical associate."""
    c = canonical_associate(z)
    return values[(c.x, c.y)]


def test_moebius_examples(gauss, gauss_table_2k):
    mu = tabulate("moebius", gauss, 100, gauss_table_2k).values
    assert mu[(1, 0)] == 1
    assert mu[(1, 1)] == -1
    z = gauss.element(1, 1) ** 2
    assert value_at(mu, z) == 0
    # squarefree with two classes: 6 = unit * (1+i)^2 * 3 is not squarefree
    assert value_at(mu, gauss.element(6, 0)) == 0
    assert value_at(mu, gauss.element(3, 0)) == -1


def test_tau_example(gauss, gauss_table_2k):
    tau = tabulate("tau", gauss, 100, gauss_table_2k)
    assert tau.values[(2, 0)] == 3  # divisors (1), (1+i), (2)
    assert tau.values[(1, 0)] == 1
    assert tau.values[(3, 0)] == 2


def test_prime_indicator_example(gauss, gauss_table_2k):
    pr = tabulate("prime", gauss, 100, gauss_table_2k)
    assert pr.values[(3, 0)] == 1
    assert pr.values[(1, 0)] == 0
    assert pr.values[(2, 0)] == 0
    assert pr.values[(1, 1)] == 1


def test_tabulate_requires_covering_table(gauss):
    small = sieve_primes(gauss, 10)
    with pytest.raises(TableTooSmall):
        tabulate("moebius", gauss, 100, small)


def test_unit_invariance_by_construction(gauss, gauss_table_2k):
    f = tabulate("tau", gauss, 200, gauss_table_2k).values
    z = gauss.element(3, 2)
    for u in gauss.units:
        assert value_at(f, u * z) == value_at(f, z)


def test_mobius_inversion_exact(gauss, gauss_table_2k):
    one = tabulate("one", gauss, 400, gauss_table_2k)
    mu = tabulate("moebius", gauss, 400, gauss_table_2k)
    conv = convolve(mu, one)
    for coords, v in conv.values.items():
        assert v == (1 if coords == (1, 0) else 0)
    # g = f*1  =>  f = g*mu, exactly, for integer-valued f
    f = random_int_fn(gauss, 400, seed=5)
    g = convolve(f, one)
    got, want = convolve(g, mu).values, f.values
    assert all(got[k] == want[k] for k in want)


def test_one_star_one_is_tau(gauss, gauss_table_2k):
    one = tabulate("one", gauss, 500, gauss_table_2k)
    tau = tabulate("tau", gauss, 500, gauss_table_2k)
    got, want = convolve(one, one).values, tau.values
    assert all(got[k] == want[k] for k in want)


def test_mu_star_log_is_lambda(gauss, gauss_table_2k):
    mu = tabulate("moebius", gauss, 500, gauss_table_2k)
    ln = tabulate("log_norm", gauss, 500, gauss_table_2k)
    lam = tabulate("lambda", gauss, 500, gauss_table_2k)
    got, want = convolve(mu, ln).values, lam.values
    worst = max(abs(got[k] - want[k]) for k in want)
    assert worst <= 1e-9


def test_convolve_ring_mismatch(gauss, eisen, gauss_table_2k):
    one1 = tabulate("one", gauss, 50, gauss_table_2k)
    one3 = tabulate("one", eisen, 50, sieve_primes(eisen, 50))
    with pytest.raises(RingMismatch):
        convolve(one1, one3)


def test_convolution_algebra(gauss):
    bound = 300
    f = random_float_fn(gauss, bound, 1)
    g = random_float_fn(gauss, bound, 2)
    h = random_float_fn(gauss, bound, 3)

    def worst(a, b):
        a, b = a.values, b.values
        return max(abs(a[k] - b[k]) for k in a)

    assert worst(convolve(convolve(f, g), h), convolve(f, convolve(g, h))) <= 1e-9
    fg = convolve(f, g)
    assert worst(fg, convolve(g, f)) <= 1e-9
    lhs = convolve(f, ArithFn(gauss, bound, g.vals + h.vals, "g+h"))
    rhs = ArithFn(gauss, bound, fg.vals + convolve(f, h).vals, "fg+fh")
    assert worst(lhs, rhs) <= 1e-9


def test_dirichlet_series_zeta_value(gauss):
    # zeta_K(2) = zeta(2) * L(2, chi_-4) = (pi^2/6) * Catalan
    table = sieve_primes(gauss, 100_000)
    one = tabulate("one", gauss, 100_000, table)
    got = dirichlet_series(one, 2, 100_000)
    catalan = 0.915965594177219015054603514932
    target = (math.pi**2 / 6) * catalan
    assert abs(got.real - target) < 1e-3
    assert abs(got.imag) < 1e-12


def test_dirichlet_series_trivia(gauss, gauss_table_2k):
    one = tabulate("one", gauss, 100, gauss_table_2k)
    assert dirichlet_series(one, 2, 1) == 1
    mu = tabulate("moebius", gauss, 100, gauss_table_2k)
    conv = convolve(mu, one)
    assert dirichlet_series(conv, 1.7 + 0.3j, 100) == 1


def test_series_homomorphism(gauss):
    bound = 10_000
    table = sieve_primes(gauss, bound)
    one = tabulate("one", gauss, bound, table)
    mu = tabulate("moebius", gauss, bound, table)
    for f, g in ((one, one), (mu, one)):
        conv = convolve(f, g)
        lhs = dirichlet_series(conv, 3, bound)
        rhs = dirichlet_series(f, 3, bound) * dirichlet_series(g, 3, bound)
        assert abs(lhs - rhs) < 1e-2


def test_weighted_log_sum_examples(gauss, gauss_table_2k):
    one = tabulate("one", gauss, 500, gauss_table_2k)
    got = weighted_log_sum(one, 2, 1)
    # 12 elements of A0(2): 4 of norm 1, 4 of norm 2, 4 of norm 4
    expect = 4 * math.log(4) + 4 * math.log(2) + 4 * math.log(1)
    assert got == pytest.approx(expect)
    assert got.real >= 0
    assert weighted_log_sum(one, 1, 3) == 0  # log(1) = 0 on the unit shell

    pr = tabulate("prime", gauss, 500, gauss_table_2k)
    got = weighted_log_sum(pr, 10, 2)
    brute = 0.0
    prime = pr.values
    for xi in enumerate_region(a0(gauss, 10)):
        if value_at(prime, xi):
            brute += math.log(100 / xi.norm()) ** 2
    assert got == pytest.approx(brute, rel=1e-12)


def test_unit_fold_examples(gauss, eisen, gauss_table_2k):
    one = tabulate("one", gauss, 500, gauss_table_2k)
    el, folded = unit_fold_check(one, 5)
    assert (el, folded) == (80, 80)  # 80 elements, 4 * 20 classes

    one3 = tabulate("one", eisen, 10, sieve_primes(eisen, 10))
    assert unit_fold_check(one3, 1) == (6, 6)


@pytest.mark.parametrize("d", [-1, -2, -3, -163])
def test_unit_fold_exact_for_integer_f(d):
    ring = make_ring(d)
    f = random_int_fn(ring, 400, seed=d)
    el, folded = unit_fold_check(f, 20)
    assert el == folded  # integer-valued sums are exact in doubles


def test_unit_fold_float_tolerance(gauss):
    f = random_float_fn(gauss, 400, 9)
    el, folded = unit_fold_check(f, 20)
    assert abs(el - folded) <= 1e-12 * max(1.0, abs(el))


def test_csv_round_trip(tmp_path, gauss, gauss_table_2k):
    f = random_float_fn(gauss, 60, 4)
    path = tmp_path / "fn.csv"
    save_csv(f, path)
    g = load_csv(path)
    assert g.ring.d == f.ring.d and g.norm_bound == f.norm_bound
    assert g.values == f.values
