import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlod.errors import BothZero, RingMismatch, UnsupportedRing, ZeroElement
from quadlod.rings import (
    SUPPORTED_D,
    AlgInt,
    _lattice_2basis,
    canonical_associate,
    divide_exact,
    gcd,
    lagrange_gauss,
    make_ring,
    mul_xy,
    norm_xy,
)
from _oracles import brute_common_divisor, embedding, omega_complex, oracle_norm


def test_supported_list():
    assert SUPPORTED_D == (-1, -2, -3, -7, -11, -19, -43, -67, -163)


@pytest.mark.parametrize("d", SUPPORTED_D)
def test_units_match_brute_force(d):
    ring = make_ring(d)
    brute = sorted(
        (x, y)
        for x in range(-3, 4)
        for y in range(-3, 4)
        if AlgInt(ring, x, y).norm() == 1
    )
    assert brute == sorted((u.x, u.y) for u in ring.units)
    assert len(ring.units) == ring.w_K


def test_w_k_values():
    assert make_ring(-1).w_K == 4
    assert make_ring(-3).w_K == 6
    for d in (-2, -7, -11, -19, -43, -67, -163):
        assert make_ring(d).w_K == 2


def test_discriminant_convention():
    assert make_ring(-1).disc == -4
    assert make_ring(-2).disc == -8
    assert make_ring(-3).disc == -3
    assert make_ring(-163).disc == -163


@pytest.mark.parametrize("d", SUPPORTED_D)
def test_zeta0_generates_roots_of_unity(d):
    ring = make_ring(d)
    z = ring.zeta0
    powers = [z**k for k in range(ring.w_K)]
    assert len({(p.x, p.y) for p in powers}) == ring.w_K
    assert z ** ring.w_K == ring.one()
    for k in range(1, ring.w_K):
        assert z**k != ring.one()


@pytest.mark.parametrize("bad", [-5, 5, 0, -4, -6, -15, -164])
def test_unsupported_ring(bad):
    with pytest.raises(UnsupportedRing):
        make_ring(bad)


def test_norm_examples():
    assert make_ring(-1).element(2, 1).norm() == 5
    assert make_ring(-3).element(0, 1).norm() == 1
    assert make_ring(-7).element(0, 1).norm() == 2


def test_mul_examples():
    r1 = make_ring(-1)
    assert r1.element(1, 1) * r1.element(1, -1) == r1.element(2, 0)
    r3 = make_ring(-3)
    w = r3.omega()
    assert w * w == w - r3.one()  # minimal polynomial x^2 - x + 1
    assert r1.element(2, 1).conj() == r1.element(2, -1)


_COORD = st.integers(-10_000, 10_000)


@settings(max_examples=200, deadline=None)
@given(
    d=st.sampled_from(SUPPORTED_D),
    coords=st.lists(st.tuples(_COORD, _COORD, _COORD, _COORD), min_size=1, max_size=8),
)
def test_kernel_matches_oracle_and_embedding(d, coords):
    ring = make_ring(d)
    w = omega_complex(ring)
    assert abs(w * w - (ring.t * w + ring.n)) < 1e-9
    for a, b, c, e in coords:
        assert norm_xy(ring, a, b) == oracle_norm(d, a, b)
        px, py = mul_xy(ring, a, b, c, e)
        want = (a + b * w) * (c + e * w)
        assert abs(px + py * w - want) <= 1e-12 * abs(want) + 1e-9
        conj = embedding(AlgInt(ring, a, b).conj())
        assert abs(conj - (a + b * w).conjugate()) <= 1e-12 * abs(conj) + 1e-9
    # int64 arrays give exactly the scalar results
    xa, ya, xb, yb = (np.array(col, dtype=np.int64) for col in zip(*coords))
    assert norm_xy(ring, xa, ya).tolist() == [norm_xy(ring, a, b) for a, b, _, _ in coords]
    px, py = mul_xy(ring, xa, ya, xb, yb)
    assert list(zip(px.tolist(), py.tolist())) == [mul_xy(ring, *t) for t in coords]


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        make_ring(-1).element(1, 0) * make_ring(-2).element(1, 0)


@pytest.mark.parametrize("d", SUPPORTED_D)
def test_norm_multiplicative(d):
    ring = make_ring(d)
    rng = random.Random(d)
    for _ in range(10_000):
        a = AlgInt(ring, rng.randint(-50, 50), rng.randint(-50, 50))
        b = AlgInt(ring, rng.randint(-50, 50), rng.randint(-50, 50))
        assert (a * b).norm() == a.norm() * b.norm()


def test_norm_is_self_times_conj():
    for d in SUPPORTED_D:
        ring = make_ring(d)
        z = ring.element(3, 2)
        prod = z * z.conj()
        assert prod == ring.element(z.norm(), 0)


def test_canonical_examples():
    r1 = make_ring(-1)
    assert canonical_associate(r1.element(-1, 2)) == r1.element(2, 1)
    assert canonical_associate(r1.element(7, 0)) == r1.element(7, 0)
    r3 = make_ring(-3)
    # -omega is a unit; its class representative is 1 (argument 0)
    assert canonical_associate(r3.element(0, -1)) == r3.one()


def test_canonical_zero_raises():
    with pytest.raises(ZeroElement):
        canonical_associate(make_ring(-1).element(0, 0))


@pytest.mark.parametrize("d", SUPPORTED_D)
def test_canonical_class_partition(d):
    ring = make_ring(d)
    rng = random.Random(d * 31)
    for _ in range(200):
        z = AlgInt(ring, rng.randint(-20, 20), rng.randint(-20, 20))
        if z.is_zero():
            continue
        associates = {(u * z).x * 10**9 + (u * z).y for u in ring.units}
        assert len(associates) == ring.w_K
        reps = {canonical_associate(u * z) for u in ring.units}
        assert len(reps) == 1
        rep = reps.pop()
        assert canonical_associate(rep) == rep  # idempotent
        # the representative's embedding argument lies in [0, 2*pi/w_K)
        arg = math.atan2(embedding(rep).imag, embedding(rep).real)
        assert -1e-12 <= arg < 2 * math.pi / ring.w_K + 1e-12


def test_divide_exact():
    r1 = make_ring(-1)
    assert divide_exact(r1.element(2, 0), r1.element(1, 1)) == r1.element(1, -1)
    assert divide_exact(r1.element(3, 0), r1.element(1, 1)) is None
    with pytest.raises(ZeroElement):
        divide_exact(r1.element(1, 0), r1.element(0, 0))


def test_gcd_examples():
    r1 = make_ring(-1)
    assert gcd(r1.element(5, 0), r1.element(3, 1)) == r1.element(1, 2)
    assert gcd(r1.element(2, 0), r1.element(1, 1)) == r1.element(1, 1)


def test_gcd_contract():
    r1 = make_ring(-1)
    rng = random.Random(11)
    for _ in range(300):
        a = AlgInt(r1, rng.randint(-60, 60), rng.randint(-60, 60))
        b = AlgInt(r1, rng.randint(-60, 60), rng.randint(-60, 60))
        if a.is_zero() and b.is_zero():
            continue
        g = gcd(a, b)
        if not a.is_zero():
            assert divide_exact(a, g) is not None
        if not b.is_zero():
            assert divide_exact(b, g) is not None
        if not a.is_zero():
            assert gcd(g, a) == g
    z = r1.element(-1, 2)
    assert gcd(z, r1.element(0, 0)) == canonical_associate(z)
    with pytest.raises(BothZero):
        gcd(r1.element(0, 0), r1.element(0, 0))


def test_gcd_non_euclidean_vs_brute_force():
    ring = make_ring(-19)
    rng = random.Random(19)
    for _ in range(100):
        a = AlgInt(ring, rng.randint(-15, 15), rng.randint(-15, 15))
        b = AlgInt(ring, rng.randint(-15, 15), rng.randint(-15, 15))
        if a.is_zero() or b.is_zero():
            continue
        assert gcd(a, b) == brute_common_divisor(ring, a, b)


@pytest.mark.parametrize("d", [-1, -3, -19, -163])
def test_lagrange_gauss_minimality(d):
    ring = make_ring(d)
    rng = random.Random(d * 7)
    for _ in range(60):
        u = (rng.randint(-9, 9), rng.randint(-9, 9))
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        if u[0] * v[1] - u[1] * v[0] == 0:
            continue
        first, second = lagrange_gauss(ring, u, v)
        got = norm_xy(ring, *first)
        assert norm_xy(ring, *second) >= got
        best = min(
            norm_xy(ring, i * u[0] + j * v[0], i * u[1] + j * v[1])
            for i in range(-25, 26)
            for j in range(-25, 26)
            if (i, j) != (0, 0)
        )
        assert got == best


def test_lattice_basis_determinant():
    ring = make_ring(-7)
    z = ring.element(3, 2)
    zw = z * ring.omega()
    basis = _lattice_2basis([(z.x, z.y), (zw.x, zw.y)])
    (a, zero), (_, c) = basis
    assert zero == 0
    assert abs(a * c) == z.norm()  # ideal lattice index equals the norm
