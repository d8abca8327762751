import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    LoopUnitGroup,
    chi_at,
    chi_of_rid,
    chi_phase,
    hnf_rid_xy,
    is_coprime,
    loop_unit_circle,
    phase_matrix,
    primitive_characters,
    residue,
    rid_of,
)
from quadlod.characters import Modulus, trivial_modulus
from quadlod.errors import ZeroOrUnitModulus
from quadlod.regions import canonical_classes
from quadlod.rings import SUPPORTED_D, divide_exact, gcd, make_ring


def unit_char_matrix(m):
    """Rows chi, columns unit residues; built from exact phases."""
    rows = []
    for chi in m.characters:
        rows.append([chi_of_rid(chi, r) for r in m.unit_rids])
    return np.array(rows, dtype=np.complex128)


def test_modulus_examples(gauss):
    m = Modulus(gauss, gauss.element(3, 0))
    assert m.norm == 9 and m.phi == 8
    assert m.unit_group[1] == (8,)  # (Z[i]/3)* is F_9*, cyclic

    m = Modulus(gauss, gauss.element(1, 1))
    assert m.norm == 2 and m.phi == 1

    m = Modulus(gauss, gauss.element(5, 0))
    assert m.phi == 16 and tuple(sorted(m.unit_group[1])) == (4, 4)


def test_modulus_rejects_units(gauss):
    with pytest.raises(ZeroOrUnitModulus):
        Modulus(gauss, gauss.element(1, 0))
    with pytest.raises(ZeroOrUnitModulus):
        Modulus(gauss, gauss.element(0, 1))


def test_modulus_canonicalizes_q(gauss):
    m = Modulus(gauss, gauss.element(0, 3))  # 3i, associate of 3
    assert m.q == gauss.element(3, 0)


def test_residue_system_complete(gauss):
    m = Modulus(gauss, gauss.element(2, 3))
    residues = [residue(m, r) for r in range(m.norm)]
    assert len(residues) == m.norm == 13
    # pairwise incongruent and reduction is idempotent
    seen = set()
    for r in residues:
        key = m.rid_coords(m.rid_xy(r.x, r.y))
        assert key == (r.x, r.y)
        seen.add(key)
    assert len(seen) == 13
    # reduction respects the ideal: x - reduce(x) is divisible by q
    from quadlod.rings import divide_exact

    z = gauss.element(17, -9)
    rx, ry = m.rid_coords(m.rid_xy(z.x, z.y))
    assert divide_exact(z - gauss.element(rx, ry), m.q) is not None


def _moduli_to_200(d):
    ring = make_ring(d)
    return [Modulus(ring, q) for q in canonical_classes(ring, 200) if q.norm() >= 2]


def test_hnf_c_is_one_and_above_one_both_occur():
    """rid_xy's c = 1 reduction and its general formula both run below norm 200.

    Over the nine rings, 793 of the 1299 canonical moduli of norm 2..200 have
    HNF c = 1 and 506 have c > 1.
    """
    cs = [m.hnf_c for d in SUPPORTED_D for m in _moduli_to_200(d)]
    assert (cs.count(1), len(cs) - cs.count(1)) == (793, 506)


COORD = st.integers(-(1 << 20), 1 << 20)


@pytest.mark.parametrize("d", SUPPORTED_D)
@settings(max_examples=10, deadline=None)
@given(points=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=40))
def test_rid_xy_matches_general_hnf_formula(d, points):
    """Equal values in [0, norm) on int64 arrays and on Python ints, negatives included."""
    xs, ys = zip(*points)
    ax, ay = np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)
    for m in _moduli_to_200(d):
        got = m.rid_xy(ax, ay)
        assert got.dtype == np.int64 and got.tolist() == hnf_rid_xy(m, ax, ay).tolist()
        assert 0 <= got.min() and got.max() < m.norm
        assert [m.rid_xy(x, y) for x, y in zip(xs, ys)] == got.tolist()
        assert [hnf_rid_xy(m, x, y) for x, y in zip(xs, ys)] == got.tolist()


@pytest.mark.parametrize("d", SUPPORTED_D)
def test_array_reduction_matches_scalar(d):
    ring = make_ring(d)
    rng = random.Random(d * 5)
    for q in ((7, 2), (6, 0), (3, -5)):
        m = Modulus(ring, ring.element(*q))
        xs = np.array([rng.randint(-500, 500) for _ in range(200)], dtype=np.int64)
        ys = np.array([rng.randint(-500, 500) for _ in range(200)], dtype=np.int64)
        want = [m.rid_xy(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
        assert m.rid_xy(xs, ys).tolist() == want
        rx, ry = m.rid_coords(m.rid_xy(xs, ys))
        for x, y, cx, cy in zip(xs.tolist(), ys.tolist(), rx.tolist(), ry.tolist()):
            assert (cx, cy) == m.rid_coords(m.rid_xy(x, y))
            assert divide_exact(ring.element(x - cx, y - cy), m.q) is not None
        # products of residues reduce like the products of their elements
        for r1, r2 in zip(want[:40], want[40:80]):
            prod = residue(m, r1) * residue(m, r2)
            assert m.mul_rid(r1, r2) == rid_of(m, prod)


def test_euler_phi_examples(gauss):
    assert Modulus(gauss, gauss.element(3, 0)).phi == 8
    q8 = gauss.element(1, 1) ** 3
    assert Modulus(gauss, q8).phi == 4
    for prime_el in (gauss.element(1, 1), gauss.element(2, 1), gauss.element(3, 0)):
        m = Modulus(gauss, prime_el)
        assert m.phi == m.norm - 1


def test_phi_by_product_formula(gauss, eisen):
    # independent oracle: norm(q) * prod over prime divisors (1 - 1/N(p))
    from quadlod.sieve import factor, sieve_primes

    for ring in (gauss, eisen):
        table = sieve_primes(ring, 500)
        for q in canonical_classes(ring, 60):
            if q.norm() < 2:
                continue
            m = Modulus(ring, q)
            expect = Fraction(m.norm)
            for p, _ in factor(q, table).factors:
                expect *= 1 - Fraction(1, p.norm())
            assert m.phi == expect


def test_character_counts(gauss):
    m = Modulus(gauss, gauss.element(3, 0))
    assert len(m.characters) == 8
    assert sum(1 for c in m.characters if c.is_principal) == 1
    m2 = Modulus(gauss, gauss.element(1, 1))
    assert len(m2.characters) == 1 and m2.characters[0].is_principal


@pytest.mark.parametrize(
    "d,coords",
    [(-1, (3, 0)), (-1, (2, 1)), (-1, (4, 1)), (-1, (1, 1)), (-3, (2, 0)), (-3, (3, 1)), (-3, (5, 0))],
)
def test_orthogonality_unitary(d, coords):
    ring = make_ring(d)
    m = Modulus(ring, ring.element(*coords))
    u = unit_char_matrix(m) / math.sqrt(m.phi)
    eye = np.eye(m.phi)
    assert np.max(np.abs(u @ u.conj().T - eye)) < 1e-9
    assert np.max(np.abs(u.conj().T @ u - eye)) < 1e-9


def test_multiplicativity(gauss):
    m = Modulus(gauss, gauss.element(4, 1))
    rng = random.Random(3)
    chars = m.characters
    units = m.unit_rids
    for _ in range(300):
        chi = chars[rng.randrange(len(chars))]
        ra, rb = rng.choice(units), rng.choice(units)
        prod = m.mul_rid(ra, rb)
        assert abs(
            chi_of_rid(chi, ra) * chi_of_rid(chi, rb) - chi_of_rid(chi, prod)
        ) < 1e-12


def test_characters_see_units(gauss):
    # chi(u*xi) = chi(u) * chi(xi): no unit invariance is imposed
    m = Modulus(gauss, gauss.element(3, 0))
    z = gauss.element(2, 1)
    i_unit = gauss.element(0, 1)
    for chi in m.characters:
        assert abs(chi_at(chi, i_unit * z) - chi_at(chi, i_unit) * chi_at(chi, z)) < 1e-12
    assert any(abs(chi_at(chi, i_unit) - 1) > 0.1 for chi in m.characters)


def test_zero_on_non_coprime(gauss):
    m = Modulus(gauss, gauss.element(3, 0))
    for chi in m.characters:
        assert chi_at(chi, gauss.element(3, 0)) == 0j
        assert chi_at(chi, gauss.element(6, 3)) == 0j


def test_conductor_principal_is_trivial(gauss):
    m = Modulus(gauss, gauss.element(3, 2))
    prin = [c for c in m.characters if c.is_principal][0]
    assert prin.conductor.norm == 1
    assert not prin.is_primitive


def test_conductor_lifted_character(gauss):
    # q = 3*(1+i): phi(q) = phi(3)*phi(1+i) = 8, so every character mod q
    # factors through (O_K/3)*; the non-principal ones have conductor 3
    q = gauss.element(3, 0) * gauss.element(1, 1)
    m = Modulus(gauss, q)
    assert m.phi == 8
    for chi in m.characters:
        cond = chi.conductor
        if chi.is_principal:
            assert cond.norm == 1
        else:
            assert cond.q == gauss.element(3, 0)
        assert not chi.is_primitive


def test_conductor_prime_modulus(gauss):
    m = Modulus(gauss, gauss.element(2, 1))
    for chi in m.characters:
        if chi.is_principal:
            assert chi.conductor.norm == 1
        else:
            assert chi.conductor.q == m.q
            assert chi.is_primitive


def test_primitive_counts(gauss):
    assert len(primitive_characters(Modulus(gauss, gauss.element(3, 0)))) == 7
    m9 = Modulus(gauss, gauss.element(9, 0))
    assert m9.phi == 72
    assert len(primitive_characters(m9)) == 72 - 8
    assert len(primitive_characters(Modulus(gauss, gauss.element(1, 1)))) == 0


def test_crt_consistency(gauss):
    # q = (1+i)^2 * (2+i): coprime factor moduli
    q1 = gauss.element(1, 1) ** 2
    q2 = gauss.element(2, 1)
    q = q1 * q2
    m, m1, m2 = (Modulus(gauss, z) for z in (q, q1, q2))
    assert m.phi == m1.phi * m2.phi
    assert len(m.characters) == len(m1.characters) * len(m2.characters)
    # mod-q characters are exactly the products of factor characters
    fingerprints = {
        tuple(chi_phase(chi, r) for r in m.unit_rids) for chi in m.characters
    }
    assert len(fingerprints) == m.phi  # distinct as functions
    products = set()
    for c1 in m1.characters:
        for c2 in m2.characters:
            products.add(
                tuple(
                    (chi_phase(c1, rid_of(m1, z)) + chi_phase(c2, rid_of(m2, z))) % 1
                    for z in (residue(m, r) for r in m.unit_rids)
                )
            )
    assert products == fingerprints


def test_dlog_inverts(gauss, eisen):
    for ring, coords in [(gauss, (5, 0)), (gauss, (1, 1)), (eisen, (4, 1)), (eisen, (6, 0))]:
        m = Modulus(ring, ring.element(*coords))
        gens, orders = m.unit_group
        assert math.prod(orders) == m.phi if orders else m.phi == 1
        for r in m.unit_rids:
            vec = m.dlog[r]
            acc = m.one_rid
            for g, a in zip(gens, vec):
                for _ in range(a):
                    acc = m.mul_rid(acc, g)
            assert acc == r
        # invariant-factor chain
        assert all(n2 <= n1 for n1, n2 in zip(orders, orders[1:]))


def test_trivial_modulus(gauss):
    t = trivial_modulus(gauss)
    assert t.norm == 1 and t.phi == 1
    assert len(t.characters) == 1 and t.characters[0].is_principal
    assert is_coprime(t, gauss.element(7, 3))


def test_coprime_matches_gcd(gauss):
    m = Modulus(gauss, gauss.element(3, 1))
    for z in canonical_classes(gauss, 40):
        assert is_coprime(m, z) == gcd(z, m.q).is_unit()


# -- the array unit group against the dict and Fraction loops ---------------

_MODULI = [
    (d, q.x, q.y)
    for d in SUPPORTED_D
    for q in canonical_classes(make_ring(d), 300)
    if q.norm() >= 2
]


def assert_matches_loop_reference(m):
    ref = LoopUnitGroup(m)
    assert m.unit_rids == ref.unit_rids
    assert m.unit_group == ref.unit_group
    assert [tuple(m.dlog[r]) for r in m.unit_rids] == [ref.dlog[r] for r in ref.unit_rids]
    phases = phase_matrix(m, m.characters)
    primitive = primitive_characters(m)
    for row, chi in zip(phases, m.characters):
        e = chi.exponents
        exact = [ref.phase_of_rid(e, r) for r in m.unit_rids]
        assert [chi_phase(chi, r) for r in m.unit_rids] == exact
        assert row.tolist() == [float(ph) for ph in exact]
        got = np.array([chi_of_rid(chi, r) for r in m.unit_rids], dtype=np.complex128)
        want = np.array([loop_unit_circle(ph) for ph in exact], dtype=np.complex128)
        assert (got.view(np.uint64) == want.view(np.uint64)).all()
        assert chi.is_primitive == ref.is_primitive(e) == (chi in primitive)
        assert chi.conductor.q == ref.conductor(e)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(_MODULI))
def test_unit_group_matches_loop_reference(modulus):
    d, x, y = modulus
    ring = make_ring(d)
    assert_matches_loop_reference(Modulus(ring, ring.element(x, y)))


@pytest.mark.parametrize("d", SUPPORTED_D)
def test_trivial_modulus_matches_loop_reference(d):
    assert_matches_loop_reference(trivial_modulus(make_ring(d)))
