import dataclasses
import math
import random
import re
import struct
import time
from collections import Counter

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlod import regions, sieve
from quadlod.arith import BUILTIN_NAMES, tabulate
from quadlod.characters import Modulus
from quadlod.cli import main
from quadlod.errors import (
    BoundsTooLarge,
    CorruptFile,
    FormatVersionMismatch,
    QlodError,
    RingMismatch,
)
from quadlod.regions import DEFAULT_GUARD, canonical_classes, class_arrays
from quadlod.rings import SUPPORTED_D, AlgInt, canonical_associate, make_ring
from quadlod.sieve import (
    FactorSieve,
    cache_inspect,
    cache_load,
    cache_save,
    factor,
    kronecker_disc,
    prime_divisors,
    sieve_primes,
    solve_norm_equation,
    splitting_type,
)
from _oracles import (
    as_prime_table,
    brute_is_prime,
    brute_norm_solutions,
    loop_primes_over,
    loop_sieve_primes,
    loop_solve_norm_equation,
    loop_tabulate,
    primes_of,
    reconstruct,
    table_factor,
)


def classes_by_norm(ring, bound):
    by_norm = {}
    for c in canonical_classes(ring, bound):
        by_norm.setdefault(c.norm(), []).append((c.x, c.y))
    return by_norm


def test_prime_divisors():
    for n in range(1, 3000):
        assert prime_divisors(n) == sympy.primefactors(n)


def same_table(table, loop_table):
    assert [(p.x, p.y) for p in primes_of(table)] == [(p.x, p.y) for p in loop_table.primes]
    assert table.split_types == loop_table.split_types
    assert len(table) == len(loop_table)
    assert table.norms.tolist() == [p.norm() for p in loop_table.primes]


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from(SUPPORTED_D), max_norm=st.integers(0, 5000))
def test_sieve_matches_norm_equation_loop(d, max_norm):
    ring = make_ring(d)
    same_table(sieve_primes(ring, max_norm), loop_sieve_primes(ring, max_norm))


@pytest.mark.parametrize("d", SUPPORTED_D)
@pytest.mark.parametrize("max_norm", [-1, 0, 1, 2, 3, 4])  # 2 ramified in Z[i], inert in Z[omega]
def test_sieve_edge_bounds_match_loop(d, max_norm):
    ring = make_ring(d)
    same_table(sieve_primes(ring, max_norm), loop_sieve_primes(ring, max_norm))


@pytest.mark.parametrize("d", [-1, -3])
def test_sieve_matches_loop_at_paper_scale(d):
    ring = make_ring(d)
    same_table(sieve_primes(ring, 160_000), loop_sieve_primes(ring, 160_000))


@pytest.mark.parametrize("d", SUPPORTED_D)
def test_primes_over_matches_loop(d):
    # the primes above each p, as factor reads them, against the norm-equation loop
    ring = make_ring(d)
    for p in sympy.primerange(200):
        loop = loop_primes_over(ring, [p], p * p)
        want = [(pi.norm(), pi.x, pi.y, sieve._SPLIT_CODE[t])
                for pi, t in zip(loop.primes, loop.split_types)]
        assert list(sieve._primes_above(ring, p)) == want


def test_primes_over_solves_each_norm_equation_once(monkeypatch):
    # factor memoizes the primes above p per ring and p
    ps = [2, 3, 5, 7, 11, 13]
    rings = [make_ring(d) for d in (-1, -7)]
    elements = [AlgInt(ring, x, 0) for ring in rings for x in (2 * 3 * 5, 7 * 11, 13, 6)]
    want_fms = [table_factor(z, sieve_primes(z.ring, z.norm())) for z in elements]
    sieve._primes_above.cache_clear()
    calls = []
    solve = sieve.solve_norm_equation
    monkeypatch.setattr(
        sieve, "solve_norm_equation", lambda ring, m: calls.append((ring.d, m)) or solve(ring, m)
    )
    for _ in range(3):
        assert [factor(z) for z in elements] == want_fms
    want = [(r.d, p) for r in rings for p in ps if splitting_type(r, p) != "inert"]
    assert sorted(calls) == sorted(want)


@pytest.mark.parametrize("d", SUPPORTED_D)
def test_readers_of_the_table_unchanged(d):
    """The factor sieve and the six builtins read the array table as the loops did."""
    ring = make_ring(d)
    loop_table = loop_sieve_primes(ring, 2000)
    table, old = sieve_primes(ring, 2000), as_prime_table(loop_table)
    for bound in (2000, 1997, 1681):  # 1997 is prime, 1681 = 41^2
        a, b = FactorSieve(table, bound), FactorSieve(old, bound)
        assert a.spf.tolist() == b.spf.tolist() and a.cof.tolist() == b.cof.tolist()
        xs, ys, _ = class_arrays(ring, bound)
        for name in BUILTIN_NAMES:
            want = loop_tabulate(name, ring, bound, loop_table).values
            want = np.array([want[c] for c in zip(xs.tolist(), ys.tolist())], np.complex128)
            got = tabulate(name, ring, bound, table).vals
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_sieve_above_the_guard_raises_at_once(gauss, capsys):
    start = time.perf_counter()
    with pytest.raises(BoundsTooLarge):
        sieve_primes(gauss, DEFAULT_GUARD + 1)
    assert main(["sieve", "--d", "-1", "--max-norm", str(DEFAULT_GUARD + 1)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert time.perf_counter() - start < 2.0


def test_modulus_factorization_leaves_the_class_caches_alone(gauss):
    # a per-modulus class table would evict the run's main tables
    def cache_state():
        return [c.cache_info() for c in (regions.class_arrays, regions._element_arrays_cached)]

    moduli = [Modulus(gauss, gauss.element(*q)) for q in [(12, 1), (7, 0), (100, 3), (2, 2)]]
    before = cache_state()
    factorizations = [m.factorization for m in moduli]
    assert cache_state() == before
    for m, fm in zip(moduli, factorizations):
        assert fm == table_factor(m.q, sieve_primes(gauss, m.norm))


def test_factor_by_norm(gauss):
    fm = factor(gauss.element(1000, 7))
    assert (fm.unit.x, fm.unit.y) == (0, -1)
    assert [((p.x, p.y), e) for p, e in fm.factors] == [((8, 17), 1), ((48, 23), 1)]
    with pytest.raises(BoundsTooLarge):
        factor(gauss.element(5000, 0))


def test_gauss_table_norm_histogram(gauss):
    table = sieve_primes(gauss, 25)
    hist = Counter(p.norm() for p in primes_of(table))
    assert len(table) == 8
    assert dict(hist) == {2: 1, 5: 2, 9: 1, 13: 2, 17: 2}
    assert not any((p.x, p.y) == (5, 0) for p in primes_of(table))
    assert any((p.x, p.y) == (2, 1) for p in primes_of(table))


def test_eisenstein_small_table(eisen):
    table = sieve_primes(eisen, 9)
    entries = [(p.norm(), s) for p, s in zip(primes_of(table), table.split_types)]
    assert entries == [(3, "ramified"), (4, "inert"), (7, "split"), (7, "split")]


def test_split_pairs_are_conjugate_non_associate(gauss):
    table = sieve_primes(gauss, 200)
    by_norm = {}
    for p, s in zip(primes_of(table), table.split_types):
        if s == "split":
            by_norm.setdefault(p.norm(), []).append(p)
    for n, pair in by_norm.items():
        assert len(pair) == 2
        a, b = pair
        assert canonical_associate(a.conj()) == b or canonical_associate(b.conj()) == a
        assert a != b


@pytest.mark.parametrize("d", SUPPORTED_D)
def test_splitting_matches_kronecker_oracle(d):
    ring = make_ring(d)
    for p in sympy.primerange(201):
        if p == 2:
            if ring.disc % 2 == 0:
                sym = 0
            else:
                sym = 1 if ring.disc % 8 in (1, 7) else -1
        else:
            sym = int(sympy.jacobi_symbol(ring.disc, p))
        assert kronecker_disc(ring, p) == sym


@pytest.mark.parametrize("d", SUPPORTED_D)
def test_prime_norm_codes_follow_each_primes_splitting(d):
    # the codes read (D_K / p) once per residue mod |D_K|; check every p
    ring = make_ring(d)
    codes = sieve._prime_norm_codes(ring, 5000)
    want = np.full(5001, -1)
    for p in sympy.primerange(5001):
        kind = splitting_type(ring, p)
        if kind != "inert":
            want[p] = {"split": 0, "ramified": 2}[kind]
        elif p * p <= 5000:
            want[p * p] = 1
    assert codes.tolist() == want.tolist()


@pytest.mark.parametrize("d", SUPPORTED_D)
def test_table_invariants(d):
    ring = make_ring(d)
    table = sieve_primes(ring, 300)
    for p, s in zip(primes_of(table), table.split_types):
        n = p.norm()
        if s == "inert":
            r = math.isqrt(n)
            assert r * r == n and splitting_type(ring, r) == "inert"
        else:
            assert sympy.isprime(n)
            assert splitting_type(ring, n) == s
    keys = [(p.norm(), p.x, p.y) for p in primes_of(table)]
    assert keys == sorted(keys)


def test_prime_counts_vs_trial_division(gauss):
    bound = 2000
    table = sieve_primes(gauss, bound)
    classes = canonical_classes(gauss, bound)
    by_norm = classes_by_norm(gauss, bound)
    brute = [
        c for c in classes if c.norm() >= 2 and brute_is_prime(gauss, c, by_norm)
    ]
    assert len(brute) == len(table)
    assert {(p.x, p.y) for p in primes_of(table)} == {(c.x, c.y) for c in brute}


@pytest.mark.parametrize("d", SUPPORTED_D)
def test_solve_norm_equation_matches_brute_force(d):
    ring = make_ring(d)
    for m in range(1, 121):
        got = [(z.x, z.y) for z in solve_norm_equation(ring, m)]
        assert got == brute_norm_solutions(ring, m)


@pytest.mark.parametrize("d", SUPPORTED_D)
def test_solve_norm_equation_matches_discriminant_solve(d):
    # the row-interval ends against the per-row discriminant solve it replaced
    ring = make_ring(d)
    for m in range(1, 3001):
        got = solve_norm_equation(ring, m)
        assert [(z.x, z.y) for z in got] == [(z.x, z.y) for z in loop_solve_norm_equation(ring, m)]


def test_split_solutions_exist(gauss, eisen):
    # class number one: every split or ramified prime has a norm-p generator
    for ring in (gauss, eisen, make_ring(-163)):
        for p in sympy.primerange(151):
            if splitting_type(ring, p) != "inert":
                assert brute_norm_solutions(ring, p)


def test_is_prime_examples(gauss):
    by_norm = classes_by_norm(gauss, 9)

    def is_prime(xi):
        return brute_is_prime(gauss, xi, by_norm)

    assert is_prime(gauss.element(1, 1))
    assert is_prime(gauss.element(3, 0))
    assert not is_prime(gauss.element(2, 0))
    assert is_prime(gauss.element(0, 3))  # associate of inert 3


def test_factor_examples(gauss):
    fm = factor(gauss.element(6, 0))
    assert (fm.unit.x, fm.unit.y) == (0, -1)
    assert [((p.x, p.y), e) for p, e in fm.factors] == [((1, 1), 2), ((3, 0), 1)]
    assert reconstruct(fm) == gauss.element(6, 0)

    fm = factor(gauss.element(1, 1))
    assert fm.unit == gauss.one()
    assert [((p.x, p.y), e) for p, e in fm.factors] == [((1, 1), 1)]

    fm = factor(gauss.element(1, 0))
    assert fm.unit == gauss.one() and fm.factors == []


@pytest.mark.parametrize("d", [-1, -3, -43])
def test_factor_soundness_random(d):
    ring = make_ring(d)
    rng = random.Random(d)
    checked = 0
    primes = set()
    while checked < 1000:
        z = AlgInt(ring, rng.randint(-40, 40), rng.randint(-40, 40))
        if z.is_zero() or z.norm() > 10_000:
            continue
        fm = factor(z)
        assert reconstruct(fm) == z
        assert fm.unit.is_unit()
        for p, e in fm.factors:
            assert e >= 1
            primes.add(p)
        checked += 1
    by_norm = classes_by_norm(ring, 10_000)
    assert all(brute_is_prime(ring, p, by_norm) for p in primes)


@pytest.mark.parametrize("d", SUPPORTED_D)
def test_factor_over_primes_of_the_norm(d):
    # the primes above p | N(xi) factor xi like trial division by the full table
    ring = make_ring(d)
    table = sieve_primes(ring, 2000)
    for z in canonical_classes(ring, 2000):
        assert factor(z) == table_factor(z, table)


def test_von_mangoldt_examples(gauss, gauss_table_2k):
    values = tabulate("lambda", gauss, 2000, gauss_table_2k).values

    def von_mangoldt(z):
        c = canonical_associate(z)
        return values[(c.x, c.y)]

    z = gauss.element(1, 1) ** 3
    assert von_mangoldt(z) == pytest.approx(math.log(2))
    assert von_mangoldt(gauss.element(6, 0)) == 0.0
    assert von_mangoldt(gauss.element(3, 0)) == pytest.approx(math.log(9))
    assert von_mangoldt(gauss.one()) == 0.0


def test_cache_round_trip(tmp_path, gauss):
    table = sieve_primes(gauss, 10_000)
    path = tmp_path / "primes.qlod"
    cache_save(table, path)
    loaded = cache_load(gauss, path)
    assert (loaded.ring.d, loaded.max_norm) == (table.ring.d, table.max_norm)
    for name in ("xs", "ys", "codes"):
        assert np.array_equal(getattr(loaded, name), getattr(table, name))
    info = cache_inspect(path)
    assert info["d"] == -1 and info["max_norm"] == 10_000
    assert info["count"] == len(table)


def test_cache_save_that_cannot_pack_leaves_no_file(tmp_path, gauss):
    table = dataclasses.replace(sieve_primes(gauss, 10), max_norm=-1)  # not a u64
    path = tmp_path / "primes.qlod"
    with pytest.raises(struct.error):
        cache_save(table, path)
    assert not path.exists()


def test_cache_bad_magic(tmp_path, gauss):
    path = tmp_path / "bad.qlod"
    table = sieve_primes(gauss, 100)
    cache_save(table, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatVersionMismatch):
        cache_load(gauss, path)


def test_cache_ring_mismatch(tmp_path):
    table = sieve_primes(make_ring(-2), 100)
    path = tmp_path / "d2.qlod"
    cache_save(table, path)
    with pytest.raises(RingMismatch):
        cache_load(make_ring(-1), path)


def test_cache_unknown_split_code(tmp_path, gauss):
    path = tmp_path / "bad_split.qlod"
    cache_save(sieve_primes(gauss, 100), path)
    raw = bytearray(path.read_bytes())
    raw[-1] = 9  # the last record's split code
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatVersionMismatch, match="split code 9"):
        cache_load(gauss, path)


@pytest.fixture(scope="module")
def cache_dir_and_bytes(tmp_path_factory):
    cdir = tmp_path_factory.mktemp("cache")
    cache_save(sieve_primes(make_ring(-1), 100), cdir / "gauss100.qlod")
    return cdir, (cdir / "gauss100.qlod").read_bytes()


def write_record(raw, i, x=None, y=None, code=None):
    # a 32-byte "<4sIqQQ" header, then 17-byte "<qqB" records
    at = 32 + 17 * (i % ((len(raw) - 32) // 17))
    if x is not None:
        raw[at : at + 8] = int(x).to_bytes(8, "little", signed=True)
    if y is not None:
        raw[at + 8 : at + 16] = int(y).to_bytes(8, "little", signed=True)
    if code is not None:
        raw[at + 16] = code


@pytest.mark.parametrize(
    "edit, needle",
    [
        # (-7, 1) has norm 50: not canonical and not prime
        (lambda raw: write_record(raw, 0, x=-7), "record 1 is not a canonical associate"),
        (lambda raw: write_record(raw, 0, x=-1), "record 1 is not a canonical associate"),
        (lambda raw: write_record(raw, 0, x=3), "record 1 is not prime"),
        (lambda raw: write_record(raw, 0, x=0, y=0), "record 1 is not prime"),
        (lambda raw: write_record(raw, -1, x=10, y=1), "has norm above 100"),
        (lambda raw: write_record(raw, 3, x=1 << 62), "record 4 has norm above 100"),
        (lambda raw: write_record(raw, 3, x=-(1 << 63)), "record 4 has norm above 100"),
        (lambda raw: write_record(raw, 0, code=0), "split code that disagrees"),
        (lambda raw: write_record(raw, 4, code=2), "record 5 has a split code"),
        # records 2 and 3 are (1, 2) and (2, 1), of norm 5
        (lambda raw: write_record(raw, 1, x=2, y=1), "record 3 is out of (norm, x, y) order"),
        (lambda raw: (write_record(raw, 1, x=2, y=1), write_record(raw, 2, x=1, y=2)),
         "record 3 is out of (norm, x, y) order"),
    ],
)
def test_cache_load_rejects_bad_records(tmp_path, gauss, edit, needle):
    path = tmp_path / "bad_record.qlod"
    cache_save(sieve_primes(gauss, 100), path)
    raw = bytearray(path.read_bytes())
    edit(raw)
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptFile, match=re.escape(needle)):
        cache_load(gauss, path)


def _edited_gauss100(tmp_path, gauss, edit):
    path = tmp_path / "edited.qlod"
    cache_save(sieve_primes(gauss, 100), path)
    raw = bytearray(path.read_bytes())
    path.write_bytes(bytes(edit(raw)))
    return path


def test_cache_load_rejects_a_raised_bound(tmp_path, gauss):
    # 25 primes of norm <= 100 must not load as the table to norm 10000
    def edit(raw):
        raw[16:24] = (10_000).to_bytes(8, "little")
        return raw

    path = _edited_gauss100(tmp_path, gauss, edit)
    with pytest.raises(CorruptFile, match="25 records for 1232 prime classes"):
        cache_load(gauss, path)


def test_cache_load_rejects_a_lowered_count(tmp_path, gauss):
    def edit(raw):
        raw[24:32] = (int.from_bytes(raw[24:32], "little") - 3).to_bytes(8, "little")
        return raw

    path = _edited_gauss100(tmp_path, gauss, edit)
    with pytest.raises(CorruptFile, match="record bytes"):
        cache_load(gauss, path)


def test_cache_load_rejects_trailing_bytes(tmp_path, gauss):
    path = _edited_gauss100(tmp_path, gauss, lambda raw: raw + b"junk")
    with pytest.raises(CorruptFile, match="record bytes"):
        cache_load(gauss, path)


def test_cache_load_rejects_a_bound_above_the_guard(tmp_path, gauss):
    path = tmp_path / "big.qlod"
    cache_save(sieve_primes(gauss, 100), path)
    raw = bytearray(path.read_bytes())
    raw[16:24] = (DEFAULT_GUARD + 1).to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptFile, match="exceeds guard"):
        cache_load(gauss, path)


def test_cache_save_bytes(tmp_path, eisen):
    path = tmp_path / "eisen.qlod"
    table = sieve_primes(eisen, 50)
    cache_save(table, path)
    want = struct.pack("<4sIqQQ", b"QLOD", 1, -3, 50, len(table))
    for p, s in zip(primes_of(table), table.split_types):
        want += struct.pack("<qqB", p.x, p.y, {"split": 0, "inert": 1, "ramified": 2}[s])
    assert path.read_bytes() == want


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cache_load_fuzz(cache_dir_and_bytes, data):
    """Truncated or bit-flipped caches raise a QlodError or load a sound table:
    canonical primes of norm <= max_norm with their split types, in order."""
    cdir, saved = cache_dir_and_bytes
    raw = bytearray(saved)
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        flips = st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255))
        for pos, mask in data.draw(st.lists(flips, min_size=1, max_size=4), label="flips"):
            raw[pos] ^= mask
    path = cdir / "fuzzed.qlod"
    path.write_bytes(bytes(raw))
    try:
        table = cache_load(make_ring(-1), path)
    except QlodError:
        return
    assert len(primes_of(table)) == len(table.split_types)
    keys = [(p.norm(), p.x, p.y) for p in primes_of(table)]
    assert keys == sorted(set(keys))
    for p, s in zip(primes_of(table), table.split_types):
        n = p.norm()
        assert canonical_associate(p) == p and n <= table.max_norm
        r = n if sympy.isprime(n) else math.isqrt(n)
        assert sympy.isprime(r) and (r == n or (r * r == n and s == "inert"))
        assert splitting_type(p.ring, r) == s
