"""The dense class-indexed tables against the dict-based loops they replaced.

Equality is on float64 bit patterns, so it is bit for bit, signed zeros
included; the complex-valued draws catch a fused multiply-add in the product.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from quadlod import arith, lab, regions
from quadlod.arith import (
    BUILTIN_NAMES,
    ArithFn,
    _logs,
    _prime_chains,
    convolve,
    load_csv,
    save_csv,
    tabulate,
    unit_fold_check,
)
from quadlod.errors import CorruptFile, QlodError, TableTooSmall
from quadlod.regions import (
    a0, canonical_classes, class_arrays, class_index, class_products, element_arrays,
)
from quadlod.rings import SUPPORTED_D, make_ring
from quadlod.sieve import FactorSieve, sieve_primes
from _oracles import (
    UniqueFactorSieve,
    as_dict_fn,
    csv_writer_save,
    full_walk_prime_chains,
    loop_class_products,
    loop_convolve,
    loop_fvals,
    loop_tabulate,
    loop_unit_fold_check,
    searchsorted_class_index,
)
from test_sweep import COMPLEX_VALUES, INTEGER_VALUES, LOG_VALUES

FLOATS = st.floats(-2.0, 2.0)
VALUES = {
    "integer": st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)),
    "real": st.builds(complex, FLOATS, st.just(0.0)),
    "complex": st.builds(complex, FLOATS, FLOATS),
}
SOME_ZEROS = st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0)])


def bits(vals) -> list[int]:
    return np.asarray(vals, dtype=np.complex128).view(np.uint64).tolist()


def dict_vals(fn) -> list[complex]:
    """A DictFn's values in class order."""
    xs, ys, _ = class_arrays(fn.ring, fn.norm_bound)
    return [fn.values[key] for key in zip(xs.tolist(), ys.tolist())]


def draw_fn(data, ring, bound, label):
    n = len(class_arrays(ring, bound)[0])
    kind = data.draw(st.sampled_from(sorted(VALUES)), label=f"{label} kind")
    values = st.one_of(SOME_ZEROS, VALUES[kind])
    vals = data.draw(st.lists(values, min_size=n, max_size=n), label=label)
    return ArithFn(ring, bound, vals, label)


@pytest.mark.parametrize("d", SUPPORTED_D)
def test_builtin_tables_match_loop(monkeypatch, d):
    monkeypatch.setattr(regions, "_PAIR_CHUNK", 997)  # the factor sieve spans many chunks
    ring = make_ring(d)
    table = sieve_primes(ring, 2000)
    for name in BUILTIN_NAMES:
        got = tabulate(name, ring, 2000, table)
        assert bits(got.vals) == bits(dict_vals(loop_tabulate(name, ring, 2000, table)))


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from(SUPPORTED_D), bound=st.integers(0, 300))
def test_builtin_tables_match_loop_at_any_bound(d, bound):
    ring = make_ring(d)
    table = sieve_primes(ring, max(bound, 2))
    for name in BUILTIN_NAMES:
        got = tabulate(name, ring, bound, table)
        assert bits(got.vals) == bits(dict_vals(loop_tabulate(name, ring, bound, table)))


def test_logs_are_math_log():
    # with AVX-512, np.log differs from math.log at 9170 and 19143
    norms = np.arange(1, 20_001)
    assert bits(_logs(norms[::-1])) == bits([math.log(n) for n in range(20_000, 0, -1)])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_convolve_matches_loop(data):
    ring = make_ring(data.draw(st.sampled_from(SUPPORTED_D), label="d"))
    fb = data.draw(st.integers(1, 250), label="f bound")
    gb = data.draw(st.integers(1, 250), label="g bound")
    f, g = draw_fn(data, ring, fb, "f"), draw_fn(data, ring, gb, "g")
    got = convolve(f, g)
    want = loop_convolve(as_dict_fn(f), as_dict_fn(g))
    assert got.norm_bound == want.norm_bound == min(fb, gb)
    assert bits(got.vals) == bits(dict_vals(want))


@pytest.mark.parametrize(("d", "f", "g"), [(-1, "moebius", "log"), (-3, "tau", "lambda"),
                                           (-7, "prime", "moebius")])
def test_convolve_builtins_match_loop_across_chunks(monkeypatch, d, f, g):
    monkeypatch.setattr(regions, "_PAIR_CHUNK", 97)
    ring = make_ring(d)
    table = sieve_primes(ring, 1500)
    fn, gn = tabulate(f, ring, 1500, table), tabulate(g, ring, 1500, table)
    want = loop_convolve(as_dict_fn(fn), as_dict_fn(gn))
    assert bits(convolve(fn, gn).vals) == bits(dict_vals(want))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_readers_match_loops(data):
    ring = make_ring(data.draw(st.sampled_from(SUPPORTED_D), label="d"))
    n = data.draw(st.floats(1.0, 14.0), label="N")
    bound = a0(ring, n).hi_sq + data.draw(st.integers(0, 30), label="slack")
    f = draw_fn(data, ring, bound, "f")
    df = as_dict_fn(f)

    xs, ys, _ = element_arrays(ring.d, 1, bound)
    assert bits(lab._fvals(f, xs, ys)) == bits(loop_fvals(df, xs, ys))
    assert bits(unit_fold_check(f, n)) == bits(loop_unit_fold_check(df, n))


def test_values_view(gauss, gauss_table_2k):
    mu = tabulate("moebius", gauss, 50, gauss_table_2k)
    assert len(mu.values) == len(canonical_classes(gauss, 50))
    assert list(mu.values)[:3] == [(1, 0), (1, 1), (2, 0)]
    assert (1, 1) in mu.values and (-1, 1) not in mu.values and (0, 0) not in mu.values
    assert (7, 7) not in mu.values  # norm 98 is beyond the table
    assert dict(mu.values.items()) == {k: mu.values[k] for k in mu.values}
    with pytest.raises(TableTooSmall):
        mu(gauss.element(7, 7))


def test_arith_fn_checks_length(gauss):
    with pytest.raises(ValueError, match="one per class"):
        ArithFn(gauss, 50, np.zeros(3), "short")


def test_class_index(all_rings):
    for ring in all_rings:
        xs, ys, _ = element_arrays(ring.d, 1, 300)
        idx = class_index(ring, 300, xs, ys)
        cxs, cys, _ = class_arrays(ring, 300)
        for x, y, i in zip(xs.tolist(), ys.tolist(), idx.tolist()):
            c = ring.element(x, y).canonical()
            assert (c.x, c.y) == (cxs[i], cys[i])
        with pytest.raises(TableTooSmall):
            class_index(ring, 300, [0], [0])
        with pytest.raises(TableTooSmall):
            class_index(ring, 3, xs, ys)
        # int64 norms of these wrap into 1..300
        for x, y in ((2**32, 1), (1, 2**32), (-(2**32), 1)):
            with pytest.raises(TableTooSmall):
                class_index(ring, 300, [x], [y])


def _lookup_or_none(lookup, *args):
    try:
        return lookup(*args)
    except TableTooSmall:
        return None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_class_index_matches_searchsorted(data):
    d = data.draw(st.sampled_from(SUPPORTED_D), label="d")
    max_norm = data.draw(st.integers(-2, 3000), label="max_norm")
    ring = make_ring(d)
    # points of norm 1..max_norm, then at most one of: norm max_norm or
    # max_norm + 1, zero, the coordinate box's margin, or a far point within
    # the oracle's 2^26
    inside, rim, beyond = (
        list(zip(*(a.tolist() for a in element_arrays(d, lo, hi)[:2])))
        for lo, hi in ((1, max_norm), (max_norm, max_norm), (max_norm + 1, max_norm + 1))
    )
    r = 2 * math.isqrt(max(max_norm, 0)) + 3
    edge = [st.just((0, 0)), st.tuples(st.integers(-r, r), st.integers(-r, r)),
            st.tuples(st.integers(-(2**26), 2**26), st.integers(-(2**26), 2**26))]
    edge += [st.sampled_from(group) for group in (rim, beyond) if group]
    pts = data.draw(st.lists(st.sampled_from(inside), max_size=6) if inside else st.just([]))
    pts += data.draw(st.lists(st.one_of(edge), max_size=1))
    xs, ys = [x for x, _ in pts], [y for _, y in pts]
    want = _lookup_or_none(searchsorted_class_index, ring, max_norm, xs, ys)
    got = _lookup_or_none(class_index, ring, max_norm, xs, ys)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.tolist() == want.tolist()


def assert_products_match_loop(ring, bound, left, right, chunk):
    chunks = list(class_products(ring, bound, left, right))
    got = [t for i, j, k in chunks for t in zip(i.tolist(), j.tolist(), k.tolist())]
    assert got == loop_class_products(ring, bound, left.tolist(), right.tolist())
    assert [len(k) for *_, k in chunks[:-1]] == [chunk] * (len(chunks) - 1)
    assert all(len(k) for *_, k in chunks)


@pytest.mark.parametrize("chunk", [1, 2, 5, 1 << 20])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_class_products_matches_pair_loop(monkeypatch, chunk, data):
    monkeypatch.setattr(regions, "_PAIR_CHUNK", chunk)
    ring = make_ring(data.draw(st.sampled_from(SUPPORTED_D), label="d"))
    bound = data.draw(st.integers(0, 120), label="bound")
    n = len(class_arrays(ring, bound)[0])
    subset = st.lists(st.booleans(), min_size=n, max_size=n).map(np.flatnonzero)
    left, right = data.draw(subset, label="left"), data.draw(subset, label="right")
    assert_products_match_loop(ring, bound, left, right, chunk)


@pytest.mark.parametrize("chunk", [1, 2, 5, 1 << 20])
@pytest.mark.parametrize("d", SUPPORTED_D)
def test_class_products_edges(monkeypatch, chunk, d):
    """Empty sides, and left indices with no partner (a suffix of left) after a chunk edge."""
    monkeypatch.setattr(regions, "_PAIR_CHUNK", chunk)
    ring, bound = make_ring(d), 60
    norms = class_arrays(ring, bound)[2]
    every, none = np.arange(len(norms)), np.arange(0)
    far = np.flatnonzero(norms > bound // 2)  # no partner of norm >= 2
    for left, right in ((none, every), (every, none), (none, none), (every, every[1:]),
                        (far, every[1:]), (every, far)):
        assert_products_match_loop(ring, bound, left, right, chunk)


def assert_sieve_matches_old_walks(ring, bound):
    """FactorSieve and _prime_chains equal the np.unique sieve and full walk, bit for bit."""
    table = sieve_primes(ring, max(bound, 2))
    got, want = FactorSieve(table, bound), UniqueFactorSieve(table, bound)
    pairs = [(got.spf, want.spf), (got.cof, want.cof),
             *zip(_prime_chains(got), full_walk_prime_chains(want))]
    for a, b in pairs:
        assert a.dtype == b.dtype and a.tolist() == b.tolist()
    return got


@pytest.mark.parametrize("chunk", [1, 1 << 14])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(d=st.sampled_from(SUPPORTED_D), bound=st.integers(0, 3000))
@example(d=-1, bound=0)
@example(d=-3, bound=1)
@example(d=-163, bound=3000)
def test_factor_sieve_and_chains_match_old_walks(monkeypatch, chunk, d, bound):
    monkeypatch.setattr(regions, "_PAIR_CHUNK", chunk)
    assert_sieve_matches_old_walks(make_ring(d), bound)


@pytest.mark.parametrize("chunk", [1, 1 << 14])
def test_deepest_chain(monkeypatch, gauss, chunk):
    """(1 + i)^11, of norm 2048: the deepest chain to 3000 on d = -1, 11 steps of 1 + i."""
    monkeypatch.setattr(regions, "_PAIR_CHUNK", chunk)
    sieve = assert_sieve_matches_old_walks(gauss, 3000)
    power = gauss.element(1, 1) ** 11
    top = c = class_index(gauss, 3000, [power.x], [power.y])[0]
    chain = []
    while sieve.spf[c] >= 0:
        chain.append(sieve.spf[c])
        c = sieve.cof[c]
    assert chain == [class_index(gauss, 3000, [1], [1])[0]] * 11
    distinct, tau, last = _prime_chains(sieve)
    assert (distinct[top], tau[top], last[top]) == (1, 12, chain[0])


# -- function files ------------------------------------------------------------


@pytest.fixture(scope="module")
def mu_file(tmp_path_factory):
    ring = make_ring(-1)
    path = tmp_path_factory.mktemp("fn") / "mu.csv"
    save_csv(tabulate("moebius", ring, 30, sieve_primes(ring, 30)), path, "# config: {}\n")
    return path


def test_load_csv_skips_config_lines_and_reads_old_files(mu_file, tmp_path):
    lines = mu_file.read_text().splitlines(keepends=True)
    assert lines[0] == "# config: {}\n" and lines[1].startswith("# d=-1 ")
    old = tmp_path / "old.csv"
    old.write_text("".join(lines[1:]))
    for path in (mu_file, old):
        f = load_csv(path)
        assert (f.ring.d, f.norm_bound, f.name) == (-1, 30, "moebius")
        assert f.values[(1, 1)] == -1


def _edit(lines, i, new):
    return lines[:i] + ([new] if new is not None else []) + lines[i + 1:]


@pytest.mark.parametrize(
    "edit,needle",
    [
        (lambda ls: _edit(ls, 1, None), "no '# d=' line"),
        (lambda ls: _edit(ls, 1, "# d=-5 norm_bound=30 name=x\r\n"), "d=-5"),
        (lambda ls: _edit(ls, 1, "# d=-1 norm_bound=3x name=x\r\n"), "3x"),
        (lambda ls: _edit(ls, 2, "x,y,re,im\r\n"), "column header"),
        (lambda ls: _edit(ls, 4, "1,1,2,-1.0\r\n"), "data row 2: got ['1', '1', '2', '-1.0']"),
        (lambda ls: _edit(ls, 4, "1,1,2,abc,0.0\r\n"), "data row 2: could not convert"),
        (lambda ls: _edit(ls, 4, "-1,1,2,-1.0,0.0\r\n"), "data row 2: got ['-1', "),
        (lambda ls: _edit(ls, 4, "1,1,3,-1.0,0.0\r\n"), "expected (x, y, norm) = (1, 1, 2)"),
        (lambda ls: ls + ["6,0,36,0.0,0.0\r\n"], "expected (x, y, norm) = None"),
        (lambda ls: ls[:5] + [ls[4]] + ls[5:], "data row 3: got ['1', '1', '2', "),
        (lambda ls: _edit(ls, 4, None), "data row 2: got ['2', '0', '4', "),
        (lambda ls: ls[:-1], "got None, expected (x, y, norm) = "),
    ],
)
def test_load_csv_rejects_corrupt_files(mu_file, tmp_path, edit, needle):
    lines = mu_file.read_bytes().decode().splitlines(keepends=True)
    bad = tmp_path / "bad.csv"
    bad.write_bytes("".join(edit(lines)).encode())
    with pytest.raises(CorruptFile) as exc:
        load_csv(bad)
    assert needle in str(exc.value)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_load_csv_fuzz(mu_file, tmp_path_factory, data):
    """Truncated or byte-flipped function files load cleanly or raise a QlodError."""
    raw = bytearray(mu_file.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        flips = st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255))
        for pos, mask in data.draw(st.lists(flips, min_size=1, max_size=4), label="flips"):
            raw[pos] ^= mask
    path = tmp_path_factory.getbasetemp() / "fuzzed.csv"
    path.write_bytes(bytes(raw))
    try:
        load_csv(path)
    except QlodError:
        pass


FLOAT_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, 1e-300]
FILE_VALUES = st.one_of(
    INTEGER_VALUES, LOG_VALUES, COMPLEX_VALUES,
    st.builds(complex, st.sampled_from(FLOAT_EDGES), st.sampled_from(FLOAT_EDGES)),
)


def assert_writes_like_csv_writer(f, config_line, tmp_path, capsys):
    """save_csv gives csv.writer's bytes, to a file and to stdout."""
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    save_csv(f, got, config_line)
    csv_writer_save(f, want, config_line)
    assert got.read_bytes() == want.read_bytes()
    capsys.readouterr()
    save_csv(f, None, config_line)
    out = capsys.readouterr().out
    csv_writer_save(f, None, config_line)
    assert out == capsys.readouterr().out
    assert out.encode() == want.read_bytes()


@pytest.mark.parametrize("chunk", [1, 3, 1 << 20])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_save_csv_matches_csv_writer(monkeypatch, tmp_path, capsys, chunk, data):
    monkeypatch.setattr(arith, "_CSV_CHUNK", chunk)
    ring = make_ring(data.draw(st.sampled_from(SUPPORTED_D), label="d"))
    bound = data.draw(st.integers(0, 150), label="bound")
    n = len(class_arrays(ring, bound)[0])
    vals = data.draw(st.lists(FILE_VALUES, min_size=n, max_size=n), label="vals")
    config_line = data.draw(st.sampled_from(["", "# config: {}\n"]), label="config")
    assert_writes_like_csv_writer(ArithFn(ring, bound, vals, "drawn"), config_line,
                                  tmp_path, capsys)


def test_save_csv_matches_csv_writer_above_a_chunk(tmp_path, capsys):
    ring = make_ring(-1)
    table = sieve_primes(ring, 20_000)
    f = convolve(tabulate("moebius", ring, 20_000, table), tabulate("log", ring, 20_000, table))
    assert len(f.vals) > arith._CSV_CHUNK
    assert_writes_like_csv_writer(f, "# config: {}\n", tmp_path, capsys)


def test_save_load_round_trip_is_bitwise(tmp_path):
    ring = make_ring(-1)
    n = len(class_arrays(ring, 20_000)[0])
    assert n > arith._CSV_CHUNK
    rng = np.random.default_rng(12)
    parts = rng.standard_normal(2 * n) * 10.0 ** rng.integers(-325, 300, 2 * n)
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
             1e300, -1e-300]
    parts[::7] = np.resize(edges, len(parts[::7]))
    vals = parts.view(np.complex128)
    path = tmp_path / "f.csv"
    save_csv(ArithFn(ring, 20_000, vals, "edges"), path)
    assert load_csv(path).vals.view(np.int64).tolist() == vals.view(np.int64).tolist()
