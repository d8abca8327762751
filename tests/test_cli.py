import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadlod
from quadlod import lab
from quadlod.cli import RunConfig, default_cache_dir, main
from quadlod.regions import a0, count_region
from quadlod.rings import make_ring


def run_cli(*argv, stdout=subprocess.PIPE, env=None):
    """The CLI in a fresh interpreter, so stdout is a real file descriptor."""
    src = os.path.dirname(os.path.dirname(quadlod.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **(env or {}), "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "quadlod.cli", *argv], stdout=stdout, env=env, check=True
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_example(capsys):
    code, out, _ = run(capsys, "count", "--d", "-1", "--N", "5")
    assert code == 0
    assert out.strip() == "80"


def test_unsupported_ring_usage_error(capsys):
    code, _, err = run(capsys, "ring-info", "--d", "-5")
    assert code == 2
    assert "-163" in err  # the message lists the nine supported values


def test_ring_info(capsys):
    code, out, _ = run(capsys, "ring-info", "--d", "-3")
    assert code == 0
    payload = json.loads(out.splitlines()[-1])
    assert payload["w_K"] == 6 and payload["disc"] == -3


def test_enumerate_and_density(capsys, tmp_path):
    out_file = tmp_path / "els.csv"
    code, _, _ = run(
        capsys, "enumerate", "--d", "-1", "--N", "2", "--out", str(out_file)
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert "x,y,norm" in lines[2]
    assert len(lines) == 3 + 12  # config, bounds comment, header, 12 elements

    code, out, _ = run(capsys, "density", "--d", "-1", "--N", "5")
    assert code == 0
    assert abs(float(out.strip()) - 1.0186) < 1e-3


def test_sieve_and_factor(capsys):
    code, out, _ = run(capsys, "sieve", "--d", "-1", "--max-norm", "25")
    assert code == 0
    assert "1,1,2,ramified" in out
    code, out, _ = run(capsys, "factor", "--d", "-1", "--x", "6", "--y", "0")
    assert code == 0
    assert out.strip() == "unit=(0,-1) * (1,1)^2 * (3,0)^1"
    # ramified and split, inert and ramified, a ramified power, a unit
    for argv, want in [
        (["--d", "-7", "--x", "14"], "unit=(1,0) * (-1,1)^1 * (0,1)^1 * (-1,2)^2"),
        (["--d", "-2", "--x", "12", "--y", "3"], "unit=(1,0) * (0,1)^1 * (-1,1)^1 * (1,1)^3"),
        (["--d", "-11", "--x", "121"], "unit=(1,0) * (-1,2)^4"),
        (["--d", "-163", "--x", "1"], "unit=(1,0)"),
    ]:
        assert run(capsys, "factor", *argv) == (0, want + "\n", "")


def test_chars_and_conductors(capsys):
    code, out, _ = run(capsys, "chars", "--d", "-1", "--qx", "3")
    assert code == 0
    assert "phi=8" in out
    code, out, _ = run(capsys, "conductors", "--d", "-1", "--qx", "3")
    assert code == 0
    # 7 primitive characters mod 3
    prim = [l for l in out.splitlines() if l.endswith(",1") and not l.startswith("#")]
    assert len(prim) == 7


def test_tabulate_and_convolve(capsys, tmp_path):
    out_file = tmp_path / "tau.csv"
    code, _, _ = run(
        capsys, "convolve", "--d", "-1", "--f", "one", "--g", "one",
        "--norm-bound", "50", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1].startswith("# d=-1 norm_bound=50 name=(one)*(one)")
    code, _, _ = run(
        capsys, "tabulate", "--d", "-1", "--f", "moebius",
        "--norm-bound", "50", "--out", str(tmp_path / "mu.csv"),
    )
    assert code == 0


def test_lod_scan_stdout(capsys):
    code, out, _ = run(
        capsys, "lod-scan", "--d", "-1", "--f", "one",
        "--theta", "0.4", "--B", "0", "--Ngrid", "10,20",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("N=")]
    assert len(lines) == 2
    assert "N^2=" in lines[0] and "E/count=" in lines[0]


def test_conv_experiment_csv(capsys, tmp_path):
    out_file = tmp_path / "report.csv"
    code, out, _ = run(
        capsys, "conv-experiment", "--d", "-1", "--f", "prime", "--g", "prime",
        "--theta", "0.4", "--Ngrid", "10,20,30", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "N,E_f_norm,E_g_norm,E_conv_norm"
    assert len(lines) == 5  # header comment, column row, three N rows
    assert "decaying" in out


def test_worker_byte_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path, workers in ((a, "1"), (b, "4")):
        code, _, _ = run(
            capsys, "lod-scan", "--d", "-1", "--f", "prime",
            "--theta", "0.4", "--B", "0", "--Ngrid", "15,25",
            "--workers", workers, "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_large_sieve_cli(capsys, tmp_path):
    out_file = tmp_path / "ls.csv"
    code, _, _ = run(
        capsys, "large-sieve", "--d", "-1", "--N", "10", "--Q1", "4",
        "--Q2", "20", "--vectors", "4", "--seed", "11", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[-1].startswith("# max_ratio=")
    # same seed reproduces byte-identically
    out2 = tmp_path / "ls2.csv"
    run(
        capsys, "large-sieve", "--d", "-1", "--N", "10", "--Q1", "4",
        "--Q2", "20", "--vectors", "4", "--seed", "11", "--out", str(out2),
    )
    assert out_file.read_bytes() == out2.read_bytes()


def test_large_sieve_artifact_rows_are_pinned(capsys, tmp_path):
    # SHA-256 of the data rows (every line not starting with '#'), recorded
    # with the projection onto the primitive characters; the +-1 class sums
    # are exact integers, but the projection's means and squares round, so a
    # change to its summation order may move a last digit here
    out_file = tmp_path / "ls.csv"
    code, _, _ = run(
        capsys, "large-sieve", "--d", "-3", "--N", "30", "--Q1", "5", "--Q2", "120",
        "--vectors", "20", "--seed", "2", "--out", str(out_file),
    )
    assert code == 0
    rows = [line for line in out_file.read_text().splitlines() if not line.startswith("#")]
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == "df2195f862b7f8e886b87a4fc571ec1db72541f04113d3b04a063c91892d8a4a"


def test_enumerate_with_n_squared_beyond_float_range(capsys):
    # N^b is small, so the region is enumerable; only the header's N^2 overflows
    code, out, _ = run(capsys, "enumerate", "--d", "-1", "--N", "1e200", "--b", "0.005")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "# norms in [1, 100] (N=1e+200, N^2=inf)"
    assert len(lines) == 3 + count_region(a0(make_ring(-1), 10))


def test_mertens_cli(capsys):
    code, out, _ = run(capsys, "mertens", "--d", "-1", "--R", "100")
    assert code == 0
    assert "ideal_sum=" in out and "prime_ratio=" in out


def test_cache_cycle(capsys, tmp_path):
    cdir = str(tmp_path / "cache")
    code, out, _ = run(
        capsys, "cache", "save", "--d", "-1", "--max-norm", "500", "--cache-dir", cdir
    )
    assert code == 0 and "saved" in out
    code, out, _ = run(
        capsys, "cache", "load", "--d", "-1", "--max-norm", "500", "--cache-dir", cdir
    )
    assert code == 0 and "loaded" in out
    path = os.path.join(cdir, "primes_d-1_n500.qlod")
    code, out, _ = run(capsys, "cache", "inspect", "--path", path)
    assert code == 0
    assert json.loads(out)["max_norm"] == 500


@pytest.mark.parametrize("max_norm", ["-1", "0"])
def test_cache_save_below_one_is_usage_error_and_leaves_no_file(capsys, tmp_path, max_norm):
    cdir = tmp_path / "cache"
    code, out, err = run(
        capsys, "cache", "save", "--d", "-1", "--max-norm", max_norm, "--cache-dir", str(cdir)
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "--max-norm" in err
    assert not cdir.exists() or not any(cdir.iterdir())


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QLOD_CACHE", str(tmp_path / "envcache"))
    assert default_cache_dir(None) == str(tmp_path / "envcache")
    assert default_cache_dir("/explicit") == "/explicit"
    code, _, _ = run(capsys, "cache", "save", "--d", "-2", "--max-norm", "100")
    assert code == 0
    assert os.path.exists(str(tmp_path / "envcache" / "primes_d-2_n100.qlod"))


def test_cache_wrong_ring_is_computation_error(capsys, tmp_path):
    cdir = str(tmp_path / "c2")
    run(capsys, "cache", "save", "--d", "-1", "--max-norm", "200", "--cache-dir", cdir)
    os.rename(
        os.path.join(cdir, "primes_d-1_n200.qlod"),
        os.path.join(cdir, "primes_d-2_n200.qlod"),
    )
    code, _, err = run(
        capsys, "cache", "load", "--d", "-2", "--max-norm", "200", "--cache-dir", cdir
    )
    assert code == 1
    assert "d=-1" in err


def test_config_file_merge(capsys, tmp_path):
    cfg_path = tmp_path / "scan.json"
    cfg_path.write_text(
        json.dumps({"theta": 0.4, "B": 0.0, "N_grid": [10, 20], "f_spec": "one"})
    )
    code, out, _ = run(
        capsys, "lod-scan", "--d", "-1", "--config", str(cfg_path)
    )
    assert code == 0
    assert len([l for l in out.splitlines() if l.startswith("N=")]) == 2
    # explicit flag overrides the file
    code, out, _ = run(
        capsys, "lod-scan", "--d", "-1", "--config", str(cfg_path), "--Ngrid", "10"
    )
    assert code == 0
    assert len([l for l in out.splitlines() if l.startswith("N=")]) == 1


def test_run_config_round_trip():
    cfg = RunConfig(command="large-sieve", d=-1, params={"N": 10.0, "seed": 7})
    text = cfg.to_json()
    assert sorted(json.loads(text)) == ["command", "d", "params", "version"]
    assert json.loads(text)["version"] == 2
    assert RunConfig(**json.loads(text)) == cfg


def test_artifact_embeds_reproducible_config(capsys, tmp_path):
    out_file = tmp_path / "scan.csv"
    args = [
        "lod-scan", "--d", "-1", "--f", "one", "--theta", "0.4", "--B", "0",
        "--Ngrid", "10,15", "--out", str(out_file),
    ]
    run(capsys, *args)
    first = out_file.read_bytes()
    header = first.decode().splitlines()[0]
    assert header.startswith("# config:")
    embedded = json.loads(header[len("# config:"):])
    assert (embedded["command"], embedded["d"]) == ("lod-scan", -1)
    params = embedded["params"]
    assert sorted(params) == ["B", "N_grid", "f_spec", "theta"]
    # re-run from the embedded parameters, at another worker count, and compare bytes
    grid = ",".join(str(n) for n in params["N_grid"])
    out2 = tmp_path / "scan2.csv"
    run(
        capsys, "lod-scan", "--d", str(embedded["d"]), "--f", params["f_spec"],
        "--theta", str(params["theta"]), "--B", str(params["B"]),
        "--Ngrid", grid, "--workers", "2", "--out", str(out2),
    )
    assert out2.read_bytes() == first


def test_sw_check_non_integer_n_uses_floor_of_square(capsys):
    # the table must reach floor(10.5^2) = 110; int(10.5)**2 = 100 falls short
    code, out, err = run(capsys, "sw-check", "--d", "-1", "--f", "one", "--N", "10.5", "--D", "3")
    assert code == 0, err
    assert out.splitlines()[-1].startswith("# max_scaled=")


def test_unknown_function_is_usage_error(capsys):
    code, _, err = run(capsys, "tabulate", "--d", "-1", "--f", "bogus", "--norm-bound", "50")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "bogus" in err


def test_large_sieve_zero_vectors_is_usage_error(capsys):
    code, _, err = run(
        capsys, "large-sieve", "--d", "-1", "--N", "10", "--Q1", "4", "--Q2", "20",
        "--vectors", "0",
    )
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "--vectors" in err


@pytest.mark.parametrize(
    "command,flags,needle",
    [
        ("lod-scan", ["--theta", "2"], "theta"),
        ("conv-experiment", ["--theta", "2"], "theta"),
        ("lod-scan", ["--B", "-1"], "B must be"),
        ("conv-experiment", ["--B", "-1"], "B must be"),
        ("lod-scan", ["--Ngrid", "20,10"], "N_grid"),
        ("conv-experiment", ["--Ngrid", "20,10"], "N_grid"),
        ("lod-scan", ["--Ngrid", "10,abc"], "--Ngrid"),
        ("conv-experiment", ["--Ngrid", "10,abc"], "--Ngrid"),
        # an empty value once read as no value, and the default grid ran
        ("lod-scan", ["--Ngrid", ""], "--Ngrid"),
        ("conv-experiment", ["--Ngrid", ""], "--Ngrid"),
    ],
)
def test_bad_scan_flags_are_usage_errors(capsys, command, flags, needle):
    code, _, err = run(capsys, command, "--d", "-1", "--f", "one", *flags)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err


@pytest.mark.parametrize("command", ["lod-scan", "conv-experiment"])
@pytest.mark.parametrize(
    "values,needle",
    [
        ({"theta": 2, "N_grid": [10, 20]}, "theta"),
        ({"N_grid": 20}, "scan config"),
        ({"B": float("nan"), "N_grid": [10, 20]}, "B must be"),
        # the config line of `tabulate --d -1 --f moebius --norm-bound 50`
        (
            {"command": "tabulate", "d": -1, "params": {"f": "moebius", "norm_bound": 50},
             "version": 2},
            "--config",
        ),
    ],
)
def test_bad_config_file_is_usage_error(capsys, tmp_path, command, values, needle):
    cfg_path = tmp_path / "scan.json"
    cfg_path.write_text(json.dumps({**values, "f_spec": "one"}))
    code, _, err = run(capsys, command, "--d", "-1", "--config", str(cfg_path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err


@pytest.mark.parametrize("n", ["0.5", "1"])
def test_sw_check_n_at_most_one_is_usage_error(capsys, n):
    code, _, err = run(capsys, "sw-check", "--d", "-1", "--f", "one", "--N", n, "--D", "1.5")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "N must exceed 1" in err


def test_cache_unknown_split_code_is_computation_error(capsys, tmp_path):
    cdir = str(tmp_path / "c3")
    run(capsys, "cache", "save", "--d", "-1", "--max-norm", "200", "--cache-dir", cdir)
    path = os.path.join(cdir, "primes_d-1_n200.qlod")
    raw = bytearray(open(path, "rb").read())
    raw[-1] = 9  # the last record's split code
    with open(path, "wb") as fh:
        fh.write(bytes(raw))
    code, _, err = run(
        capsys, "cache", "load", "--d", "-1", "--max-norm", "200", "--cache-dir", cdir
    )
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and "split code 9" in err


def test_cache_non_canonical_record_is_computation_error(capsys, tmp_path):
    cdir = str(tmp_path / "c4")
    run(capsys, "cache", "save", "--d", "-1", "--max-norm", "100", "--cache-dir", cdir)
    path = os.path.join(cdir, "primes_d-1_n100.qlod")
    raw = bytearray(open(path, "rb").read())
    raw[32:40] = (-7).to_bytes(8, "little", signed=True)  # first record (1, 1) -> (-7, 1)
    with open(path, "wb") as fh:
        fh.write(bytes(raw))
    code, _, err = run(
        capsys, "cache", "load", "--d", "-1", "--max-norm", "100", "--cache-dir", cdir
    )
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and "record 1" in err


@pytest.mark.parametrize("command", ["lod-scan", "conv-experiment"])
def test_empty_config_path_is_an_io_error(capsys, command):
    # an empty --config once read as no file, and the default grid ran
    code, _, err = run(capsys, command, "--d", "-1", "--config", "", "--workers", "1")
    assert code == 1 and err.startswith("io error: ") and err.count("\n") == 1


def test_factor_sieves_only_the_primes_of_the_norm(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "factor", "--d", "-1", "--x", "1000", "--y", "7")
    assert time.perf_counter() - start < 2.0
    assert code == 0 and out == "unit=(0,-1) * (8,17)^1 * (48,23)^1\n"
    code, _, err = run(capsys, "factor", "--d", "-1", "--x", "5000", "--y", "0")
    assert code == 1 and err.startswith("error: ") and "exceeds guard" in err


_SCAN = ["--f", "one", "--theta", "0.4", "--B", "0", "--Ngrid", "10,15"]


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--d", "-1", "--N", "nan"],
        ["density", "--d", "-1", "--N", "inf"],
        ["enumerate", "--d", "-1", "--N", "nan"],
        ["enumerate", "--d", "-1", "--N", "3", "--yprime", "inf"],
        ["enumerate", "--d", "-1", "--N", "3", "--Y", "nan"],
        ["enumerate", "--d", "-1", "--N", "3", "--b=-inf"],
        ["large-sieve", "--d", "-1", "--N", "nan", "--Q1", "4", "--Q2", "20"],
        ["large-sieve", "--d", "-1", "--N", "10", "--Q1", "inf", "--Q2", "20"],
        ["large-sieve", "--d", "-1", "--N", "10", "--Q1", "4", "--Q2", "nan"],
        ["sw-check", "--d", "-1", "--f", "one", "--N", "inf", "--D", "2"],
        ["sw-check", "--d", "-1", "--f", "one", "--N", "10", "--D", "nan"],
        ["sw-check", "--d", "-1", "--f", "one", "--N", "10", "--D", "2", "--bound-power", "inf"],
        ["lod-scan", "--d", "-1", *_SCAN, "--B", "nan"],
        ["conv-experiment", "--d", "-1", *_SCAN, "--theta", "nan"],
        ["count", "--d", "-1", "--N", "five"],
    ],
)
def test_non_finite_float_flag_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lod-scan", "conv-experiment"])
@pytest.mark.parametrize("text", ["{theta", "[10, 20]"])
def test_config_file_not_a_json_object_is_usage_error(capsys, tmp_path, command, text):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(text)
    code, _, err = run(capsys, command, "--d", "-1", "--config", str(cfg_path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "--config" in err


def test_conv_experiment_reruns_from_its_config_line(capsys, tmp_path):
    first = tmp_path / "first.csv"
    code, _, _ = run(
        capsys, "conv-experiment", "--d", "-1", "--f", "prime", "--g", "moebius",
        "--theta", "0.4", "--B", "0", "--Ngrid", "10,15", "--out", str(first),
    )
    assert code == 0
    header = first.read_text().splitlines()[0]
    assert json.loads(header[len("# config:"):])["params"]["g_spec"] == "moebius"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(header[len("# config:"):])
    again = tmp_path / "again.csv"
    code, _, _ = run(
        capsys, "conv-experiment", "--d", "-1", "--config", str(cfg_path),
        "--out", str(again),
    )
    assert code == 0
    assert again.read_bytes() == first.read_bytes()


def test_old_config_line_with_a_still_loads(capsys, tmp_path):
    cfg_path = tmp_path / "old.json"
    cfg_path.write_text(
        '{"A":0.0,"B":0.0,"N_grid":[10,15],"d":-1,"f_spec":"one","theta":0.4,"version":1}'
    )
    code, out, _ = run(capsys, "lod-scan", "--d", "-1", "--config", str(cfg_path))
    assert code == 0
    assert len([l for l in out.splitlines() if l.startswith("N=")]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--d", "-1", "--N", "nan"],
        ["count", "--d", "x", "--N", "5"],
        ["count", "--d", "-1"],
        ["no-such-command"],
    ],
)
def test_argparse_usage_error_is_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["lod-scan", "conv-experiment"])
@pytest.mark.parametrize("grid", [[10.7, 20.2], [10, 20.0], [10, True], "10,20"])
def test_non_integer_config_grid_is_usage_error(capsys, tmp_path, command, grid):
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps({"N_grid": grid, "f_spec": "one"}))
    code, out, err = run(capsys, command, "--d", "-1", "--config", str(cfg_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "N_grid" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--d", "-1", "--N", "5"],
        ["density", "--d", "-3", "--N", "7.5"],
        ["factor", "--d", "-1", "--x", "6"],
        ["mertens", "--d", "-2", "--R", "50"],
    ],
)
def test_printing_commands_write_out_files(capsys, tmp_path, argv):
    code, printed, _ = run(capsys, *argv)
    assert code == 0
    out_file = tmp_path / "result.txt"
    code, out, _ = run(capsys, *argv, "--out", str(out_file))
    assert code == 0 and out == ""
    config, *lines = out_file.read_text().splitlines()
    assert json.loads(config[len("# config:"):])["command"] == argv[0]
    assert lines == printed.splitlines()


def test_tabulate_file_round_trips_through_csv_spec(capsys, tmp_path):
    mu = tmp_path / "mu.csv"
    code, _, _ = run(
        capsys, "tabulate", "--d", "-1", "--f", "moebius", "--norm-bound", "50",
        "--out", str(mu),
    )
    assert code == 0 and mu.read_text().startswith("# config:")
    argv = ["sw-check", "--d", "-1", "--N", "7", "--D", "2.5"]
    code, from_file, _ = run(capsys, *argv, "--f", f"csv:{mu}")
    assert code == 0 and "\n2,0,4," in from_file
    _, direct, _ = run(capsys, *argv, "--f", "moebius")
    assert from_file.splitlines()[1:] == direct.splitlines()[1:]  # all but the config line


@pytest.mark.parametrize(
    "edit",
    [
        lambda ls: [l for l in ls if not l.startswith("# d=")],  # no metadata line
        lambda ls: ls[:5] + [ls[5].rsplit(",", 1)[0]] + ls[6:],  # short row
        lambda ls: ls[:5] + ls[6:],  # missing class
    ],
)
def test_corrupt_csv_function_is_computation_error(capsys, tmp_path, edit):
    mu = tmp_path / "mu.csv"
    run(capsys, "tabulate", "--d", "-1", "--f", "moebius", "--norm-bound", "50", "--out", str(mu))
    mu.write_text("\n".join(edit(mu.read_text().splitlines())) + "\n")
    code, _, err = run(capsys, "sw-check", "--d", "-1", "--f", f"csv:{mu}", "--N", "3", "--D", "1")
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and str(mu) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["tabulate", "--d", "-1", "--f", "one", "--norm-bound", "2"],
        ["convolve", "--d", "-1", "--f", "one", "--g", "one", "--norm-bound", "2"],
    ],
)
def test_csv_to_stdout_appends(tmp_path, argv):
    # `quadlod tabulate ... >> log` keeps what log already holds
    log = tmp_path / "log"
    log.write_text("hello\n")
    with open(log, "a") as fh:
        run_cli(*argv, stdout=fh)
    lines = log.read_text().splitlines()
    assert lines[0] == "hello" and lines[1].startswith("# config:")
    assert lines[-1].startswith("1,1,2,")


def test_large_sieve_bytes_independent_of_blas_threads():
    argv = ["large-sieve", "--d", "-1", "--N", "30", "--Q1", "10", "--Q2", "120",
            "--vectors", "30", "--seed", "7"]
    outs = [
        run_cli(*argv, env={"OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n}).stdout
        for n in ("1", "2")
    ]
    assert outs[0] == outs[1]


_ARTIFACTS = [
    ["ring-info", "--d", "-3"],
    ["enumerate", "--d", "-1", "--N", "3"],
    ["count", "--d", "-1", "--N", "5"],
    ["density", "--d", "-1", "--N", "5"],
    ["sieve", "--d", "-1", "--max-norm", "50"],
    ["factor", "--d", "-1", "--x", "6"],
    ["chars", "--d", "-1", "--qx", "3"],
    ["conductors", "--d", "-1", "--qx", "3"],
    ["tabulate", "--d", "-1", "--f", "moebius", "--norm-bound", "50"],
    ["convolve", "--d", "-1", "--f", "one", "--g", "one", "--norm-bound", "50"],
    ["lod-scan", "--d", "-1", *_SCAN],
    ["conv-experiment", "--d", "-1", *_SCAN],
    ["sw-check", "--d", "-1", "--f", "one", "--N", "5", "--D", "2"],
    ["large-sieve", "--d", "-1", "--N", "5", "--Q1", "2", "--Q2", "10", "--seed", "3"],
    ["mertens", "--d", "-1", "--R", "50"],
]


@pytest.mark.parametrize("argv", _ARTIFACTS, ids=lambda argv: argv[0])
def test_every_artifact_has_one_config_schema(capsys, tmp_path, argv):
    workers = [["--workers", "1"], ["--workers", "2"]] if "--Ngrid" in argv else [[], []]
    paths = [tmp_path / "a.csv", tmp_path / "sub-b.csv"]
    for path, extra in zip(paths, workers):
        code, _, err = run(capsys, *argv, *extra, "--out", str(path))
        assert code == 0, err
    first = paths[0].read_text().splitlines()[0]
    assert first.startswith('# config: {"command":')
    cfg = json.loads(first[len("# config:"):])
    assert sorted(cfg) == ["command", "d", "params", "version"]
    assert (cfg["command"], cfg["d"], cfg["version"]) == (argv[0], int(argv[2]), 2)
    # neither the --out path nor --workers is in the config line
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_large_sieve_seed_is_a_param(capsys, tmp_path):
    out = tmp_path / "ls.csv"
    argv = ["large-sieve", "--d", "-1", "--N", "5", "--Q1", "2", "--Q2", "10", "--seed", "3"]
    run(capsys, *argv, "--out", str(out))
    cfg = json.loads(out.read_text().splitlines()[0][len("# config:"):])
    assert cfg["params"] == {"N": 5.0, "Q1": 2.0, "Q2": 10.0, "seed": 3, "vectors": 1}


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--d", "-1", "--N", "5", "--seed", "1"],
        ["count", "--d", "-1", "--N", "5", "--workers", "2"],
        ["count", "--d", "-1", "--N", "5", "--cache-dir", "c"],
        ["sw-check", "--d", "-1", "--f", "one", "--N", "5", "--D", "2", "--seed", "1"],
        ["large-sieve", "--d", "-1", "--N", "5", "--Q1", "2", "--Q2", "10", "--workers", "2"],
        ["lod-scan", "--d", "-1", *_SCAN, "--seed", "1"],
        ["cache", "save", "--d", "-1", "--max-norm", "50", "--out", "x"],
        ["cache", "load", "--d", "-1", "--max-norm", "50", "--seed", "1"],
        ["cache", "inspect", "--path", "x", "--d", "-1"],
        ["cache", "inspect", "--path", "x", "--cache-dir", "c"],
    ],
)
def test_flag_a_subcommand_does_not_read_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unrecognized arguments") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["lod-scan", "conv-experiment"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_usage_error(capsys, command, workers):
    code, out, err = run(capsys, command, "--d", "-1", *_SCAN, "--workers", workers)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "--workers" in err


def test_lod_scan_reruns_from_its_config_line(capsys, tmp_path):
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    code, printed, _ = run(capsys, "lod-scan", "--d", "-1", *_SCAN, "--out", str(first))
    assert code == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(first.read_text().splitlines()[0][len("# config:"):])
    code, reprinted, _ = run(
        capsys, "lod-scan", "--d", "-1", "--config", str(cfg_path), "--out", str(again)
    )
    assert code == 0 and reprinted == printed
    assert again.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("command", ["lod-scan", "conv-experiment"])
@pytest.mark.parametrize(
    "values,needle",
    [
        ({"f_spec": 5}, "f_spec must be a string"),
        ({"f_spec": None}, "f_spec must be a string"),
        ({"f_spec": "one", "g_spec": ["x"]}, "g_spec must be a string"),
        ({"f_spec": "one", "theta": "0.4"}, "theta must be a number"),
        ({"f_spec": "one", "B": True}, "B must be a number"),
        ({"f_spec": "one", "theta": -10**400}, "scan config"),
        ({"params": {"f_spec": 5}}, "f_spec must be a string"),
        ({"params": [10, 20]}, "--config"),
    ],
)
def test_config_value_of_the_wrong_type_is_usage_error(capsys, tmp_path, command, values, needle):
    if command == "lod-scan" and "g_spec" in values:
        needle = None  # lod-scan reads no g
    cfg_path = tmp_path / "scan.json"
    cfg_path.write_text(json.dumps({"N_grid": [10], **values}))
    code, _, err = run(capsys, command, "--d", "-1", "--workers", "1", "--config", str(cfg_path))
    if needle is None:
        assert code == 0
        return
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err


# Every object carries an N_grid, and grid values stay at N <= 12, so that
# each example takes milliseconds (the default grid reaches N = 100).
_json = st.recursive(
    st.none() | st.booleans() | st.integers(max_value=12) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_non_object = _json.filter(lambda value: not isinstance(value, dict))
_valid_scan = {
    "N_grid": st.lists(st.integers(2, 12), min_size=1, max_size=2, unique=True).map(sorted),
    "f_spec": st.sampled_from(["one", "prime", "moebius"]),
    "g_spec": st.sampled_from(["one", "lambda"]),
    "theta": st.floats(0.05, 0.5),
    "B": st.floats(0.0, 3.0),
}
# a valid scan with one value replaced by any JSON, or every value drawn loosely
_scan_values = st.sampled_from(sorted(_valid_scan)).flatmap(
    lambda key: st.fixed_dictionaries({**_valid_scan, key: _json})
) | st.fixed_dictionaries(
    {"N_grid": _valid_scan["N_grid"] | st.lists(st.integers(-2, 12), max_size=3) | _json},
    optional={
        "f_spec": st.sampled_from(["one", "bogus", "csv:"]) | _json,
        "g_spec": _valid_scan["g_spec"] | _json,
        "theta": _valid_scan["theta"] | _json,
        "B": _valid_scan["B"] | _json,
        "A": _json,
    },
)
_config_files = (
    _scan_values
    | st.builds(
        lambda d, params: {"command": "lod-scan", "d": d, "params": params, "version": 2},
        _json, _scan_values | _non_object,
    )
    | _non_object
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config_fuzz")


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(["lod-scan", "conv-experiment"]), values=_config_files)
def test_config_file_fuzz(fuzz_dir, command, values):
    """Any JSON in --config exits 0, 1 or 2, never with a traceback."""
    cfg_path = fuzz_dir / "fuzz.json"
    cfg_path.write_text(json.dumps(values))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([command, "--d", "-1", "--workers", "1", "--config", str(cfg_path)])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith(("error: ", "io error: "))
        assert err.getvalue().count("\n") == 1


@pytest.mark.parametrize(
    "argv,code,needle",
    [
        (["mertens", "--d", "-1", "--R", "1"], 2, "R must be >= 2"),
        (["density", "--d", "-1", "--N", "0"], 2, "N must be positive"),
        (["density", "--d", "-1", "--N", "-2"], 2, "N must be positive"),
        (["sw-check", "--d", "-1", "--f", "one", "--N", "3", "--D", "1", "--bound-power", "1e308"],
         1, "overflows"),
        (["sw-check", "--d", "-1", "--f", "one", "--N", "3", "--D", "1e308"], 1, "overflows"),
        (["count", "--d", "-1", "--N", "-3"], 2, "N must be positive"),
        (["count", "--d", "-1", "--N", "0"], 2, "N must be positive"),
        (["enumerate", "--d", "-1", "--N", "-2"], 2, "N must be positive"),
        (["enumerate", "--d", "-1", "--N", "-2", "--b", "0.5"], 2, "N must be positive"),
        (["large-sieve", "--d", "-1", "--N", "-10", "--Q1", "1", "--Q2", "5"],
         2, "N must be positive"),
        (["large-sieve", "--d", "-1", "--N", "5", "--Q1", "0", "--Q2", "5"],
         2, "Q1 must be positive"),
        (["large-sieve", "--d", "-1", "--N", "5", "--Q1", "-2", "--Q2", "5"],
         2, "Q1 must be positive"),
        (["enumerate", "--d", "-1", "--N", "1e200", "--b", "2.5"], 1, "overflows"),
        (["enumerate", "--d", "-1", "--N", "1e200", "--b", "2"], 1, "exceeds guard"),
        (["enumerate", "--d", "-1", "--N", "2", "--Y", "-10"], 2, "outer radius"),
        (["enumerate", "--d", "-1", "--N", "2", "--Y", "-2"], 2, "outer radius"),
        (["sieve", "--d", "-1", "--max-norm", "-1"], 2, "--max-norm must be at least 1"),
        (["sieve", "--d", "-1", "--max-norm", "0"], 2, "--max-norm must be at least 1"),
        (["tabulate", "--d", "-1", "--f", "one", "--norm-bound", "-5"],
         2, "--norm-bound must be at least 1"),
        (["convolve", "--d", "-1", "--f", "one", "--g", "one", "--norm-bound", "0"],
         2, "--norm-bound must be at least 1"),
        (["enumerate", "--d", "-1", "--N", "1.0000001", "--b", "10000"],
         1, "too large to compute exactly"),
        (["enumerate", "--d", "-1", "--N", "1.0000001", "--b", "100000"],
         1, "too large to compute exactly"),
        (["lod-scan", "--d", "-1", "--f", "one", "--theta", "0.5", "--B", "1218", "--Ngrid", "6"],
         1, "leaves the float range"),
        (["lod-scan", "--d", "-1", "--f", "one", "--theta", "0.5", "--B", "2034", "--Ngrid", "2"],
         1, "leaves the float range"),
        (["lod-scan", "--d", "-1", "--f", "one", "--theta", "0.5", "--B", "1934", "--Ngrid", "2"],
         1, "leaves the float range"),
        (["large-sieve", "--d", "-1", "--N", "5", "--Q1", "1e-310", "--Q2", "20", "--vectors", "2"],
         1, "overflows"),
    ],
)
def test_out_of_range_argument_is_one_line_error(capsys, argv, code, needle):
    got, out, err = run(capsys, *argv)
    assert got == code and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err


@pytest.mark.parametrize("column", [3, 4])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_csv_value_is_computation_error(capsys, tmp_path, column, value):
    mu = tmp_path / "mu.csv"
    run(capsys, "tabulate", "--d", "-1", "--f", "moebius", "--norm-bound", "50", "--out", str(mu))
    lines = mu.read_text().splitlines()
    row = lines[5].split(",")
    row[column] = value
    lines[5] = ",".join(row)
    mu.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "sw-check", "--d", "-1", "--f", f"csv:{mu}", "--N", "3", "--D", "1")
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and "non-finite" in err


@pytest.mark.parametrize(
    "value, digest",
    [
        # 2 classes x 4 units x 2^506 plus the ones: just under 2^510
        (2.0**506, "b51f50f47beeb67be28990081cd93dc92ca1a0e22953d463d9287c2cc0ceb471"),
        (2.0**507, None),  # 2^510 and more
        (1e308, None),  # the sum leaves the float range
    ],
)
def test_sweep_sum_of_f_guard(capsys, tmp_path, monkeypatch, value, digest):
    # two values of 1e308 gave E=inf and 28 inf/nan rows with exit 0; the
    # sweep now needs w_K * sum |f| < 2^510 over the swept classes.  The digest
    # was recorded before the guard, so under it the bytes are unchanged.
    monkeypatch.chdir(tmp_path)
    run(capsys, "tabulate", "--d", "-1", "--f", "one", "--norm-bound", "400", "--out", "one.csv")
    lines = (tmp_path / "one.csv").read_text().splitlines()
    for i in (10, 40):
        row = lines[i].split(",")
        row[3] = repr(value)
        lines[i] = ",".join(row)
    (tmp_path / "big.csv").write_text("\n".join(lines) + "\n")
    code, _, err = run(
        capsys, "lod-scan", "--d", "-1", "--f", "csv:big.csv", "--theta", "0.5", "--B", "0",
        "--Ngrid", "10,20", "--workers", "1", "--out", "scan.csv",
    )
    if digest is None:
        assert code == 1 and not (tmp_path / "scan.csv").exists()
        assert err.startswith("error: ") and err.count("\n") == 1 and "2^510" in err
    else:
        assert code == 0 and err == ""
        assert hashlib.sha256((tmp_path / "scan.csv").read_bytes()).hexdigest() == digest


# class 1 holds the value that puts sum |f| over the classes of norm <= 400 at
# `mass`: w_K * mass just below 2^52 has exact sums, read back with one
# bincount; at or above it the readback replays the row's block.  The digests
# were recorded when the sums at or above the bound were taken over the
# elements; they hold on classes too.
D1_BELOW, D3_BELOW = 2**50 - 1, (2**52 - 1) // 6


@pytest.mark.parametrize(
    "d, mass, exact, digest",
    [
        (-1, D1_BELOW, True,
         "d846a834b58c2fa331b597ea65a1a1c46dc28b2b00047414876a8b559debd46e"),
        (-1, D1_BELOW + 1, False,
         "dfa55c40f161b054474818298446f2d49c57d7d6e68eb1706315c5eab2cc8bce"),
        (-1, D1_BELOW + 2, False,
         "8de83d778164d468a3b17936ff8efbb63c7c5587c950f22b8d43eefd564f620f"),
        (-3, D3_BELOW, True,
         "0b2a6c9a5db16222b9c1df27e31aaf4e0ccbe7f013f9db89d619ee5a3d6c8f50"),
        (-3, D3_BELOW + 1, False,
         "b907e22f32bb797e91810b108f6478416f0adb46566077b7ce4053194ade46b3"),
    ],
)
def test_exact_sweep_guard_on_classes(capsys, tmp_path, monkeypatch, d, mass, exact, digest):
    monkeypatch.chdir(tmp_path)
    replay, calls = lab._replay, []
    monkeypatch.setattr(lab, "_replay", lambda *a: calls.append(1) or replay(*a))
    run(capsys, "tabulate", "--d", str(d), "--f", "one", "--norm-bound", "400", "--out", "one.csv")
    lines = (tmp_path / "one.csv").read_text().splitlines()
    row = lines[3].split(",")  # the first class: 1, coprime to every q
    assert row[:3] == ["1", "0", "1"]
    row[3] = repr(float(mass - (len(lines) - 4)))  # every other class holds 1
    lines[3] = ",".join(row)
    (tmp_path / "big.csv").write_text("\n".join(lines) + "\n")
    code, _, err = run(
        capsys, "lod-scan", "--d", str(d), "--f", "csv:big.csv", "--theta", "0.5", "--B", "0",
        "--Ngrid", "10,20", "--workers", "1", "--out", "scan.csv",
    )
    assert code == 0 and err == ""
    assert (calls == []) == exact
    assert hashlib.sha256((tmp_path / "scan.csv").read_bytes()).hexdigest() == digest


def _one_with(tmp_path, capsys, prefixes, value):
    """`one` on d = -1 to norm 400, as big.csv, with re = value on the rows of the prefixes."""
    run(capsys, "tabulate", "--d", "-1", "--f", "one", "--norm-bound", "400", "--out", "one.csv")
    lines = (tmp_path / "one.csv").read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith(prefixes):
            row = line.split(",")
            row[3] = repr(value)
            lines[i] = ",".join(row)
    (tmp_path / "big.csv").write_text("\n".join(lines) + "\n")


# The digests were recorded before the guards, so under them the bytes are
# unchanged.  Over them a run exits 1 with one line and writes no file; a
# RuntimeWarning, which pyproject's pytest settings make an error, fails.
@pytest.mark.parametrize(
    "value, digest",
    [
        # M = 2^510 + 312 for each operand: M^2 just under 2^1022
        (2.0**509, "71043d06a04b4500a553b0f93619cdbaebaef4b874847db1edec675dcedfd2f9"),
        (2.0**510, None),  # M^2 just over 2^1022: finite before the guard, refused now
        (1e200, None),  # 3 inf/nan rows and a RuntimeWarning before the guard
    ],
)
def test_convolve_sum_of_f_guard(capsys, tmp_path, monkeypatch, value, digest):
    monkeypatch.chdir(tmp_path)
    _one_with(tmp_path, capsys, ("1,2,5,", "2,1,5,"), value)
    code, _, err = run(
        capsys, "convolve", "--d", "-1", "--f", "csv:big.csv", "--g", "csv:big.csv",
        "--norm-bound", "400", "--out", "c.csv",
    )
    if digest is None:
        assert code == 1 and not (tmp_path / "c.csv").exists()
        assert err.startswith("error: ") and err.count("\n") == 1 and "2^1022" in err
    else:
        assert code == 0 and err == ""
        assert hashlib.sha256((tmp_path / "c.csv").read_bytes()).hexdigest() == digest


def test_conv_experiment_stops_at_the_convolve_guard(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _one_with(tmp_path, capsys, ("1,2,5,", "2,1,5,"), 1e200)
    code, _, err = run(
        capsys, "conv-experiment", "--d", "-1", "--f", "csv:big.csv", "--g", "csv:big.csv",
        "--theta", "0.5", "--B", "0", "--Ngrid", "10,20", "--workers", "1", "--out", "ce.csv",
    )
    assert code == 1 and not (tmp_path / "ce.csv").exists()
    assert err.startswith("error: ") and err.count("\n") == 1 and "sum of |g|" in err


@pytest.mark.parametrize(
    "value, digest",
    [
        # M = 2^705 + 1253 over A0(20), (log 20)^200 = 2^316.58: just under 2^1022
        (2.0**703, "4fd5c1f81d0881de712eb7ad2ce5be3f6419b5028a83c5ea4a1787c1ceccce53"),
        (2.0**704, None),  # just over 2^1022: finite before the guard, refused now
        (1e308, None),  # 7 inf rows and max_scaled=inf before the guard
    ],
)
def test_sw_check_sum_of_f_guard(capsys, tmp_path, monkeypatch, value, digest):
    monkeypatch.chdir(tmp_path)
    _one_with(tmp_path, capsys, ("1,0,1,",), value)
    code, _, err = run(
        capsys, "sw-check", "--d", "-1", "--f", "csv:big.csv", "--N", "20", "--D", "1.5",
        "--bound-power", "200", "--out", "sw.csv",
    )
    if digest is None:
        assert code == 1 and not (tmp_path / "sw.csv").exists()
        assert err.startswith("error: ") and err.count("\n") == 1 and "2^1022" in err
    else:
        assert code == 0 and err == ""
        assert hashlib.sha256((tmp_path / "sw.csv").read_bytes()).hexdigest() == digest


# Recorded before ArithFn dropped its Mapping view and the scan its second
# record type.  moebius with 1 -> 1 + 0.5i and -1 -> -1 - 0.25i takes the
# complex sweep path (7 rows of the lod-scan have a nonzero max_eps_im).
@pytest.mark.parametrize(
    "argv, digest",
    [
        (["lod-scan", "--d", "-1", "--f", "csv:muc.csv"],
         "9e1301c377e7124f9f9e2ee49b5a57847c9c5e76eeb5d99c86a8d90dc3dc8654"),
        (["conv-experiment", "--d", "-1", "--f", "csv:muc.csv", "--g", "prime"],
         "4cbbc59a66942e78259d060b7a56717bfd0ae4a11c70b0435ba1bf1ffdfa3eaf"),
    ],
)
def test_complex_sweep_path_keeps_its_bytes(capsys, tmp_path, monkeypatch, argv, digest):
    monkeypatch.chdir(tmp_path)
    run(capsys, "tabulate", "--d", "-1", "--f", "moebius", "--norm-bound", "400", "--out", "mu.csv")
    data = (tmp_path / "mu.csv").read_bytes()
    data = data.replace(b",1.0,0.0\r\n", b",1.0,0.5\r\n")
    (tmp_path / "muc.csv").write_bytes(data.replace(b",-1.0,0.0\r\n", b",-1.0,-0.25\r\n"))
    for w in ("1", "2"):
        code, _, err = run(
            capsys, *argv, "--theta", "0.4", "--B", "0", "--Ngrid", "10,20",
            "--workers", w, "--out", f"w{w}.csv",
        )
        assert code == 0 and err == ""
        assert hashlib.sha256((tmp_path / f"w{w}.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, name",
    [
        (["sw-check", "--d", "-1", "--f", "one", "--N", "20", "--D", "13.2"], "(log N)^D"),
        (["sw-check", "--d", "-1", "--f", "one", "--N", "3", "--D", "1e3"], "(log N)^D"),
        (["large-sieve", "--d", "-1", "--N", "5", "--Q1", "1", "--Q2", "2000000"], "Q2"),
        (["lod-scan", "--d", "-1", "--f", "one", "--theta", "1", "--B", "0",
          "--Ngrid", "1200", "--workers", "1"], "Q"),
        # past the region guard too: the error blamed hi_sq, not Q2
        (["large-sieve", "--d", "-1", "--N", "5", "--Q1", "2e7", "--Q2", "3e7"], "Q2"),
        (["large-sieve", "--d", "-1", "--N", "5", "--Q1", "2e7", "--Q2", "20000001"], "Q2"),
    ],
)
def test_modulus_range_past_the_guard_fails_at_once(capsys, tmp_path, monkeypatch, argv, name):
    # each built every modulus up to the guard first: 12 s or more
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 3
    assert code == 1 and out == "" and list(tmp_path.iterdir()) == []
    assert err.startswith(f"error: {name} = ") and err.endswith(" of norm > 1048576\n")
    assert err.count("\n") == 1 and "hi_sq" not in err
