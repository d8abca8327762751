"""Golden artifacts: whole-output SHA-256 digests of small CLI runs.

Each case runs `quadlod` in-process in an empty working directory.  Its
output is the bytes of the last step's `--out` file, or that step's stdout
when the step has no `--out`.  The digests in golden.json were recorded by
`record_golden.py`; a change that moves one says which artifact moved and
why.  Every scan runs at --workers 1 and 2 against one digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import pytest

from quadlod.cli import main

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

_MU_CSV = ["tabulate", "--d", "-1", "--f", "moebius", "--norm-bound", "400", "--out", "mu.csv"]
_CACHE = ["--d", "-7", "--max-norm", "500", "--cache-dir", "cache"]
_SCAN = ["--theta", "0.4", "--B", "0"]

# case id -> steps; the digest is of the last step's output
CASES = {
    "ring-info": [["ring-info", "--d", "-163", "--out", "out.txt"]],
    "enumerate": [["enumerate", "--d", "-7", "--N", "4.5", "--out", "out.csv"]],
    "enumerate-annulus": [[
        "enumerate", "--d", "-3", "--N", "2", "--yprime", "2", "--Y", "1.5", "--b", "1.5",
        "--out", "out.csv",
    ]],
    "count": [["count", "--d", "-3", "--N", "20.5"]],
    "density": [["density", "--d", "-163", "--N", "30"]],
    "sieve": [["sieve", "--d", "-2", "--max-norm", "300", "--out", "out.csv"]],
    "factor": [["factor", "--d", "-3", "--x", "30", "--y", "7"]],
    "chars": [["chars", "--d", "-1", "--qx", "5", "--qy", "2", "--out", "out.csv"]],
    "conductors": [["conductors", "--d", "-3", "--qx", "6", "--out", "out.csv"]],
    "tabulate-moebius": [_MU_CSV],
    "convolve-moebius-log": [[
        "convolve", "--d", "-7", "--f", "moebius", "--g", "log", "--norm-bound", "300",
        "--out", "out.csv",
    ]],
    "sw-check-lambda": [[
        "sw-check", "--d", "-3", "--f", "lambda", "--N", "15", "--D", "2", "--out", "out.csv",
    ]],
    "sw-check-csv": [_MU_CSV, [
        "sw-check", "--d", "-1", "--f", "csv:mu.csv", "--N", "9.5", "--D", "2.5",
        "--out", "out.csv",
    ]],
    "large-sieve": [[
        "large-sieve", "--d", "-1", "--N", "12", "--Q1", "3", "--Q2", "30", "--vectors", "5",
        "--seed", "4", "--out", "out.csv",
    ]],
    "mertens": [["mertens", "--d", "-163", "--R", "500"]],
    "cache-load": [["cache", "save", *_CACHE], ["cache", "load", *_CACHE]],
    "cache-inspect": [
        ["cache", "save", *_CACHE],
        ["cache", "inspect", "--path", os.path.join("cache", "primes_d-7_n500.qlod")],
    ],
}

# scans: the last step also gets --workers 1 or 2 and --out
SCANS = {
    "lod-scan-lambda": [["lod-scan", "--d", "-1", "--f", "lambda", *_SCAN, "--Ngrid", "10,20,40"]],
    "lod-scan-log-norm": [[
        "lod-scan", "--d", "-3", "--f", "log_norm", *_SCAN, "--Ngrid", "8,16",
    ]],
    "lod-scan-prime-163": [[
        "lod-scan", "--d", "-163", "--f", "prime", *_SCAN, "--Ngrid", "10,20,40",
    ]],
    "lod-scan-tau-non-monotone": [[
        "lod-scan", "--d", "-2", "--f", "tau", "--theta", "0.7", "--B", "3",
        "--Ngrid", "2,3,5,8,12",
    ]],
    "lod-scan-csv": [_MU_CSV, ["lod-scan", "--d", "-1", "--f", "csv:mu.csv", *_SCAN,
                               "--Ngrid", "10,20"]],
    "conv-experiment-prime": [[
        "conv-experiment", "--d", "-1", "--f", "prime", "--g", "prime", *_SCAN,
        "--Ngrid", "10,20,30",
    ]],
    "conv-experiment-lambda-moebius": [[
        "conv-experiment", "--d", "-7", "--f", "lambda", "--g", "moebius", *_SCAN,
        "--Ngrid", "8,16",
    ]],
}


def run_case(steps: list[list[str]]) -> bytes:
    """Run the steps in the current directory; the last one's output bytes."""
    for argv in steps:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        assert code == 0, argv
    if "--out" in argv:
        with open(argv[argv.index("--out") + 1], "rb") as fh:
            return fh.read()
    return stdout.getvalue().encode()


def all_cases() -> dict[str, list[list[str]]]:
    """Every case, with each scan once (at --workers 1)."""
    return {**CASES, **{k: _with_workers(s, 1) for k, s in SCANS.items()}}


def _with_workers(steps, workers: int):
    return [*steps[:-1], [*steps[-1], "--workers", str(workers), "--out", "out.csv"]]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _golden() -> dict[str, str]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_covers_every_case_and_subcommand():
    assert sorted(_golden()) == sorted(all_cases())
    commands = {
        " ".join(argv[:2] if argv[0] == "cache" else argv[:1])
        for steps in all_cases().values() for argv in steps
    }
    assert commands == {
        "ring-info", "enumerate", "count", "density", "sieve", "factor", "chars",
        "conductors", "tabulate", "convolve", "lod-scan", "conv-experiment", "sw-check",
        "large-sieve", "mertens", "cache save", "cache load", "cache inspect",
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_matches_golden_digest(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert digest(run_case(CASES[case])) == _golden()[case]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(SCANS))
def test_scan_matches_golden_digest_at_any_worker_count(case, workers, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert digest(run_case(_with_workers(SCANS[case], workers))) == _golden()[case]
