"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gate  # noqa: E402
import run  # noqa: E402
from probes import Tracer, self_times  # noqa: E402
from record_refs import artifact  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.5",
            "--trace", str(trace), "--scale", "tiny"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= (2 if trace else run.MIN_JOBS)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _tamper(path: str, edit) -> None:
    with open(path) as fh:
        lines = fh.readlines()
    edit(lines)
    with open(path, "w") as fh:
        fh.writelines(lines)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_gate_accepts_header_change_and_rejects_changed_number(workload, tmp_path):
    w = WORKLOADS[workload]
    path = artifact(w, "tiny", 5, str(tmp_path))
    assert gate.check(workload, "tiny", 5, path) is None

    def edit_header(lines):
        lines[0] = "# config: {\"A\": 0, \"format\": \"csv\", \"moved\": true}\n"

    _tamper(path, edit_header)
    assert gate.check(workload, "tiny", 5, path) is None

    def edit_number(lines):
        i = max(i for i, line in enumerate(lines) if not line.startswith("#"))
        head, last = lines[i].rstrip("\n").rsplit(",", 1)
        lines[i] = f"{head},{float(last) * 1.001 + 1e-3!r}\n"

    _tamper(path, edit_number)
    assert gate.check(workload, "tiny", 5, path) is not None


def test_gate_tolerates_last_digit_blas_noise_in_large_sieve(tmp_path):
    path = artifact(WORKLOADS["large-sieve"], "tiny", 2, str(tmp_path))

    def nudge(lines):
        for i, line in enumerate(lines):
            if line[0].isdigit():
                v, lhs, rhs, ratio = line.rstrip("\n").split(",")
                lines[i] = f"{v},{float(lhs) * (1 + 2e-16)!r},{rhs},{ratio}\n"

    _tamper(path, nudge)
    assert gate.check("large-sieve", "tiny", 2, path) is None


def test_gate_rejects_a_ratio_above_the_constant(tmp_path, monkeypatch):
    path = artifact(WORKLOADS["large-sieve"], "tiny", 1, str(tmp_path))
    rows = [[lhs, rhs, ratio * 1e3] for lhs, rhs, ratio in gate.ratio_rows(path)]
    monkeypatch.setattr(gate, "reference", lambda *a: rows)

    def scale_ratios(lines):
        for i, line in enumerate(lines):
            if line[0].isdigit():
                v, lhs, rhs, _ = line.rstrip("\n").split(",")
                lines[i] = f"{v},{lhs},{rhs},{rows[int(v)][2]!r}\n"

    _tamper(path, scale_ratios)
    assert "exceeds" in gate.check("large-sieve", "tiny", 1, path)


def test_self_times_subtract_direct_children():
    tr = Tracer("w")
    with tr.span("root"):
        with tr.span("a"):
            with tr.span("b"):
                pass
    for s, (start, end) in zip(tr.spans, [(0.0, 10.0), (1.0, 7.0), (2.0, 5.0)]):
        s["start"], s["end"] = start, end
    assert self_times(tr.spans) == {"root": 4.0, "a": 3.0, "b": 3.0}
    assert [s["parent"] for s in tr.spans] == [None, 0, 1]
    assert {s["workload"] for s in tr.spans} == {"w"}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mu-log", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
