"""quadlod benchmark: one workload, measured in a closed loop.

    python3 perfbench/run.py --workload conv-prime --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One client runs one CLI job at a time, each
in a fresh interpreter, and starts the next when the last has exited, until
the next job would end after --seconds (at least 3 jobs).  --trace 0 reports
the end-to-end metrics of BENCHMARK.json as medians over the jobs; --trace 1
alternates an untraced and a traced job and reports the per-layer metrics.  Every artifact passes through gate.check; a job that
exits non-zero, times out or fails the check counts as failed.  The last
line of stdout is the JSON result; the machine, each job and the trace spans
are also written under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import gate
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")
MIN_JOBS = 3
JOB_TIMEOUT_S = 150


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="input sizes; tiny is for the benchmark's own tests",
    )
    return ap.parse_args(argv)


def spawn(workdir: str, mode: str, argv=(), workload: str = "", pool: bool = False) -> dict:
    """Run child.py once; its JSON result, or {"error": ...}."""
    result = os.path.join(workdir, "result.json")
    errpath = os.path.join(workdir, "stderr.txt")
    for path in (result, errpath):
        if os.path.exists(path):
            os.remove(path)
    spec = {"mode": mode, "src": SRC, "argv": list(argv), "workload": workload,
            "pool": pool, "result": result}
    with open(errpath, "w") as err:
        spec["spawn"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, json.dumps(spec)],
            stdout=subprocess.DEVNULL, stderr=err, cwd=workdir, start_new_session=True,
        )
        try:
            proc.wait(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return {"error": f"timed out after {JOB_TIMEOUT_S} s"}
    try:
        with open(result) as fh:
            out = json.load(fh)
    except (OSError, ValueError):
        with open(errpath) as fh:
            tail = fh.read().strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"error": f"no result: {tail[0]}"}
    if out.get("rc", 0) != 0:
        out["error"] = f"exit code {out['rc']}"
    return out


def job(w, args, workdir: str, traced: bool) -> dict:
    """One CLI job (traced or not) with its artifact checked."""
    artifact = os.path.join(workdir, "artifact.csv")
    if os.path.exists(artifact):
        os.remove(artifact)
    argv = w.cli_argv(args.scale, artifact, args.seed)
    res = spawn(workdir, "trace" if traced else "run", argv, w.name, traced and w.pool)
    if "error" not in res:
        reason = gate.check(w.name, args.scale, args.seed, artifact)
        if reason is None and not res.get("pool_equal", True):
            reason = "lod_scan records differ between workers=1 and workers=2"
        if reason is not None:
            res["error"] = reason
        res["artifact_bytes"] = os.path.getsize(artifact)
    return res


def closed_loop(seconds: float, min_steps: int, step) -> list:
    """Call step() back to back until the next call would end after `seconds`."""
    t0 = time.monotonic()
    out = []
    while True:
        s = time.monotonic()
        out.append(step())
        now = time.monotonic()
        if len(out) >= min_steps and (now - t0) + (now - s) > seconds:
            return out


def derived_metrics(res: dict, wall_s: float) -> dict:
    """Per-layer values that are not one span's self time or one counter."""
    own, counts = res["self_s"], res["counts"]
    sweep_s = own.get("lab.sweep", 0.0)
    chars = counts.get("characters.chars", 0)
    return {
        "regions.element_arrays_hit_ratio": res["hit_ratio"],
        "characters.primitive_yield": (
            counts["characters.primitive"] / chars if "characters.primitive" in counts and chars
            else 0.0
        ),
        "lab.breakpoints_per_s": counts.get("lab.breakpoints", 0) / sweep_s if sweep_s else 0.0,
        "lab.lod_scan_w2_s": res.get("lod_scan_w2_s", 0.0),
        "lab.pool_speedup": (
            res["lod_scan_w1_s"] / res["lod_scan_w2_s"] if "lod_scan_w2_s" in res else 0.0
        ),
        "lab.large_sieve_self_s": own.get("lab.large_sieve_ratios", 0.0),
        "cli.artifact_bytes": res["artifact_bytes"],
        "trace.total_s": res["total_s"],
        "trace.untraced_wall_s": wall_s,
        "trace.overhead_s": res["total_s"] - wall_s,
        "trace.coverage": res["coverage"],
    }


def per_layer_values(names, res: dict, wall_s: float) -> dict:
    """Every per-layer metric of one traced job; `wall_s` is its untraced twin."""
    derived = derived_metrics(res, wall_s)
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith("_s"):
            out[name] = res["self_s"].get(name[:-2], 0.0)
        else:
            out[name] = res["counts"].get(name, 0)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quadlod", "cli.py")):
        print(f"error: quadlod sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics_spec}
    w = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{w.name}-", dir=OUT_DIR)
    try:
        warm = spawn(workdir, "warmup")  # byte-compiles and loads the sources once
        if "error" in warm:
            print(f"error: warm-up import failed: {warm['error']}", file=sys.stderr)
            return 1
        machine = warm["machine"]
        if args.trace:
            pairs = closed_loop(args.seconds, 1, lambda: (
                job(w, args, workdir, traced=False),
                job(w, args, workdir, traced=True),
            ))
            jobs = [j for pair in pairs for j in pair]
            good = [p for p in pairs if not any("error" in j for j in p)]
            samples = [per_layer_values(units, t, u["wall_s"]) for u, t in good]
            spans = [{**s, "job": i} for i, (_, t) in enumerate(pairs) for s in t.get("spans", ())]
        else:
            jobs = closed_loop(args.seconds, MIN_JOBS, lambda: job(w, args, workdir, traced=False))
            samples = [{k: j[k] for k in units} for j in jobs if "wall_s" in j]
            spans = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum("error" in j for j in jobs)
    for j in jobs:
        if "error" in j:
            print(f"failed job: {j['error']}")
    if not samples:
        print("error: no job produced measurements", file=sys.stderr)
        return 1
    metrics = {
        name: {"value": statistics.median(s[name] for s in samples), "unit": units[name]}
        for name in units
    }
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"workload {w.name}, seed {args.seed}, trace {args.trace}: {len(jobs)} jobs, "
          f"{failed} failed, failed_frac {failed / len(jobs):.4f} ratio; "
          f"medians of {len(samples)} samples")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    record = {"workload": w.name, "seed": args.seed, "trace": args.trace, "scale": args.scale,
              "machine": machine, "metrics": metrics,
              "jobs": [{k: v for k, v in j.items() if k not in ("spans", "machine")} for j in jobs]}
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    if spans:
        with open(os.path.join(OUT_DIR, f"spans-{w.name}-seed{args.seed}.jsonl"), "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
