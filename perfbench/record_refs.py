"""Record refs.json, the reference outputs that gate.py checks against.

    python3 perfbench/record_refs.py

Run from the root of a checkout of the commit whose outputs are the
reference.  It runs every workload at both scales (large-sieve once per
folded seed) through the quadlod CLI and stores the data-row digests and the
large-sieve rows.  Re-recording on a later commit would hide any change in
its results, so do it only when a workload's inputs change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import gate
from workloads import LS_SEEDS, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def artifact(w, scale: str, seed: int, workdir: str) -> str:
    out = os.path.join(workdir, "artifact.csv")
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    subprocess.run(
        [sys.executable, "-m", "quadlod.cli", *w.cli_argv(scale, out, seed)],
        check=True, env=env, cwd=workdir, stdout=subprocess.DEVNULL,
    )
    return out


def main() -> None:
    refs: dict = {}
    with tempfile.TemporaryDirectory() as workdir:
        for scale in ("full", "tiny"):
            refs[scale] = {}
            for w in WORKLOADS.values():
                if w.seeded:
                    refs[scale][w.name] = {
                        str(s): gate.ratio_rows(artifact(w, scale, s, workdir))
                        for s in range(LS_SEEDS)
                    }
                else:
                    refs[scale][w.name] = gate.digest(artifact(w, scale, 0, workdir))
                print(f"recorded {scale} {w.name}", file=sys.stderr)
    with open(gate.REFS_PATH, "w") as fh:
        json.dump(refs, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
