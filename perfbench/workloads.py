"""The four benchmark workloads: CLI argument lists and how to check them.

Sizes are scaled down from the paper-scale runs (conv-prime at Ngrid
100,200,400 takes 25-30 s on a 2-core box) so that one repetition takes
2-4 s and a run of a few tens of seconds holds several repetitions,
whose median is reported.  The layer mix of each workload is kept: see
NOTES.md for the share of time each layer takes.

`tiny` sizes exist for the benchmark's own tests only.
"""

from __future__ import annotations

from dataclasses import dataclass

# large-sieve draws its sign vectors from the CLI --seed; the benchmark seed
# is folded onto this many recorded references (see gate.py).
LS_SEEDS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # quadlod CLI arguments, without --out and --seed
    full: tuple[str, ...]  # size flags of the measured runs
    tiny: tuple[str, ...]  # size flags of the test runs
    check: str  # "hash" (data-row digest) or "ratios" (row-wise tolerance)
    seeded: bool = False
    pool: bool = False  # traced runs also time lod_scan at workers=1 and 2

    def cli_argv(self, scale: str, out: str, seed: int) -> list[str]:
        argv = [*self.argv, *(self.full if scale == "full" else self.tiny), "--out", out]
        if self.seeded:
            argv += ["--seed", str(seed % LS_SEEDS)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        # One worker: with two on a shared 2-vCPU machine, wall_s follows how much
        # of the second vCPU other tenants leave free (run medians spread 20 %).
        # The pool is measured by the traced run's lab.pool_speedup.
        Workload(
            "conv-prime",
            ("conv-experiment", "--d", "-1", "--f", "prime", "--g", "prime",
             "--theta", "0.4", "--B", "0", "--workers", "1"),
            ("--Ngrid", "40,80,120"),
            ("--Ngrid", "20,40"),
            check="hash",
            pool=True,
        ),
        Workload(
            "mu-log",
            ("convolve", "--d", "-1", "--f", "moebius", "--g", "log"),
            ("--norm-bound", "50000"),
            ("--norm-bound", "400"),
            check="hash",
        ),
        Workload(
            "sw-lambda",
            ("sw-check", "--d", "-3", "--f", "lambda", "--D", "2"),
            ("--N", "120"),
            ("--N", "30"),
            check="hash",
        ),
        Workload(
            "large-sieve",
            ("large-sieve", "--d", "-1", "--Q1", "10", "--vectors", "100"),
            ("--N", "50", "--Q2", "150"),
            ("--N", "30", "--Q2", "30"),
            check="ratios",
            seeded=True,
        ),
    )
}
