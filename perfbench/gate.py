"""Output-correctness gate: compare a workload's artifact with its reference.

For the deterministic workloads the reference is a SHA-256 digest of the
artifact's data rows.  Lines starting with '#' (the config and comment
headers) are skipped, so header-only changes pass while any changed number
fails.  large-sieve rows are compared number by number at a relative
tolerance, because threaded BLAS changes their last digit (see NOTES.md), and
every ratio must satisfy the large sieve inequality with constant 10.

References are recorded by record_refs.py from the commit that defined the
benchmark, and must not be re-recorded to make a changed result pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from workloads import LS_SEEDS, WORKLOADS

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")
RATIO_RTOL = 1e-12
RATIO_MAX = 10.0


def data_rows(path: str) -> list[str]:
    with open(path) as fh:
        return [line.rstrip("\n") for line in fh if not line.startswith("#")]


def digest(path: str) -> str:
    return hashlib.sha256("\n".join(data_rows(path)).encode()).hexdigest()


def ratio_rows(path: str) -> list[list[float]]:
    """(lhs, rhs, ratio) of each large-sieve vector, in vector order."""
    rows = data_rows(path)
    if not rows or rows[0] != "vector,lhs,rhs,ratio":
        raise ValueError("missing large-sieve column header")
    out = []
    for i, line in enumerate(rows[1:]):
        cells = line.split(",")
        if len(cells) != 4 or int(cells[0]) != i:
            raise ValueError(f"malformed row {line!r}")
        out.append([float(c) for c in cells[1:]])
    return out


def reference(name: str, scale: str, seed: int):
    with open(REFS_PATH) as fh:
        ref = json.load(fh)[scale][name]
    return ref[str(seed % LS_SEEDS)] if WORKLOADS[name].seeded else ref


def check(name: str, scale: str, seed: int, path: str) -> str | None:
    """None if the artifact at `path` is correct, else the reason it is not."""
    try:
        expected = reference(name, scale, seed)
        if WORKLOADS[name].check == "hash":
            got = digest(path)
            return None if got == expected else f"data rows digest {got[:12]} != {expected[:12]}"
        rows = ratio_rows(path)
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable artifact: {exc}"
    if len(rows) != len(expected):
        return f"{len(rows)} rows, expected {len(expected)}"
    for i, (got, exp) in enumerate(zip(rows, expected)):
        if not all(math.isclose(g, e, rel_tol=RATIO_RTOL, abs_tol=0.0) for g, e in zip(got, exp)):
            return f"row {i} {got} differs from reference {exp}"
        if not got[2] <= RATIO_MAX:
            return f"row {i} ratio {got[2]} exceeds {RATIO_MAX}"
    return None
