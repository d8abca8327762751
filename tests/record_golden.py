"""Record golden.json, the digests that test_golden.py checks against.

    PYTHONPATH=src python3 tests/record_golden.py

Run it from a checkout of the commit whose artifacts are the reference.
Re-recording on a later commit would hide any change in its artifacts, so
do it only when a case is added or changed.
"""

from __future__ import annotations

import json
import os
import tempfile

from test_golden import GOLDEN_PATH, all_cases, digest, run_case


def main() -> None:
    digests = {}
    for case, steps in all_cases().items():
        with tempfile.TemporaryDirectory() as workdir:
            os.chdir(workdir)
            digests[case] = digest(run_case(steps))
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
