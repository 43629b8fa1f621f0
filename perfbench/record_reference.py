"""Record reference.json: the checked outputs of every job for the
reference seed, which later runs with that seed must match (see
checks.py for what "match" means).

Usage (from the repository root): python3 perfbench/record_reference.py

Record it on the commit whose results are the reference, never on a
change under test.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from checks import check_output
from workloads import WORKLOADS, build_jobs

SEED = 1


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    os.chdir(root)
    sys.path.insert(0, "src")
    from graphgrowth.cli import main as cli_main

    reference = {"seed": SEED, "workloads": {}}
    for workload in WORKLOADS:
        out = Path(".perfbench_out") / workload
        out.mkdir(parents=True, exist_ok=True)
        entries = {}
        for job in build_jobs(workload, SEED, out):
            code = cli_main(list(job.argv))
            checked = check_output(job)
            if code != 0 or checked.problems:
                print(f"{job.id}: exit {code}, {checked.problems}", file=sys.stderr)
                return 1
            entries[job.id] = checked.reference_entry(job)
        reference["workloads"][workload] = entries
    target = Path(__file__).resolve().parent / "reference.json"
    target.write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    print(f"wrote {target.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
