"""Record the output digests the correctness gate compares against.

Run from the repository root after a change that is meant to alter the
workloads' deterministic outputs (never to silence a failing gate)::

    python3 perfbench/record_digests.py

It runs each workload once at paper scale for the default seed and one
held-out seed, checks the structural invariants, and rewrites
``perfbench/digests.json``.  Other seeds are checked by the invariants
alone.
"""

from __future__ import annotations

import json
import sys

import run

#: the default ``--seed`` and one seed held out from tuning
SEEDS = (0, 1)


def main() -> int:
    run.require_source()
    from workloads import WORKLOADS

    table = {"paper": {}}
    for name, cls in sorted(WORKLOADS.items()):
        workload = cls("paper")
        workers = run.workers_for(workload)
        for seed in SEEDS:
            inputs = workload.build_inputs(seed)
            _wall, checked = run.timed_iteration(workload, inputs, workers, None)
            if checked.failed or checked.problems:
                print(f"{name} seed {seed}: {checked.problems[:3]}", file=sys.stderr)
                return 1
            table["paper"].setdefault(name, {})[str(seed)] = checked.digest
            print(f"{name} seed {seed}: {checked.digest}")
    (run.HERE / "digests.json").write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
