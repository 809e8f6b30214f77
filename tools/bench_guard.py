#!/usr/bin/env python3
"""Benchmark-regression guard: fresh ratios vs the frozen baselines.

The fast benchmark job regenerates ``results/BENCH_*.json`` on every CI
run.  This guard compares the *ratio* metrics in those fresh files
against the frozen copies committed at ``HEAD`` and fails when a ratio
regressed below tolerance.  Only ratios are guarded: they divide out
machine speed (both arms run in the same process on the same host), so
a slower CI runner cannot flake the gate, while a real slowdown in one
arm still moves the quotient.

Absolute numbers (seconds, episodes/s) are deliberately not compared —
they measure the runner, not the code.

A metric missing or ``null`` in the fresh file is skipped: the fast CI
variants legitimately omit arms the runner cannot reproduce (the
pre-refactor worktree arm needs the baseline commit in the object
store, which shallow clones lack).  A guarded *file* missing from the
frozen baseline is skipped too, so the guard does not break the very PR
that introduces a new benchmark.

Usage::

    python tools/bench_guard.py [--tolerance 0.75] [--ref HEAD]

Exit codes: 0 ok, 1 regression, 2 usage/e.g. git error.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parents[1]

#: file -> ratio metrics guarded in it (all "bigger is better").
GUARDED: Dict[str, List[str]] = {
    "results/BENCH_episode_throughput.json": ["live_speedup"],
    "results/BENCH_decision_loop.json": [
        "fast_vs_legacy_ratio",
        "fast_vs_pre_refactor_speedup",
    ],
    # Both metrics are *simulated* quantities — deterministic per seed,
    # machine-independent (see benchmarks/test_service_throughput.py).
    "results/BENCH_service_throughput.json": [
        "service_vs_serial_ratio",
        "fleet_utilization",
    ],
    # Warm (cache replay) vs cold (full parse) analyzer run, same
    # process/host (see benchmarks/test_reprolint_throughput.py).
    "results/BENCH_reprolint_throughput.json": ["warm_vs_cold_ratio"],
}


def _host_note(payload: dict) -> str:
    """``<cores>c/<pool mode>`` from a BENCH payload ('?' when absent).

    Older frozen baselines predate the ``host_cores``/``pool_mode``
    provenance keys (benchmarks/conftest.py ``host_provenance``), so
    both fields degrade to ``?`` instead of failing the guard.
    """
    cores = payload.get("host_cores")
    mode = payload.get("pool_mode")
    return (f"{cores}c" if cores is not None else "?c") + \
        "/" + (mode if mode is not None else "?")


def _frozen(path: str, ref: str) -> Optional[dict]:
    probe = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "show", f"{ref}:{path}"],
        capture_output=True,
        text=True,
    )
    if probe.returncode != 0:
        return None
    return json.loads(probe.stdout)


def check(tolerance: float, ref: str) -> int:
    failures = 0
    rows: List[tuple] = []
    for rel_path, metrics in sorted(GUARDED.items()):
        fresh_file = REPO_ROOT / rel_path
        if not fresh_file.is_file():
            print(f"bench_guard: SKIP {rel_path} (no fresh file)")
            continue
        frozen = _frozen(rel_path, ref)
        if frozen is None:
            print(f"bench_guard: SKIP {rel_path} (not in {ref})")
            continue
        fresh = json.loads(fresh_file.read_text(encoding="utf-8"))
        for metric in metrics:
            fresh_value = fresh.get(metric)
            frozen_value = frozen.get(metric)
            if fresh_value is None:
                print(f"bench_guard: SKIP {rel_path}:{metric} "
                      "(not measured in this run)")
                continue
            if frozen_value is None:
                print(f"bench_guard: SKIP {rel_path}:{metric} "
                      "(no frozen value)")
                continue
            floor = tolerance * frozen_value
            verdict = "ok" if fresh_value >= floor else "REGRESSION"
            print(f"bench_guard: {verdict} {rel_path}:{metric} "
                  f"fresh={fresh_value:.3f} frozen={frozen_value:.3f} "
                  f"floor={floor:.3f}")
            if fresh_value < floor:
                failures += 1
            rows.append((rel_path, metric, fresh_value, frozen_value,
                         verdict, _host_note(fresh), _host_note(frozen)))
    if rows:
        # one line per guarded ratio, markdown-friendly for CI job
        # summaries: metric | fresh | frozen | fresh/frozen | verdict |
        # host.  The host column shows "<cores>c/<pool mode>" for the
        # fresh and frozen recordings — a ratio measured by the inline
        # engine on a 1-core runner is not directly comparable to one
        # the process pool produced, and the table should say so.
        print()
        print("| benchmark:metric | fresh | frozen | ratio | verdict "
              "| host (fresh/frozen) |")
        print("|---|---|---|---|---|---|")
        for (rel_path, metric, fresh_value, frozen_value, verdict,
             fresh_host, frozen_host) in rows:
            name = Path(rel_path).stem.replace("BENCH_", "")
            print(f"| {name}:{metric} | {fresh_value:.3f} "
                  f"| {frozen_value:.3f} "
                  f"| {fresh_value / frozen_value:.2f} | {verdict} "
                  f"| {fresh_host} / {frozen_host} |")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.75,
        help="fresh ratio must be >= tolerance * frozen ratio "
        "(default 0.75)",
    )
    parser.add_argument(
        "--ref",
        default="HEAD",
        help="git ref holding the frozen baselines (default HEAD)",
    )
    args = parser.parse_args(argv)
    if not 0.0 < args.tolerance <= 1.0:
        parser.error("--tolerance must be in (0, 1]")
    return check(args.tolerance, args.ref)


if __name__ == "__main__":
    sys.exit(main())
