"""Benchmark-harness configuration and shared measurement helpers.

Every benchmark regenerates one paper artifact (table/figure) exactly
once per session (``pedantic`` with a single round — these are experiment
reproductions, not micro-benchmarks) and writes the rendered artifact to
``results/`` so the repository keeps a copy of the regenerated tables.

The A/B throughput benchmarks (decision loop, service)
share the same measurement discipline, so its
building blocks live here rather than being re-derived per file:

- :func:`gc_paused` — drain the collector before and disable it during
  a timed region, so a collection pause landing in one arm but not the
  other cannot skew a ratio;
- :func:`best_of` — best-of-N repetition, keeping the fastest run;
- :func:`git_head` — commit provenance for frozen ``BENCH_*.json``.

Set ``REPRO_EPISODES`` to scale down learning episode counts (paper: 100).
The repository root goes on ``sys.path`` so benchmarks can import the
test suite's reference implementations (``tests.reference_qtable``)
under a bare ``pytest benchmarks`` as well as ``python -m pytest``.
"""

import contextlib
import gc
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "results"
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_artifact(results_dir, name: str, text: str) -> None:
    """Persist a rendered table/figure and echo it to the test log."""
    (results_dir / name).write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n[saved to results/{name}]")


@contextlib.contextmanager
def gc_paused():
    """Collector drained before, disabled during, re-enabled after."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def best_of(reps, run, elapsed=lambda r: r[1]):
    """Run ``run()`` ``reps`` times; keep the fastest result.

    ``run`` returns any tuple carrying its wall seconds; ``elapsed``
    extracts them (default: second element).
    """
    best = None
    for _ in range(reps):
        result = run()
        if best is None or elapsed(result) < elapsed(best):
            best = result
    return best


def host_provenance():
    """Host facts every frozen ``BENCH_*.json`` must carry.

    ``host_cores`` is the usable core count (CPU affinity aware, so
    container quotas are respected) and ``pool_mode`` says whether a
    multi-worker :class:`~repro.runner.ParallelRunner` can overlap work
    on this host (``"pool"``) or not (``"inline"``: one core, so extra
    workers only add IPC).  Ratio metrics divide machine speed out, but
    whether a pool *could* run in parallel is not divisible away — a
    single-core runner records ratios that a multi-core reader would
    otherwise misattribute to parallel execution.
    """
    from repro.runner.parallel import host_cores

    cores = host_cores()
    return {
        "host_cores": cores,
        "pool_mode": "pool" if cores > 1 else "inline",
    }


def git_head():
    """Short HEAD hash for artifact provenance ('unknown' outside git)."""
    probe = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "rev-parse", "--short", "HEAD"],
        capture_output=True,
        text=True,
    )
    return probe.stdout.strip() if probe.returncode == 0 else "unknown"
