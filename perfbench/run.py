"""The repository benchmark: three workloads, untraced and traced modes.

Run from the repository root::

    python3 perfbench/run.py --workload paper_grid --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps each
layer's public functions (see ``tracing.py``) and reports per-layer counts
and self times instead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it (``{"perfbench": ...}``) records the host,
inputs, per-iteration walls and output digests.  The exit code is 0 only
when every output passed the correctness gate.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh interpreters started per untraced run to time set-up (median reported)
SETUP_PROBES = 5

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("decisions_per_s", "1/s"),
    ("episodes_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER: List[Tuple[str, str]] = [
    ("workflows.build_calls", "count"),
    ("workflows.build_s", "s"),
    ("sim.kernel_builds", "count"),
    ("sim.kernel_build_s", "s"),
    ("sim.episodes", "count"),
    ("sim.run_episode_s", "s"),
    ("core.learn_runs", "count"),
    ("core.learn_s", "s"),
    ("core.learn_s_p50", "s"),
    ("core.learn_s_p85", "s"),
    ("core.decisions", "count"),
    ("core.greedy_replays", "count"),
    ("core.select_s", "s"),
    ("core.dispatch_update_s", "s"),
    ("rl.choose_calls", "count"),
    ("rl.choose_s", "s"),
    ("rl.reward_s", "s"),
    ("rl.qtable_s", "s"),
    ("rl.qtable_json_s", "s"),
    ("rl.qtable_json_bytes", "bytes"),
    ("rl.qtable_entries", "count"),
    ("runner.tasks", "count"),
    ("runner.payload_bytes", "bytes"),
    ("runner.result_bytes", "bytes"),
    ("runner.busy_s", "s"),
    ("runner.idle_share", "ratio"),
    ("schedulers.heft_plan_s", "s"),
    ("scicumulus.xml_roundtrip_s", "s"),
    ("scicumulus.deploy_s", "s"),
    ("scicumulus.mpi_run_s", "s"),
    ("scicumulus.provenance_writes", "count"),
    ("scicumulus.provenance_s", "s"),
    ("service.arrivals_s", "s"),
    ("service.timeline_s", "s"),
    ("service.select_calls", "count"),
    ("service.select_s", "s"),
    ("service.admit_calls", "count"),
    ("service.admit_s", "s"),
    ("service.activations", "count"),
    ("service.peak_in_flight", "count"),
    ("service.metrics_json_s", "s"),
    ("trace.overhead", "ratio"),
]

#: per-layer metric -> (kind, span names); "count" sums span counts,
#: "self" sums self seconds.  Metrics not listed come from tallies,
#: outputs or the runner captures (see ``layer_metrics``).
SPAN_METRICS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "workflows.build_calls": ("count", ("workflows.build",)),
    "workflows.build_s": ("self", ("workflows.build",)),
    "sim.kernel_builds": ("count", ("sim.kernel_build",)),
    "sim.kernel_build_s": ("self", ("sim.kernel_build", "sim.kernel_fingerprint")),
    "sim.episodes": ("count", ("sim.run_episode",)),
    "sim.run_episode_s": ("self", ("sim.run_episode",)),
    "core.learn_s": ("self", ("core.learn",)),
    "core.select_s": ("self", ("core.select",)),
    "core.dispatch_update_s": ("self", ("core.dispatch_update",)),
    "rl.choose_calls": ("count", ("rl.choose",)),
    "rl.choose_s": ("self", ("rl.choose",)),
    "rl.reward_s": ("self", ("rl.reward",)),
    "rl.qtable_s": ("self", ("rl.qtable",)),
    "rl.qtable_json_s": ("self", ("rl.qtable_json",)),
    "schedulers.heft_plan_s": ("self", ("schedulers.heft_plan",)),
    "scicumulus.xml_roundtrip_s": ("self", ("scicumulus.xml",)),
    "scicumulus.deploy_s": ("self", ("scicumulus.deploy",)),
    "scicumulus.mpi_run_s": ("self", ("scicumulus.mpi_run",)),
    "scicumulus.provenance_writes": ("count", ("scicumulus.provenance",)),
    "scicumulus.provenance_s": ("self", ("scicumulus.provenance",)),
    "service.arrivals_s": ("self", ("service.arrivals",)),
    "service.timeline_s": ("self", ("service.timeline",)),
    "service.select_calls": ("count", ("service.select",)),
    "service.select_s": ("self", ("service.select",)),
    "service.admit_calls": ("count", ("service.admit",)),
    "service.admit_s": ("self", ("service.admit",)),
    "service.metrics_json_s": ("self", ("service.metrics_json",)),
}
TALLY_METRICS = ("core.learn_runs", "core.greedy_replays", "rl.qtable_json_bytes", "rl.qtable_entries")
OUTPUT_METRICS = ("core.decisions", "service.activations", "service.peak_in_flight")


def require_source() -> None:
    """Put the checkout's ``src`` first on the path, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no repro package under {SRC}; run from a checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def workers_for(workload) -> int:
    """Pool size of the untraced run: ``min(2, usable cores)`` for the grid."""
    return min(2, usable_cores()) if workload.uses_workers else 1


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def host_facts(workers: int) -> Dict[str, Any]:
    import numpy

    return {
        "usable_cores": usable_cores(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "source_digest": source_digest(),
        "workers": workers,
    }


def recorded_digest(scale: str, workload: str, seed: int) -> Optional[str]:
    table = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    return table.get(scale, {}).get(workload, {}).get(str(seed))


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def nearest_rank(values: List[float], q: float) -> float:
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def setup_probe(args) -> float:
    """Seconds for a fresh interpreter to import repro and build the inputs."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
    ]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    # wait() with a timeout polls in sleeps of up to 50 ms, which would
    # quantise the probe; without one it blocks until the child exits
    guard = threading.Timer(120, proc.kill)
    guard.start()
    try:
        code = proc.wait()
    finally:
        guard.cancel()
    elapsed = time.perf_counter() - started
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return elapsed


def keep_going(started: float, rounds: List[float], seconds: float) -> bool:
    """Another round fits in ``seconds`` (at least one round always runs)."""
    if not rounds:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + statistics.mean(rounds) <= seconds


def timed_iteration(workload, inputs, workers: int, expected: Optional[str], recorder=None,
                    targets=None):
    """One timed run of the user path, then the correctness gate (untimed).

    With a ``recorder`` the wrappers of ``targets`` (default: every layer)
    record spans into it during the run.
    """
    from repro.runner.parallel import clear_kernel_cache
    from tracing import Tracer
    from workloads import Checked

    # each iteration starts as a fresh process would: no cached kernels,
    # no garbage left by the previous one (pool workers fork this heap)
    clear_kernel_cache()
    gc.collect()
    tracer = Tracer(recorder, targets).install() if recorder is not None else None
    started = time.perf_counter()
    try:
        if recorder is not None:
            with recorder.span("iteration"):
                output = workload.run(inputs, workers)
        else:
            output = workload.run(inputs, workers)
        wall = time.perf_counter() - started
    except Exception:  # noqa: BLE001 - a raising run is a failed operation
        wall = time.perf_counter() - started
        return wall, Checked(ops=workload.ops, failed=workload.ops, decisions=0,
                             episodes=0, digest="", problems=[traceback.format_exc()])
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        checked = workload.evaluate(inputs, output, expected)
    except Exception:  # noqa: BLE001 - a gate that cannot read the output fails it
        checked = Checked(ops=workload.ops, failed=workload.ops, decisions=0,
                          episodes=0, digest="", problems=[traceback.format_exc()])
    return wall, checked


def runner_metrics(captures, run_wall: float) -> Dict[str, float]:
    tasks = payload = result = 0
    busy = 0.0
    workers = 1
    for runner, task_list, results in captures:
        workers = max(workers, runner.workers)
        tasks += len(task_list)
        payload += sum(len(pickle.dumps((t.key, t.fn, t.payload, t.seed))) for t in task_list)
        result += sum(len(pickle.dumps(r.value)) for r in results)
        busy += sum(r.duration for r in results)
    idle = 1.0 - busy / (run_wall * workers) if run_wall > 0 else 0.0
    return {
        "runner.tasks": tasks,
        "runner.payload_bytes": payload,
        "runner.result_bytes": result,
        "runner.busy_s": busy,
        "runner.idle_share": idle,
    }


def layer_metrics(recorder, checked) -> Dict[str, float]:
    """Per-layer values of one traced phase (set-up or one iteration)."""
    counts, self_s, total_s = recorder.summary()
    values: Dict[str, float] = {}
    for metric, (kind, names) in SPAN_METRICS.items():
        source = counts if kind == "count" else self_s
        values[metric] = sum(source.get(n, 0) for n in names)
    for metric in TALLY_METRICS:
        values[metric] = recorder.tallies.get(metric, 0)
    for metric in OUTPUT_METRICS:
        values[metric] = checked.counts.get(metric, 0) if checked is not None else 0
    values.update(runner_metrics(recorder.captures, total_s.get("runner.run", 0.0)))
    return values


def run_untraced(args, workload, workers: int, expected, report) -> Tuple[Dict, int, int]:
    inputs = workload.build_inputs(args.seed)
    report["input_digest"] = workload.input_digest(inputs)
    # set-up probes are spread over the run, so their median samples the
    # same stretch of host load as the repetitions
    setup_times = [setup_probe(args)]
    iterations, rounds = [], []
    started = time.perf_counter()
    while keep_going(started, rounds, args.seconds):
        round_started = time.perf_counter()
        iterations.append(timed_iteration(workload, inputs, workers, expected))
        elapsed = time.perf_counter() - started
        if len(setup_times) < 1 + (SETUP_PROBES - 1) * elapsed / max(args.seconds, 1e-9):
            setup_times.append(setup_probe(args))
        rounds.append(time.perf_counter() - round_started)
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(setup_probe(args))
    attempted, failed = gate_summary(iterations, report)
    walls = [w for w, _ in iterations]
    report["setup_s"] = setup_times
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "decisions_per_s": statistics.median(c.decisions / w for w, c in iterations),
        "episodes_per_s": statistics.median(c.episodes / w for w, c in iterations),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, attempted, failed


def run_traced(args, workload, expected, report) -> Tuple[Dict, int, int]:
    from tracing import RUNNER_TARGETS, SpanRecorder, Tracer

    # pool workers' spans are invisible here, so the traced mode runs
    # every iteration in-process, the untraced reference ones included
    workers = 1
    setup = SpanRecorder()
    with Tracer(setup):
        with setup.span("setup"):
            inputs = workload.build_inputs(args.seed, span=setup.span)
    report["input_digest"] = workload.input_digest(inputs)
    setup_values = layer_metrics(setup, None)
    pool, pool_values = [], {}
    pool_workers = workers_for(workload)
    if pool_workers > 1:
        # TaskResult.duration and the returned values do come back from
        # pool workers: one repetition at the untraced worker count, with
        # only the runner wrapped, gives runner.* for the real pool
        recorder = SpanRecorder()
        pool.append(timed_iteration(workload, inputs, pool_workers, expected,
                                    recorder, RUNNER_TARGETS))
        pool_values = runner_metrics(recorder.captures,
                                     recorder.summary()[2].get("runner.run", 0.0))
    untraced, traced, per_iteration, rounds = [], [], [], []
    started = time.perf_counter()
    while keep_going(started, rounds, args.seconds):
        round_started = time.perf_counter()
        recorder = SpanRecorder()
        # alternate which side runs first so neither always pays warm-up
        for side in ((False, True) if len(rounds) % 2 == 0 else (True, False)):
            if side:
                wall, checked = timed_iteration(workload, inputs, workers, expected, recorder)
                traced.append((wall, checked))
                per_iteration.append(layer_metrics(recorder, checked))
            else:
                untraced.append(timed_iteration(workload, inputs, workers, expected))
        if not rounds:
            OUT.mkdir(exist_ok=True)
            recorder.write_json(OUT / f"trace_{workload.name}.json")
        del recorder
        rounds.append(time.perf_counter() - round_started)
    attempted, failed = gate_summary(untraced + traced + pool, report)
    counts = {m for m, unit in PER_LAYER if unit in ("count", "bytes")}
    for values in per_iteration[1:]:
        drift = sorted(m for m in counts if values[m] != per_iteration[0][m])
        if drift:
            report["problems"].append(f"per-layer counts differ between iterations: {drift}")
            failed = max(failed, 1)
    learn_times = [t for _, c in untraced for t in c.learn_times]
    metrics: Dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        if metric == "trace.overhead":
            metrics[metric] = (statistics.median(w for w, _ in traced)
                               / statistics.median(w for w, _ in untraced))
        elif metric == "core.learn_s_p50":
            metrics[metric] = nearest_rank(learn_times, 50) if learn_times else 0.0
        elif metric == "core.learn_s_p85":
            metrics[metric] = nearest_rank(learn_times, 85) if learn_times else 0.0
        elif metric in pool_values:
            metrics[metric] = pool_values[metric]
        elif metric in counts:
            metrics[metric] = setup_values[metric] + per_iteration[0][metric]
        else:
            metrics[metric] = setup_values[metric] + statistics.median(
                v[metric] for v in per_iteration
            )
    report["traced_walls"] = [w for w, _ in traced]
    report["untraced_walls"] = [w for w, _ in untraced]
    report["pool_walls"] = [w for w, _ in pool]
    return metrics, attempted, failed


def gate_summary(iterations, report) -> Tuple[int, int]:
    """Sum the gate over iterations; a digest that changes between
    same-seed iterations fails that iteration too."""
    attempted = failed = 0
    first = iterations[0][1].digest
    for _wall, checked in iterations:
        attempted += checked.ops
        bad = checked.failed
        if checked.digest != first:
            report["problems"].append("output digest changed between same-seed iterations")
            bad = checked.ops
        failed += bad
        report["problems"].extend(checked.problems[: max(0, 20 - len(report["problems"]))])
    report["digest"] = first
    report["walls"] = [w for w, _ in iterations]
    return attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_grid", "montage_pipeline", "serve_stream"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "smoke"), default="paper",
                        help="smoke shrinks every workload for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="import repro, build the inputs and exit (set-up timing probe)")
    args = parser.parse_args(argv)
    require_source()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.scale)
    if args.setup_only:
        workload.build_inputs(args.seed)
        return 0

    workers = workers_for(workload)
    expected = recorded_digest(args.scale, workload.name, args.seed)
    report: Dict[str, Any] = {
        "workload": workload.name, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "digest_recorded": expected is not None,
        "problems": [],
    }
    if args.trace:
        metrics, attempted, failed = run_traced(args, workload, expected, report)
        units = dict(PER_LAYER)
        report["host"] = host_facts(workers)
    else:
        metrics, attempted, failed = run_untraced(args, workload, workers, expected, report)
        units = dict(END_TO_END)
        report["host"] = host_facts(workers)
    correct = failed == 0 and not report["problems"]
    print(json.dumps({"perfbench": report}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
