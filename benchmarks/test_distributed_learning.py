"""Distributed-learning benchmark — actor/learner engine vs serial.

Times ReASSIgN learning on Montage-50 (16-vCPU Table-I fleet, paper
parameters α=0.5, γ=1.0, ε=0.1, 100 episodes) two ways:

- **serial**: ``ReassignLearner.learn()`` — the fused lane stepper
  (``repro.core.lane``), one episode at a time on the true Q-table;
- **distributed**: :func:`repro.core.distributed.learn_distributed`
  with ``n_actors=4, batch=8, mode="auto"`` — speculative rollout
  actors, each rolling out eight chained episodes per wave chunk
  against versioned Q-table snapshots, feeding one ordered replay
  learner.

Equivalence gates every number: both arms must agree bit for bit on
the deterministic :func:`~conftest.learning_fingerprint` (Q-table JSON,
plan, per-episode records, simulated learning time) before any
throughput counts — the distributed engine's whole contract is that
actor count never changes a single result byte.

No speed is asserted.  Both arms run the same fused stepper, so the
ratio measures only what distribution adds: on a 2-core host
``mode="auto"`` resolves to the process pool, no speculative episode
hits (every episode's Q-drift invalidates the next one's snapshot),
and the ratio read 0.24–0.33× over four best-of-5 runs.  The earlier 4.09× compared the
stepper with the scheduler-object loop ``learn()`` used to run, not
distribution with serial learning.  The recorded
``speculative_hit_rate``/``host_cores``/``mode`` say which regime a
frozen artifact measured.

Results go to ``results/distributed_learning.md`` (prose) and
``results/BENCH_distributed_learning.json`` (machine-readable).
"""

import json
import os
import time

import pytest

from repro.core.distributed import host_cores, learn_distributed
from repro.core.reassign import ReassignLearner, ReassignParams
from repro.experiments.environments import fleet_for
from repro.workflows.montage import montage

from conftest import (
    gc_paused,
    git_head,
    host_provenance,
    learning_fingerprint,
    save_artifact,
)

#: The paper protocol: Montage-50, 100 learning episodes.  Deliberately
#: NOT scaled by REPRO_EPISODES: the guarded speedup amortizes per-wave
#: overheads over the episode count, so fresh CI values are only
#: comparable to the frozen baseline at the frozen episode count.  The
#: fast variant economizes via reps, not episodes.
_EPISODES = 100
_ACTORS = 4
_BATCH = 8


def _params():
    return ReassignParams(
        alpha=0.5, gamma=1.0, epsilon=0.1, episodes=_EPISODES
    )


def _serial_arm(wf, fleet):
    """One serial reference run; returns (result, wall seconds)."""
    learner = ReassignLearner(wf, fleet, _params(), seed=1)
    with gc_paused():
        started = time.perf_counter()
        result = learner.learn()
        elapsed = time.perf_counter() - started
    return result, elapsed


def _distributed_arm(wf, fleet):
    """One distributed run; returns (result, wall seconds, stats)."""
    stats = {}
    with gc_paused():
        started = time.perf_counter()
        result = learn_distributed(
            wf, fleet, _params(), seed=1, n_actors=_ACTORS, batch=_BATCH,
            mode="auto", stats_out=stats,
        )
        elapsed = time.perf_counter() - started
    return result, elapsed, stats


def _bench_json(reps, serial_s, dist_s, stats):
    payload = {
        "benchmark": "distributed_learning",
        "workflow": "montage-50",
        "vcpus": 16,
        "episodes": _EPISODES,
        "n_actors": _ACTORS,
        "batch": _BATCH,
        "reps_best_of": reps,
        **host_provenance(),
        "commit": git_head(),
        "serial_seconds": serial_s,
        "serial_eps_per_sec": _EPISODES / serial_s,
        "distributed_seconds": dist_s,
        "distributed_eps_per_sec": _EPISODES / dist_s,
        "distributed_vs_serial_speedup": serial_s / dist_s,
        "mode": stats["mode"],
        "waves": stats["waves"],
        "exact_commits": stats["exact_commits"],
        "speculative_hits": stats["speculative_hits"],
        "speculative_misses": stats["speculative_misses"],
        "resims": stats["resims"],
        "speculative_hit_rate": stats["speculative_hit_rate"],
        "final_width": stats["final_width"],
    }
    return json.dumps(payload, indent=1, sort_keys=True)


def _fmt_rate(rate):
    """Hit rate for prose; None means the engine never speculated."""
    return "n/a (no speculation)" if rate is None else f"{rate:.2f}"


def _render_note(reps, serial_s, dist_s, stats):
    return "\n".join([
        "# Distributed learning throughput (actor/learner A/B)",
        "",
        f"- host cores: {host_cores()} (os.cpu_count {os.cpu_count()})",
        f"- commit: {git_head()}",
        "- workflow: Montage-50, 16-vCPU Table-I fleet, a=0.5 g=1.0 "
        "e=0.1",
        f"- episodes per arm: {_EPISODES} (best of {reps})",
        f"- serial (ReassignLearner.learn, fused stepper): {serial_s:.3f} s "
        f"({_EPISODES / serial_s:.1f} eps/s)",
        f"- distributed (n_actors={_ACTORS}, batch={_BATCH}, "
        f"mode={stats['mode']}): "
        f"{dist_s:.3f} s ({_EPISODES / dist_s:.1f} eps/s)",
        f"- distributed vs serial: {serial_s / dist_s:.2f}x",
        f"- speculation: {stats['speculative_hits']} hits / "
        f"{stats['speculative_misses']} misses "
        f"(hit rate {_fmt_rate(stats['speculative_hit_rate'])}, "
        f"{stats['exact_commits']} exact commits, "
        f"{stats['resims']} re-simulations, "
        f"final wave width {stats['final_width']})",
        "",
        "Both arms produced bit-identical learning fingerprints",
        "(Q-table JSON, plan, per-episode records, simulated learning",
        "time) before any throughput counted.  Both arms run the fused",
        "lane stepper, so the ratio is what distribution adds on this",
        "host: actor-side rollout overlapping learner-side replay, paid",
        "for with snapshot shipping, pool IPC and re-simulation of",
        "every missed speculative episode.",
    ])


def _run_and_record(results_dir, reps):
    wf = montage(50, seed=1)
    fleet = fleet_for(16)
    # warmup outside the timed reps (primes numpy, kernel caches)
    _distributed_arm(wf, fleet)
    _serial_arm(wf, fleet)
    # interleave the arms rep by rep: on a contended host a noise
    # window then inflates both arms instead of landing entirely on
    # one, so the best-of quotient stays a code measurement
    serial_res, serial_s = _serial_arm(wf, fleet)
    dist_res, dist_s, stats = _distributed_arm(wf, fleet)
    for _ in range(reps - 1):
        res, secs = _serial_arm(wf, fleet)
        if secs < serial_s:
            serial_res, serial_s = res, secs
        res, secs, st = _distributed_arm(wf, fleet)
        if secs < dist_s:
            dist_res, dist_s, stats = res, secs, st
    assert learning_fingerprint(dist_res) == learning_fingerprint(
        serial_res
    ), "distributed engine diverged from the serial path — numbers void"
    save_artifact(
        results_dir,
        "distributed_learning.md",
        _render_note(reps, serial_s, dist_s, stats),
    )
    save_artifact(
        results_dir,
        "BENCH_distributed_learning.json",
        _bench_json(reps, serial_s, dist_s, stats),
    )
    return serial_s, dist_s


@pytest.mark.fast
def test_distributed_learning_fast(results_dir):
    """CI A/B at the frozen protocol, single rep (equivalence-gated)."""
    _run_and_record(results_dir, reps=1)


def test_distributed_learning_full(results_dir):
    """Full A/B, best of 5 per arm (equivalence-gated)."""
    _run_and_record(results_dir, reps=5)
