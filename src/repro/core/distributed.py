"""Deterministic distributed learning: speculative actors + ordered replay.

``learn_distributed`` splits ``ReassignLearner.learn()`` into N rollout
**actors** and one **learner** without giving up the repo's
bit-reproducibility contract: the returned
:class:`~repro.core.episode.LearningResult` is byte-identical to the
serial learner's for *any* actor count (pinned against the object-path
reference across actors ∈ {1, 2, 4, 7} in
``tests/test_distributed_learning.py``).

How it works
------------

- **Wave dispatch.**  With the true learner state committed through
  episode ``C``, one versioned checkpoint (a
  :meth:`QTable.snapshot() <repro.rl.qtable.QTable.snapshot>` plus the
  policy-stream and reward state) is shipped to the actor fleet, and
  episode ``C+j`` is assigned to actor ``perm[(C+j) % N]`` — a fixed
  actor→episode interleave drawn once from the sha256
  :func:`~repro.util.rng.derive_seed` scheme, so the assignment is
  itself reproducible.  Actor ``j`` therefore simulates its episode at
  snapshot *staleness* ``j``: the wave head (``j = 0``) runs against
  the exact committed state, the rest run **speculatively**.
- **Traces.**  Every actor episode logs a compact per-step decision
  trace (:class:`~repro.sim.trace.DecisionStep`: the interned action
  space, ε-draw outcome, chosen action, observed ``(te, tf)``, reward
  and Q-write, all stamped with the consulted table version).
- **Ordered replay.**  The learner consumes traces in strict episode
  order.  A trace whose base version still equals the true table's
  version is provably exact — the engine is deterministic and the
  actor started from byte-identical state — so its Q-writes are
  adopted directly and cheaply.  A stale trace is *validated*: each
  step is replayed against the true table through
  :class:`~repro.rl.replay.ReplayKernel` (the per-step gather/scatter
  form of the PR 8 ``update_batch`` primitives), performing every true
  draw in order; a step whose ε-draw outcome and argmax are unchanged
  by the staleness applies directly, and the first mismatching step
  triggers a deterministic in-learner re-simulation of the episode —
  the authoritative recomputation of the divergent suffix — from a
  rollback checkpoint.
- **Speculation throttle.**  A deterministic AIMD controller adapts
  the wave width to the measured speculation hit-rate (halve on an
  all-miss wave, double on an all-hit one, probe periodically), so
  workloads whose per-episode Q-drift defeats speculation degrade
  gracefully to exact-base dispatch instead of paying for doomed
  rollouts.  Hits are deterministic, hence so is the throttle — and
  the logged hit-rate statistics.

Execution modes: ``"pool"`` runs the actors as long-lived
:class:`~repro.runner.parallel.ParallelRunner` worker processes (one
persistent pool for the whole run, per-worker kernel reuse via the
shared kernel cache); ``"inline"`` runs the same wave/commit pipeline
in-process with the wave head driving the true state directly — and,
because sequential in-process speculation can never pay for itself,
pins the wave width to 1 unless ``validate_exact`` audits are on;
``"auto"`` picks ``pool`` only when both the actor count and the
host's usable cores exceed one.
"""

from __future__ import annotations

import copy
import math
import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.batch import BatchSpec
from repro.core.episode import EpisodeRecord, LearningResult
from repro.core.lane import (
    EpisodeOutcome,
    _drive_episode,
    _FastLane,
    _LiteResult,
    fast_lane_eligible,
)
from repro.core.reassign import (
    ReassignLearner,
    ReassignParams,
    ReassignScheduler,
    SimulatedLearningClock,
)
from repro.dag.graph import Workflow
from repro.rl.replay import ReplayKernel
from repro.sim.failures import FailureModel
from repro.sim.fluctuation import FluctuationModel
from repro.sim.kernel import BatchEpisodeState, EpisodeKernel
from repro.sim.metrics import SimulationResult
from repro.sim.migration import MigrationModel
from repro.sim.network import NetworkModel
from repro.sim.trace import (
    EpisodeTrace,
    ReplayContext,
    ReplayPending,
    TraceBuilder,
    TracingScheduler,
)
from repro.sim.vm import Vm
from repro.util.rng import RngService, derive_seed
from repro.util.validate import ValidationError

__all__ = ["learn_distributed"]

_MODES = ("auto", "inline", "pool")

#: With the throttle collapsed to width 1, re-probe speculation every
#: this many waves (costs at most one re-simulation per probe).
_PROBE_INTERVAL = 16
#: Stop probing for good after this many consecutive all-miss probes —
#: the workload's per-episode Q-drift has proven speculation hopeless.
_PROBE_GIVEUP = 2

#: (t, steps, reward_sum, reward EWMA, per-VM Welford state ×5, global
#: Welford state ×4) — everything mutable on a _FastLane besides the
#: Q-table itself.
_RewardState = Tuple[
    int, int, float, float, Dict[int, int], List[int], List[float],
    List[int], List[float], List[float], int, float, int, float,
]

#: Fused checkpoint: Q-table snapshot + policy-stream state + reward.
_FusedBase = Tuple[Any, Dict[str, Any], _RewardState]


def host_cores() -> int:
    """Usable CPU cores (affinity-aware where the platform supports it)."""
    getaff = getattr(os, "sched_getaffinity", None)
    if getaff is not None:
        try:
            return max(1, len(getaff(0)))
        except OSError:  # pragma: no cover - platform quirk
            pass
    return max(1, os.cpu_count() or 1)


# -- fused-chain checkpointing ------------------------------------------------


def _fused_checkpoint(
    lane: _FastLane, since: Optional[int] = None
) -> _FusedBase:
    """Capture everything a rollout actor needs to *become* this lane.

    ``since=K`` captures the Q-table as a version-delta instead
    (:meth:`QTable.snapshot`): only the rows touched at or after
    version ``K`` travel, so a pool-transported checkpoint serializes
    the touched rows plus the small lane scalars rather than the whole
    store.  The receiver must hold the exact version-``K`` table the
    delta patches (workers keep the pristine version-0 state cached and
    reconstruct from there).
    """
    reward_state: _RewardState = (
        lane.t, lane.steps, lane.reward_sum, lane.reward,
        dict(lane.pos), list(lane.exec_n), list(lane.exec_mean),
        list(lane.queue_n), list(lane.queue_mean), list(lane.index),
        lane.g_exec_n, lane.g_exec_mean, lane.g_queue_n, lane.g_queue_mean,
    )
    return (
        lane.qtable.snapshot(since=since),
        lane.rng.bit_generator.state,
        reward_state,
    )


def _fused_restore(lane: _FastLane, base: _FusedBase) -> None:
    """Restore a lane from a checkpoint (reusable: copies on the way in)."""
    snap, rng_state, rw = base
    lane.qtable.restore(snap)
    # rolling the table back invalidates the lean loop's action-slice
    # cache (its id_lists assume monotonic interning)
    lane.pairs_memo = {}
    # restore() swaps the backing store object on the shard backend
    lane.store = (
        lane.qtable._store
        if lane.params.qtable_backend == "shard"
        else None
    )
    lane.rng.bit_generator.state = rng_state
    (lane.t, lane.steps, lane.reward_sum, lane.reward) = rw[0], rw[1], rw[2], rw[3]
    lane.pos = dict(rw[4])
    lane.exec_n = list(rw[5])
    lane.exec_mean = list(rw[6])
    lane.queue_n = list(rw[7])
    lane.queue_mean = list(rw[8])
    lane.index = list(rw[9])
    lane.g_exec_n = rw[10]
    lane.g_exec_mean = rw[11]
    lane.g_queue_n = rw[12]
    lane.g_queue_mean = rw[13]


def _reward_step(lane: _FastLane, vm_id: int, te: float, tf: float) -> float:
    """The §III-B reward, op-for-op as the fused loop inlines it."""
    pos = lane.pos.get(vm_id)
    if pos is None:
        pos = len(lane.pos)
        lane.pos[vm_id] = pos
        lane.exec_n.append(0)
        lane.exec_mean.append(0.0)
        lane.queue_n.append(0)
        lane.queue_mean.append(0.0)
        lane.index.append(0.0)
    n = lane.exec_n[pos] + 1
    lane.exec_n[pos] = n
    mean = lane.exec_mean[pos]
    mean += (te - mean) / n
    lane.exec_mean[pos] = mean
    qn = lane.queue_n[pos] + 1
    lane.queue_n[pos] = qn
    qmean = lane.queue_mean[pos]
    qmean += (tf - qmean) / qn
    lane.queue_mean[pos] = qmean
    r_mu = lane.mu
    vm_index = mean * r_mu + (1.0 - r_mu) * qmean
    lane.index[pos] = vm_index
    lane.g_exec_n += 1
    lane.g_exec_mean += (te - lane.g_exec_mean) / lane.g_exec_n
    lane.g_queue_n += 1
    lane.g_queue_mean += (tf - lane.g_queue_mean) / lane.g_queue_n
    global_index = lane.g_exec_mean * r_mu + (1.0 - r_mu) * lane.g_queue_mean
    sn = 0
    smean = 0.0
    sm2 = 0.0
    for x in lane.index:
        sn += 1
        d = x - smean
        smean += d / sn
        sm2 += d * (x - smean)
    std = math.sqrt(sm2 / sn) if sn >= 2 else 0.0
    r_i = -1.0 if vm_index > global_index + std else 1.0
    lane.reward = lane.reward + lane.rho * (r_i - lane.reward)
    return lane.reward


# -- actor-side episode execution ---------------------------------------------


def _run_fused_chunk(
    kernel: EpisodeKernel,
    params: ReassignParams,
    spec_seed: int,
    base: _FusedBase,
    chunk: Sequence[int],
    env_seeds: Sequence[int],
    actor: int,
    want_post: bool,
    last_episode: int,
    lane: Optional[_FastLane] = None,
    bstate: Optional[BatchEpisodeState] = None,
) -> List[EpisodeTrace]:
    """One speculative wave chunk: B chained episodes from one ``base``.

    The lane is restored from ``base`` once, then runs the chunk's
    episodes back to back — episode ``i`` speculates on the lane's own
    evolution through episodes ``0..i-1``, exactly how the true learner
    chain would evolve if the whole chunk is adopted.  Every trace is
    stamped with the chunk's base version; ``want_post`` attaches the
    post-chunk checkpoint to the *last* trace (wholesale adoption).

    ``lane``/``bstate`` optionally reuse caller-owned scratch objects
    (the lane is restored in place, the batch view ``reset()`` in
    place) instead of rebuilding per chunk.  Episodes other than the
    run's ``last_episode`` run lite — their traces carry the
    completion-ordered assignment instead of full records.
    """
    if lane is None:
        lane = _FastLane(ReassignScheduler(params, seed=spec_seed))
    _fused_restore(lane, base)
    base_version = lane.qtable.version
    n = len(chunk)
    if bstate is None or bstate.batch < n:
        bstate = BatchEpisodeState(kernel, n)
    bstate.reset()
    out: List[EpisodeTrace] = []
    for i, episode in enumerate(chunk):
        steps = TraceBuilder()
        result = _drive_episode(
            kernel, lane, env_seeds[i], trace=steps,
            lite=episode != last_episode,
        )
        bstate.snapshot(i, result.makespan, lane.steps)
        lite = not isinstance(result, SimulationResult)
        out.append(
            EpisodeTrace(
                episode=episode,
                seed=env_seeds[i],
                actor=actor,
                base_version=base_version,
                steps=steps,
                makespan=float(bstate.makespan[i]),
                final_state=result.final_state,
                records=None if lite else list(result.records),
                assignment=result.assignment if lite else None,
                steps_count=int(bstate.steps[i]),
                reward_sum=lane.reward_sum,
                final_reward=lane.reward,
                post_state=None,
            )
        )
    if want_post:
        # want_post chunks travel back through the pool: ship the
        # post-chunk table as a delta over the wave base the learner
        # still holds (the chunk never bumps the version, so every row
        # it touched is stamped with the base era)
        out[-1].post_state = _fused_checkpoint(lane, since=base_version)
    return out


def _run_generic_chunk(
    kernel: EpisodeKernel,
    sched: ReassignScheduler,
    chunk: Sequence[int],
    env_seeds: Sequence[int],
    actor: int,
    want_post: bool,
) -> List[EpisodeTrace]:
    """One speculative chunk driving a private scheduler copy, chained."""
    base_version = sched.qtable.version
    out: List[EpisodeTrace] = []
    for i, episode in enumerate(chunk):
        proxy = TracingScheduler(sched)
        result = kernel.run_episode(proxy, env_seeds[i])
        out.append(
            EpisodeTrace(
                episode=episode,
                seed=env_seeds[i],
                actor=actor,
                base_version=base_version,
                steps=proxy.steps,
                makespan=result.makespan,
                final_state=result.final_state,
                records=list(result.records),
                steps_count=sched.episode_steps,
                reward_sum=sched._reward_sum,
                final_reward=sched.episode_final_reward,
                post_state=None,
            )
        )
    if want_post:
        out[-1].post_state = sched
    return out


#: Worker-process scratch caches (persistent pool workers only): the
#: fused lane keyed by (root seed, params) and the batch view keyed by
#: (kernel identity, width).  Both are fully re-initialized per chunk
#: (restore / reset), so reuse can never leak state between chunks; the
#: view entry pins its kernel, so the id key cannot be recycled.
_WORKER_LANES: Dict[Tuple[int, ReassignParams], _FastLane] = {}
_WORKER_VIEWS: Dict[Tuple[int, int], BatchEpisodeState] = {}
#: Pristine version-0 Q-table snapshot per lane key — the local base
#: that cumulative delta checkpoints (snapshot(since=0)) patch onto.
#: Purely a function of (seed, params), so it never goes stale.
_WORKER_BASE0: Dict[Tuple[int, ReassignParams], Any] = {}


def _actor_task(payload: Tuple[Any, ...], seed: int) -> List[EpisodeTrace]:
    """Worker-side rollout task (one chunk; kernel reused per worker).

    The payload ships the full spec so the worker can rebuild (or pull
    from its shared cache, via the task's declared kernel fingerprint)
    the episode kernel, plus the wave-base learner state.  ``seed`` is
    the runner's derived per-task seed; the episodes' env seeds travel
    in the payload because they must match the serial learner's
    ``spawn_seed(f"episode:{i}")`` exactly.
    """
    (spec, fused, base, chunk, chunk_seeds, actor, want_post,
     last_episode) = payload
    learner = ReassignLearner(
        spec.workflow,
        spec.vms,
        spec.params,
        network=spec.network,
        fluctuation=spec.fluctuation,
        failures=spec.failures,
        migrations=spec.migrations,
        seed=spec.seed,
        max_attempts=spec.max_attempts,
        single_slot_learning=spec.single_slot_learning,
    )
    kernel = learner.kernel
    if fused:
        lkey = (spec.seed, learner.params)
        lane = _WORKER_LANES.get(lkey)
        if lane is None:
            lane = _FastLane(learner.scheduler)
            _WORKER_LANES[lkey] = lane
            _WORKER_BASE0[lkey] = lane.qtable.snapshot()
        if base[0].base_version is not None:
            # cumulative delta: re-seat the pristine version-0 table,
            # then _fused_restore patches the touched rows in place
            lane.qtable.restore(_WORKER_BASE0[lkey])
        vkey = (id(kernel), len(chunk))
        bstate = _WORKER_VIEWS.get(vkey)
        if bstate is None or bstate.kernel is not kernel:
            bstate = BatchEpisodeState(kernel, len(chunk))
            _WORKER_VIEWS[vkey] = bstate
        return _run_fused_chunk(
            kernel, learner.params, spec.seed, base, chunk, chunk_seeds,
            actor, want_post, last_episode, lane=lane, bstate=bstate,
        )
    # base is this process's private unpickled scheduler copy
    return _run_generic_chunk(
        kernel, base, chunk, chunk_seeds, actor, want_post,
    )


# -- learner-side ordered replay ----------------------------------------------


def _precompute_rewards(lane: _FastLane, trace: EpisodeTrace) -> List[float]:
    """Every §III-B reward of a trace, ahead of the validation scan.

    Op-for-op ``_reward_step`` over the trace's columnar arrays —
    rewards depend only on the traced ``(vm, te, tf)`` sequence, never
    on the Q-table or a draw, so hoisting them out of the replay loop
    is unobservable: a fully validated trace applies them all, and a
    divergent one rolls the lane (reward state included) back to its
    checkpoint.
    """
    act_v = trace.act_v
    te_col = trace.te
    tf_col = trace.tf
    out: List[float] = []
    for i in range(int(act_v.shape[0])):  # reprolint: disable=RL015  (running means are order-sensitive)
        r_t = _reward_step(
            lane, int(act_v[i]), float(te_col[i]), float(tf_col[i])
        )
        lane.reward_sum += r_t
        out.append(r_t)
    return out


def _replay_fused(
    lane: _FastLane, trace: EpisodeTrace, params: ReassignParams
) -> Tuple[bool, int]:
    """Validate a stale trace against the true lane.

    Performs every true draw in trace order (ε-coin, tie-breaks,
    lazy-init) and applies each validated update through the
    replay-apply kernels.  Returns ``(ok, divergence_step)`` — on the
    first step whose true selection differs from the traced action the
    lane is left mid-episode and the caller rolls back and re-simulates.

    When the Q-row is fully initialized (the steady state after the
    first few episodes) the whole trace goes through the columnar
    batched pass — rewards precomputed, pool resolved once, one
    Q-row gather (:meth:`ReplayKernel.validate_trace`).  A cold table
    falls back to the step-wise kernels, whose lazy first-touch draws
    the batched pass cannot reorder.
    """
    lane.start_episode()
    rk = ReplayKernel(lane.qtable, lane.exploit_p, params.alpha)
    rng_random = lane.rng.random
    rng_integers = lane.rng.integers
    gamma = params.gamma
    discount_power = params.discount_power
    entries = rk.begin_trace(trace)
    if entries is not None:
        n = trace.n_steps
        rewards = _precompute_rewards(lane, trace)
        if discount_power:
            gammas = [gamma ** t for t in range(1, n + 1)]
        else:
            gammas = [gamma] * n
        ok, div = rk.validate_trace(
            trace, entries, rewards, gammas, rng_random, rng_integers
        )
        if ok:
            lane.t += n
            lane.steps += n
        return ok, div
    for i, step in enumerate(trace.steps):  # reprolint: disable=RL015  (fallback: draws are sequential)
        action, sel_aid = rk.choose(step.pairs, rng_random, rng_integers)
        if action != step.action:
            return False, i
        r_t = _reward_step(lane, action[1], step.te, step.tf)
        lane.reward_sum += r_t
        gamma_t = gamma ** lane.t if discount_power else gamma
        future = rk.future(step.next_pairs)
        rk.apply(action, sel_aid, r_t, gamma_t, future)
        lane.t += 1
        lane.steps += 1
    return True, len(trace.steps)


def _replay_generic(
    sched: ReassignScheduler, trace: EpisodeTrace, workflow: Workflow
) -> Tuple[bool, int]:
    """Validate a stale trace by driving the true scheduler's own hooks."""
    sched.on_simulation_start(ReplayContext((), workflow))
    for i, step in enumerate(trace.steps):  # reprolint: disable=RL015  (drives the true scheduler's own hooks)
        ctx = ReplayContext(step.pairs, workflow, step.n_finished)
        got = sched.select(ctx)
        if got != step.action:
            return False, i
        sched.on_dispatched(
            ReplayContext(step.next_pairs, workflow, step.n_finished),
            ReplayPending(step.action[0], step.action[1], step.te, step.tf),
        )
    sched.on_simulation_end(ReplayContext((), workflow), None)
    return True, len(trace.steps)


def _result_from_trace(
    kernel: EpisodeKernel, trace: EpisodeTrace
) -> EpisodeOutcome:
    """Reconstruct the episode's simulation outcome from its trace.

    Lite traces (no records — every episode except the run's final one)
    reconstruct to a :class:`~repro.core.lane._LiteResult`; everything a
    committed episode reads off it (makespan, final state, assignment)
    is byte-identical to the full result's.
    """
    # lite marker: the trace carries the completion-ordered assignment
    # instead of records (EpisodeTrace normalizes records=None to [])
    if trace.assignment is not None:
        return _LiteResult(
            makespan=trace.makespan,
            final_state=trace.final_state,
            assignment=trace.assignment,
        )
    return SimulationResult(
        workflow_name=kernel.workflow.name,
        records=list(trace.records),
        makespan=trace.makespan,
        final_state=trace.final_state,
        vms=list(kernel.vms),
    )


# -- the distributed learner --------------------------------------------------


def learn_distributed(
    workflow: Workflow,
    vms: Sequence[Vm],
    params: Optional[ReassignParams] = None,
    *,
    seed: int = 0,
    network: Optional[NetworkModel] = None,
    fluctuation: Optional[FluctuationModel] = None,
    failures: Optional[FailureModel] = None,
    migrations: Optional[MigrationModel] = None,
    max_attempts: int = 1,
    single_slot_learning: bool = False,
    n_actors: int = 1,
    batch: int = 1,
    mode: str = "auto",
    timing: str = "wall",
    validate_exact: bool = False,
    stats_out: Optional[Dict[str, Any]] = None,
) -> LearningResult:
    """Distributed actor/learner training, bit-identical to serial.

    Parameters mirror :class:`~repro.core.reassign.ReassignLearner`;
    the additions:

    n_actors:
        Rollout actor count (≥ 1).  Any value yields byte-identical
        results; it only changes how episodes are produced.
    batch:
        Episodes per actor wave chunk (≥ 1).  Each actor speculates
        ``batch`` *consecutive* episodes chained from one snapshot
        (the fused lane stepper of :mod:`repro.core.lane` driven end
        to end), so checkpoint shipping, worker dispatch and lane
        setup amortize across the chunk.  Like ``n_actors``, any value
        yields byte-identical results.
    mode:
        ``"pool"`` (persistent worker processes), ``"inline"``
        (in-process actors, no IPC), or ``"auto"`` (pool only when
        both ``n_actors`` and the usable core count exceed one).
    timing:
        ``"wall"`` or ``"simulated"`` — same semantics as
        :func:`~repro.core.batch.learn_batch`; use ``"simulated"``
        when comparing results bit-for-bit.
    validate_exact:
        Test knob: force even guaranteed-exact wave-head episodes
        through the full validation replay (every step must then hit —
        asserted by the equivalence suite; guards snapshot fidelity).
    stats_out:
        Optional dict populated with run statistics (speculation
        hit-rate, re-simulation count, wave geometry, host cores).
        Kept outside :class:`~repro.core.episode.LearningResult` so
        the result stays byte-comparable to serial learning.
    """
    if n_actors < 1:
        raise ValidationError(f"n_actors must be >= 1, got {n_actors}")
    if batch < 1:
        raise ValidationError(f"batch must be >= 1, got {batch}")
    if mode not in _MODES:
        allowed = ", ".join(repr(m) for m in _MODES)
        raise ValidationError(f"mode must be one of {allowed}, got {mode!r}")
    if timing not in ("wall", "simulated"):
        raise ValidationError(
            f"timing must be 'wall' or 'simulated', got {timing!r}"
        )
    params = params if params is not None else ReassignParams()
    simulated = timing == "simulated"
    spec = BatchSpec(
        workflow=workflow,
        vms=vms,
        params=params,
        seed=int(seed),
        network=network,
        fluctuation=fluctuation,
        failures=failures,
        migrations=migrations,
        max_attempts=max_attempts,
        single_slot_learning=single_slot_learning,
    )
    learner = ReassignLearner(
        spec.workflow,
        spec.vms,
        params,
        network=spec.network,
        fluctuation=spec.fluctuation,
        failures=spec.failures,
        migrations=spec.migrations,
        seed=spec.seed,
        max_attempts=spec.max_attempts,
        single_slot_learning=spec.single_slot_learning,
        clock=SimulatedLearningClock() if simulated else None,
    )
    kernel = learner.kernel
    fused = fast_lane_eligible(params)
    chain_sched = learner.scheduler
    # the fused chain runs on the learner's own scheduler state, so the
    # result tail below is learn()'s for both chains
    chain_lane = _FastLane(chain_sched) if fused else None

    if mode == "auto":
        effective_mode = (
            "pool" if n_actors > 1 and host_cores() > 1 else "inline"
        )
    else:
        effective_mode = mode
    pool = effective_mode == "pool"

    episodes = params.episodes
    rng = RngService(spec.seed)
    env_seeds = [
        rng.spawn_seed(f"episode:{i}") for i in range(episodes)
    ]
    # fixed actor→episode interleave off the sha256 derive_seed scheme
    interleave = (
        RngService(derive_seed(spec.seed, "actor-interleave"))
        .stream("actor-interleave")
        .permutation(n_actors)
    )

    fp = learner.kernel_fingerprint()
    runner = None
    if pool:
        from repro.runner.parallel import ParallelRunner, Task

        runner = ParallelRunner(
            workers=n_actors,
            run_id=f"distributed-learn:{spec.seed}",
            seed=spec.seed,
            chunk_size=1,
            persistent=True,
        )

    records: List[EpisodeRecord] = []
    last_result: Optional[SimulationResult] = None
    elapsed = 0.0
    exact_commits = 0
    spec_hits = 0
    spec_misses = 0
    resims = 0
    waves = 0
    # Inline mode never speculates: a speculative episode costs a full
    # actor rollout plus a replay even when it hits, and sequential
    # in-process execution can never recoup that — the wave head driven
    # directly on the chain is already optimal.  The pool (where actors
    # genuinely overlap the learner) and validate_exact (an audit mode,
    # and the inline test bed for the speculation machinery) run the
    # adaptive width.  Width never affects results, only wall time.
    speculate = pool or validate_exact
    width = n_actors if speculate else 1
    waves_since_probe = 0
    probe_pending = False
    probe_failures = 0
    wall_started = time.perf_counter()

    # the fused chain shares chain_sched's table (see above)
    def current_version() -> int:
        return chain_sched.qtable.version

    def bump_version() -> None:
        chain_sched.qtable.bump_version()

    try:
        committed = 0
        if not speculate and not pool:
            # plain inline: every episode is exact and driven directly
            # on the learner chain, so the wave machinery (checkpoints,
            # traces, AIMD throttle) is pure overhead — a dedicated
            # loop keeps this serial-equivalent path at the fused
            # engine's floor cost
            for e in range(episodes):
                waves += 1
                result: EpisodeOutcome
                if fused:
                    assert chain_lane is not None
                    # all but the final episode run "lite": no
                    # ActivationRecord construction — the plan only ever
                    # reads the last full result
                    result = _drive_episode(
                        kernel, chain_lane, env_seeds[e],
                        lite=e + 1 < episodes,
                    )
                    ep_steps = chain_lane.steps
                    ep_reward_sum = chain_lane.reward_sum
                    ep_final_reward = chain_lane.reward
                else:
                    result = kernel.run_episode(chain_sched, env_seeds[e])
                    ep_steps = chain_sched.episode_steps
                    ep_reward_sum = chain_sched._reward_sum
                    ep_final_reward = chain_sched.episode_final_reward
                exact_commits += 1
                bump_version()
                if simulated:
                    elapsed += result.makespan
                if isinstance(result, SimulationResult):
                    last_result = result
                records.append(
                    EpisodeRecord(
                        episode=e,
                        makespan=result.makespan,
                        final_state=result.final_state,
                        steps=ep_steps,
                        mean_reward=(
                            ep_reward_sum / ep_steps if ep_steps else 0.0
                        ),
                        final_reward=ep_final_reward,
                        assignment=result.assignment,
                    )
                )
            committed = episodes
        last_episode = episodes - 1
        scratch_lane: Optional[_FastLane] = None
        scratch_view: Optional[BatchEpisodeState] = None

        def commit(
            e: int,
            result: EpisodeOutcome,
            ep_steps: int,
            ep_reward_sum: float,
            ep_final_reward: float,
        ) -> None:
            nonlocal elapsed, last_result
            bump_version()
            if simulated:
                elapsed += result.makespan
            if isinstance(result, SimulationResult):
                last_result = result
            records.append(
                EpisodeRecord(
                    episode=e,
                    makespan=result.makespan,
                    final_state=result.final_state,
                    steps=ep_steps,
                    mean_reward=(
                        ep_reward_sum / ep_steps if ep_steps else 0.0
                    ),
                    final_reward=ep_final_reward,
                    assignment=result.assignment,
                )
            )

        while committed < episodes:
            waves += 1
            # one wave = up to `width` chunks of up to `batch`
            # consecutive episodes; chunk j speculates at chunk
            # staleness j (its episodes chain on the actor's own
            # evolution, so within-chunk episodes add no staleness)
            n_chunks = min(
                width, -(-(episodes - committed) // batch)
            )
            chunks: List[List[int]] = []
            start = committed
            for _ in range(n_chunks):
                stop = min(start + batch, episodes)
                chunks.append(list(range(start, stop)))
                start = stop
            head_on_chain = (
                not pool and not validate_exact
            )  # head chunk drives the true state directly when inline

            # wave base: needed for every shipped chunk (pool) and for
            # inline speculative actors / validate_exact heads
            need_base = pool or n_chunks > 1 or validate_exact
            base: Any = None
            if need_base:
                if fused:
                    assert chain_lane is not None
                    # pool bases travel as cumulative deltas over the
                    # pristine version-0 table every worker can rebuild
                    # locally: the payload serializes only the touched
                    # Q-rows instead of the whole store
                    base = _fused_checkpoint(
                        chain_lane, since=0 if pool else None
                    )
                else:
                    base = copy.deepcopy(chain_sched)

            # -- rollout ------------------------------------------------
            traces: List[Optional[List[EpisodeTrace]]] = [None] * n_chunks
            if pool:
                assert runner is not None
                tasks = []
                for j, chunk in enumerate(chunks):
                    actor = int(interleave[(chunk[0] // batch) % n_actors])
                    want_post = j == 0 and not validate_exact
                    tasks.append(
                        Task(
                            key=("chunk", chunk[0]),
                            fn=_actor_task,
                            payload=(
                                spec, fused, base, chunk,
                                [env_seeds[e] for e in chunk],
                                actor, want_post, last_episode,
                            ),
                            seed=derive_seed(
                                spec.seed, f"actor-episode:{chunk[0]}"
                            ),
                            kernel_fingerprint=fp,
                        )
                    )
                for res in runner.run(tasks):
                    traces[res.index] = res.value
            else:
                for j, chunk in enumerate(chunks):
                    actor = int(interleave[(chunk[0] // batch) % n_actors])
                    if j == 0 and head_on_chain:
                        continue  # driven on the true chain below
                    if fused:
                        if scratch_lane is None:
                            scratch_lane = _FastLane(
                                ReassignScheduler(params, seed=spec.seed)
                            )
                        if (
                            scratch_view is None
                            or scratch_view.batch < len(chunk)
                        ):
                            scratch_view = BatchEpisodeState(
                                kernel, len(chunk)
                            )
                        traces[j] = _run_fused_chunk(
                            kernel, params, spec.seed, base, chunk,
                            [env_seeds[e] for e in chunk], actor,
                            want_post=False, last_episode=last_episode,
                            lane=scratch_lane, bstate=scratch_view,
                        )
                    else:
                        traces[j] = _run_generic_chunk(
                            kernel, copy.deepcopy(base), chunk,
                            [env_seeds[e] for e in chunk], actor,
                            want_post=False,
                        )

            # -- ordered consume ---------------------------------------
            wave_hits0 = spec_hits
            wave_misses0 = spec_misses
            for j, chunk in enumerate(chunks):
                if j == 0 and not pool and head_on_chain:
                    # inline head chunk: the actor *is* the learner
                    # chain, and its traces would never be replayed — so
                    # none are recorded
                    for e in chunk:
                        result: EpisodeOutcome
                        if fused:
                            assert chain_lane is not None
                            result = _drive_episode(
                                kernel, chain_lane, env_seeds[e],
                                lite=e != last_episode,
                            )
                            ep_stats = (
                                chain_lane.steps,
                                chain_lane.reward_sum,
                                chain_lane.reward,
                            )
                        else:
                            result = kernel.run_episode(
                                chain_sched, env_seeds[e]
                            )
                            ep_stats = (
                                chain_sched.episode_steps,
                                chain_sched._reward_sum,
                                chain_sched.episode_final_reward,
                            )
                        exact_commits += 1
                        commit(e, result, *ep_stats)
                    continue
                chunk_traces = traces[j]
                assert chunk_traces is not None
                exact_chunk = (
                    chunk_traces[0].base_version == current_version()
                    and chunk_traces[-1].post_state is not None
                    and not validate_exact
                )
                if exact_chunk:
                    # provably the truth: deterministic engine chained
                    # from byte-identical state — adopt the actor's
                    # post-chunk state wholesale, commit every episode
                    if fused:
                        assert chain_lane is not None
                        _fused_restore(
                            chain_lane, chunk_traces[-1].post_state
                        )
                    else:
                        chain_sched = chunk_traces[-1].post_state
                        learner.scheduler = chain_sched
                    for trace in chunk_traces:
                        exact_commits += 1
                        commit(
                            trace.episode,
                            _result_from_trace(kernel, trace),
                            trace.steps_count,
                            trace.reward_sum,
                            trace.final_reward,
                        )
                    continue
                for trace in chunk_traces:
                    e = trace.episode
                    speculative = trace.base_version != current_version()
                    if fused:
                        assert chain_lane is not None
                        ckpt = _fused_checkpoint(chain_lane)
                        ok, _div = _replay_fused(
                            chain_lane, trace, params
                        )
                    else:
                        ckpt = copy.deepcopy(chain_sched)
                        ok, _div = _replay_generic(
                            chain_sched, trace, workflow
                        )
                    if ok:
                        result = _result_from_trace(kernel, trace)
                        if fused:
                            assert chain_lane is not None
                            ep_stats = (
                                chain_lane.steps,
                                chain_lane.reward_sum,
                                chain_lane.reward,
                            )
                        else:
                            ep_stats = (
                                chain_sched.episode_steps,
                                chain_sched._reward_sum,
                                chain_sched.episode_final_reward,
                            )
                        if speculative:
                            spec_hits += 1
                        else:
                            exact_commits += 1
                    else:
                        # deterministic in-learner re-simulation of the
                        # episode (the divergent suffix made the whole
                        # speculative episode moot)
                        resims += 1
                        if speculative:
                            spec_misses += 1
                        if fused:
                            assert chain_lane is not None
                            _fused_restore(chain_lane, ckpt)
                            result = _drive_episode(
                                kernel, chain_lane, env_seeds[e]
                            )
                            ep_stats = (
                                chain_lane.steps,
                                chain_lane.reward_sum,
                                chain_lane.reward,
                            )
                        else:
                            chain_sched = ckpt
                            learner.scheduler = chain_sched
                            result = kernel.run_episode(
                                chain_sched, env_seeds[e]
                            )
                            ep_stats = (
                                chain_sched.episode_steps,
                                chain_sched._reward_sum,
                                chain_sched.episode_final_reward,
                            )
                    commit(e, result, *ep_stats)
            committed = chunks[-1][-1] + 1

            # -- deterministic AIMD speculation throttle ---------------
            # halve on an all-miss wave, double on an all-hit one, keep
            # on a mixed wave; after 16 all-exact waves at width 1,
            # probe width 2 once (costs at most one re-simulation), and
            # give probing up for good once two consecutive probes miss
            # — on a host where speculation never pays, the engine must
            # converge to pure serial cost.  Hits are deterministic,
            # hence so is the throttle; width never affects results.
            wave_hits = spec_hits - wave_hits0
            wave_misses = spec_misses - wave_misses0
            n_speculative = wave_hits + wave_misses
            waves_since_probe += 1
            if n_speculative > 0:
                if wave_misses == n_speculative:
                    width = max(1, width // 2)
                    if probe_pending:
                        probe_failures += 1
                else:
                    if wave_hits == n_speculative:
                        width = min(n_actors, width * 2)
                    probe_failures = 0
                probe_pending = False
                waves_since_probe = 0
            elif (
                speculate
                and width == 1
                and n_actors > 1
                and probe_failures < _PROBE_GIVEUP
                and waves_since_probe >= _PROBE_INTERVAL
            ):
                width = 2
                probe_pending = True
                waves_since_probe = 0
    finally:
        if runner is not None:
            runner.close()

    if not simulated:
        elapsed = time.perf_counter() - wall_started

    if stats_out is not None:
        speculative_total = spec_hits + spec_misses
        stats_out.update(
            n_actors=n_actors,
            batch=batch,
            mode=effective_mode,
            episodes=episodes,
            waves=waves,
            exact_commits=exact_commits,
            speculative_hits=spec_hits,
            speculative_misses=spec_misses,
            resims=resims,
            # None = never speculated (plain inline pins the width to 1);
            # distinct from a measured 0.0 on an all-miss run
            speculative_hit_rate=(
                spec_hits / speculative_total if speculative_total else None
            ),
            hit_rate=(
                (exact_commits + spec_hits) / episodes if episodes else None
            ),
            final_width=width,
            host_cores=host_cores(),
        )

    # -- final plan & result: learn()'s tail --------------------------------
    if chain_lane is not None:
        chain_lane.write_back(chain_sched)
    assert last_result is not None
    plan, simulated_makespan = learner._final_plan(last_result)
    return LearningResult(
        plan=plan,
        episodes=records,
        learning_time=elapsed,
        simulated_makespan=simulated_makespan,
        qtable_json=chain_sched.qtable_json(),
    )
