"""The fused episode stepper: one lane, one episode, zero indirection.

This module is the learning engine behind
:meth:`ReassignLearner.learn() <repro.core.reassign.ReassignLearner.learn>`
(and so behind :func:`repro.core.batch.learn_batch`) on a lean kernel:
it drives learning episodes through :func:`_drive_episode`, which
fuses the event loop, the ε-greedy selection, the §III-B reward and
the Eq.-3 Q-update into a single function over one :class:`_FastLane`.

**Bit-identity contract (non-negotiable).**  Every float operation
replicates ``EpisodeKernel.run_episode`` driving a
``ReassignScheduler`` in the same order, so results are bit-identical
to that object path — the reference the equivalence suites compare
against (``tests/reference_learner.py``; pinned by
``tests/test_fused_learn.py`` and ``tests/test_batched_engine.py``).

**One body, one precondition.**  The loop body only runs on a lean
kernel (:attr:`EpisodeKernel.lean <repro.sim.kernel.EpisodeKernel.lean>`):
draw-free (no failures / migrations / revocations, a deterministic
fluctuation model), shared staging, and no VM boot time.  ``learn()``
checks that once per run and sends every other run through the object
path.  In that regime the only event type that can ever exist is
``ACTIVATION_DONE``, and its priority (2) sorts *before* ``DISPATCH``
(5) at equal times, so the generic heap interleaving collapses to "pop
the completion cluster at time t, then run the dispatch phase inline".
That lets the body drop the ``Event`` / ``PendingExecution`` /
dispatch-event allocations, keep a plain tuple heap and read Q-values
from a per-run mirror (below) — while performing **exactly** the same
RNG draws and float ops as the object path (the skipped work —
in-flight bookkeeping, attempt lookups without failures — is provably
dead in the regime).

**What an episode keeps and what it publishes.**  An episode keeps only
the state it reads: VM occupancy as slot counts per fleet position, the
ready ids, ready times, unfinished-parent counts, file placement, busy
time and (in full mode) the records.  It reads each dispatch's stage-in
terms, compute and stage-out from dense rows indexed by (activation, VM
position), filled once per kernel by the kernel's
:class:`~repro.sim.estimates.NominalEstimateCache`, and each
activation's output file names from a per-run row.  It writes no
``Vm.running`` and no ``Activation.state`` while it runs, and its reset
(:func:`_start_episode`) touches only the fields above.  The epilogue
publishes the kernel's terminal state once: every activation FINISHED,
the clock, the counters, the idle set (every VM), cleared view caches,
and each version counter moved once (monotonic; nothing observes the
state mid-episode).  So a reader of the kernel after a completed
episode sees what the object path leaves, and an episode that raises is
scrubbed back to pristine (``EpisodeState.scrub``), as on the object
path.

**The Q mirror.**  :class:`_QMirror` holds the table's
single ``"available"`` row as ``vals[activation][vm_position]`` Python
floats, with per-entry table action ids (−1 while not interned) and a
per-row bitmask of the unknown entries.  It is built from the table
with the lane and is written through on every draw and update, so it
equals the table's row at the start of every episode.  No action tuples
are built: the sorted ready ids ``R`` and the idle VM positions ``I``
(memoized per busy bitmask) stand for the ready × idle product, and
index ``i`` means ``(R[i // |I|], I[i % |I|])`` — the index of the same
pair in the object path's ``action_pairs`` tuple, so every ε draw and
tie draw is unchanged.

**Row maxima.**  A dispatch phase keeps each ready row's max over ``I``
in a list aligned with ``R``.  It is built in full at most once per
phase, at the first exploitation or the first post-dispatch Eq.-3 max,
whichever comes first; each later dispatch of the phase updates it.
Within a phase ``R`` and ``I`` only shrink: the dispatched row leaves
``R`` (and its Eq.-3 update, the only write to a known entry, lands on
that row), and a VM that fills leaves ``I``, which moves only the rows
whose max sat at that VM, so just those are recomputed.  Exploitation
takes ``cut = max(row maxima) − 1e-15`` and enumerates ties in product
order over just the rows whose max reaches ``cut``; the update's
``future`` is the largest row max over the post-dispatch ``R × I``.  A
full build sends each row with unknown entries among ``I`` through the
first-touch path (:meth:`_QMirror.row_max`), which touches them in
position order — interning each if new, then drawing it — so the draws
happen in exactly the product order the object path's
``_ensure_known`` uses.  After a full build every entry of the phase's
``R × I`` is known, so no later step of the phase draws, just as the
object path's ``_ensure_known`` over the smaller product draws nothing.

**Policy draws.**  The ε, explore and tie indices come from a
:class:`~repro.util.rng.BlockDraws` replica of the scheduler's PCG64
``reassign-policy`` generator: the values numpy's scalar ``random()``
and ``integers(n)`` return, read from prefetched blocks of raw words.
:meth:`_FastLane.write_back`, which ``learn()`` calls however the run
ends, syncs the generator, so it then stands exactly where per-call
numpy draws would have left it.

**Lite mode** (``lite=True``): per-activation
:class:`~repro.sim.metrics.ActivationRecord` construction is replaced
by a completion-ordered ``{activation_id: vm_id}`` assignment map and
the episode returns a :class:`_LiteResult`.  Everything a caller reads
off a non-final episode (makespan, final state, assignment) is
preserved byte-for-byte; only the run's final episode needs full
records (plan extraction sorts them), so callers pass ``lite=False``
there.
"""

from __future__ import annotations

import math
from bisect import insort
from heapq import heappop, heappush
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.reassign import ReassignParams, ReassignScheduler
from repro.dag.activation import ActivationState
from repro.rl.environment import AVAILABLE
from repro.rl.qtable import QTable
from repro.rl.reward import VmPerformanceTracker
from repro.sim.estimates import Costs
from repro.sim.fluctuation import BurstThrottleFluctuation
from repro.sim.kernel import (
    EpisodeKernel,
    EpisodeState,
    HorizonExceeded,
    SimulationError,
)
from repro.sim.metrics import ActivationRecord, SimulationResult
from repro.util.rng import BlockDraws
from repro.util.validate import ValidationError

__all__ = [
    "EpisodeOutcome",
    "_FastLane",
    "_LiteResult",
    "_drive_episode",
    "fast_lane_eligible",
]

_FINISHED = ActivationState.FINISHED

_SUCCEEDED = "successfully finished"


def fast_lane_eligible(params: ReassignParams) -> bool:
    """Whether the fused fast path covers these hyper-parameters.

    The fast path replicates the paper's rule exactly: plain Q-learning
    over the single aggregated "available" state.  Everything else —
    SARSA's deferred update, double-Q's coin stream, progress buckets —
    runs through the real ``ReassignScheduler`` instead (bit-identical
    either way; only the throughput differs).
    """
    return params.rule == "qlearning" and params.state_buckets == 1


class _FastLane:
    """Per-lane fused RL state (Q mirror, policy stream, reward state).

    The mutable counterpart of a ``ReassignScheduler`` for the fast
    path.  A lane is built over one scheduler and one lean kernel.  It
    draws from the scheduler's ``reassign-policy`` generator through a
    :class:`~repro.util.rng.BlockDraws` replica, which
    :meth:`write_back` syncs back into it, and reaches its Q-table
    through a :class:`_QMirror` built here, which writes through to the
    table; the §III-B reward state is copied in from
    ``scheduler.reward`` (µ and ρ included), flattened into plain
    lists/scalars the fused loop updates in place, and
    :meth:`write_back` copies it out again, so after a fused run the
    scheduler holds exactly the state the object path leaves.  It also
    binds the kernel's dense rows the loop reads per dispatch and per
    completion (``costs`` and ``outputs``).
    """

    __slots__ = (
        "params", "draws", "exploit_p", "keep_history",
        "t", "steps", "reward_sum", "mu", "rho", "pos", "exec_n",
        "exec_mean", "queue_mean", "index", "g_exec_n",
        "g_exec_mean", "g_queue_mean", "reward", "mirror", "costs",
        "outputs",
    )

    params: ReassignParams
    draws: BlockDraws
    exploit_p: float
    keep_history: bool
    t: int
    steps: int
    reward_sum: float
    mu: float
    rho: float
    pos: Dict[int, int]
    exec_n: List[int]
    exec_mean: List[float]
    queue_mean: List[float]
    index: List[float]
    g_exec_n: int
    g_exec_mean: float
    g_queue_mean: float
    reward: float
    mirror: _QMirror
    costs: Mapping[int, Sequence[Costs]]
    outputs: Dict[int, Tuple[str, ...]]

    def __init__(
        self, scheduler: ReassignScheduler, kernel: EpisodeKernel
    ) -> None:
        params = scheduler.params
        self.params = params
        self.draws = BlockDraws(scheduler._rng)
        p = params.epsilon
        self.exploit_p = 1.0 - p if params.epsilon_is_exploration else p
        self.keep_history = params.reward_memory == "full"
        self.t = 1
        self.steps = 0
        self.reward_sum = 0.0
        self.mirror = _QMirror(scheduler.qtable, kernel)
        # the kernel's dense rows: nominal costs per (activation, VM
        # position), filled once per kernel by its estimate cache, and
        # each activation's output file names
        self.costs = kernel.estimates.rows(kernel.activations)
        self.outputs = {
            ac.id: tuple([f.name for f in ac.outputs])
            for ac in kernel.activations
        }
        reward = scheduler.reward
        trackers = list(reward._vms.values())
        self.mu = reward.mu
        self.rho = reward.rho
        self.reward = reward.reward
        self.pos = {vm_id: i for i, vm_id in enumerate(reward._vms)}
        self.exec_n = [t.count for t in trackers]
        self.exec_mean = [t.exec_mean for t in trackers]
        self.queue_mean = [t.queue_mean for t in trackers]
        self.index = [t.mean_index for t in trackers]
        self.g_exec_n = reward._global.count
        self.g_exec_mean = reward._global.exec_mean
        self.g_queue_mean = reward._global.queue_mean

    def write_back(self, scheduler: ReassignScheduler) -> None:
        """Copy the episode counters and reward state into ``scheduler``.

        The inverse of the reward copy in ``__init__``; the policy
        generator is synced to the draws made (the Q-table is shared, so
        it needs no copy).  ``learn()`` calls this however the run ends,
        an exception included, so the sync comes first.
        """
        self.draws.sync()
        scheduler._t = self.t
        scheduler._steps = self.steps
        scheduler._reward_sum = self.reward_sum
        reward = scheduler.reward
        reward._reward = self.reward
        reward._vms = {
            vm_id: _tracker(
                self.mu, self.exec_n[i], self.exec_mean[i],
                self.queue_mean[i],
            )
            for vm_id, i in self.pos.items()
        }
        reward._global = _tracker(
            self.mu, self.g_exec_n, self.g_exec_mean, self.g_queue_mean
        )

    def start_episode(self) -> None:
        """Algorithm 2 per-episode reset (t <- 1, r^t <- 0)."""
        self.t = 1
        self.steps = 0
        self.reward_sum = 0.0
        self.reward = 0.0
        if not self.keep_history:
            self.pos = {}
            self.exec_n = []
            self.exec_mean = []
            self.queue_mean = []
            self.index = []
            self.g_exec_n = 0
            self.g_exec_mean = 0.0
            self.g_queue_mean = 0.0


def _tracker(
    mu: float, count: int, exec_mean: float, queue_mean: float
) -> VmPerformanceTracker:
    tracker = VmPerformanceTracker(mu)
    tracker.count = count
    tracker.exec_mean = exec_mean
    tracker.queue_mean = queue_mean
    return tracker


class _LiteResult:
    """A lite episode's outcome: everything but the per-record list.

    ``assignment`` is the completion-ordered ``{activation_id: vm_id}``
    map — byte-identical in content and iteration order to
    ``SimulationResult.assignment`` for the same episode.  Accessing
    ``records`` raises: a lite result must never reach a consumer that
    needs them (the run's final episode is always recorded in full).
    """

    __slots__ = ("makespan", "final_state", "assignment")

    def __init__(
        self,
        makespan: float,
        final_state: str,
        assignment: Dict[int, int],
    ) -> None:
        self.makespan = makespan
        self.final_state = final_state
        self.assignment = assignment

    @property
    def succeeded(self) -> bool:
        return self.final_state == _SUCCEEDED

    @property
    def records(self) -> List[ActivationRecord]:
        raise SimulationError(
            "lite episode outcome carries no ActivationRecords; "
            "run the episode with lite=False"
        )


EpisodeOutcome = Union[SimulationResult, _LiteResult]


class _QMirror:
    """The lane's per-run mirror of the table's ``"available"`` row.

    See the module docstring for the layout and the row maxima.
    Every write goes through to the table, so ``qtable_json``,
    ``write_back``, ``extract_plan`` and later ``learn()`` calls read
    the table as if the lane had written it directly.
    """

    __slots__ = (
        "table", "sid", "qrow", "krow", "vm_ids", "vals", "unknown", "ids",
        "idle_pos",
    )

    def __init__(self, table: QTable, kernel: EpisodeKernel) -> None:
        self.table = table
        self.sid = table._state_id(AVAILABLE)
        self._fetch_rows()
        qrow = self.qrow
        krow = self.krow
        aget = table._action_ids.get
        self.vm_ids = [vm.id for vm in kernel.vms]
        self.vals: Dict[int, List[float]] = {}
        #: activation → bitmask of the row's unknown VM positions
        self.unknown: Dict[int, int] = {}
        self.ids: Dict[int, List[int]] = {}
        for a in kernel._ac_by_id:
            ids = [aget((a, v), -1) for v in self.vm_ids]
            known = [aid >= 0 and bool(krow[aid]) for aid in ids]
            self.vals[a] = [
                float(qrow[aid]) if k else 0.0 for aid, k in zip(ids, known)
            ]
            self.unknown[a] = sum(
                1 << j for j, k in enumerate(known) if not k
            )
            self.ids[a] = ids
        #: busy mask → positions of the VMs it leaves idle (bit j set ⟺
        #: ``kernel.vms[j]`` is full)
        self.idle_pos: Dict[int, Tuple[int, ...]] = {}

    def _fetch_rows(self) -> None:
        self.qrow = self.table._q[self.sid]
        self.krow = self.table._known[self.sid]

    def idle_at(self, mask: int) -> Tuple[int, ...]:
        """The idle VM positions under busy ``mask`` (memoized)."""
        idle = self.idle_pos.get(mask)
        if idle is None:
            idle = tuple(
                [j for j in range(len(self.vm_ids)) if not mask >> j & 1]
            )
            self.idle_pos[mask] = idle
        return idle

    def touch(self, a: int, j: int) -> None:
        """First touch of entry ``(a, j)``: intern if new, then draw."""
        table = self.table
        ids = self.ids[a]
        aid = ids[j]
        if aid < 0:
            aid = table._action_id((a, self.vm_ids[j]))
            ids[j] = aid
            if aid >= len(self.qrow):
                # interning grew (reallocated) the table's storage
                self._fetch_rows()
        v = float(table._rng.uniform(0.0, table._init_scale))
        self.vals[a][j] = v
        self.unknown[a] &= ~(1 << j)
        self.qrow[aid] = v
        self.krow[aid] = True
        table._n_known += 1

    def row_max(self, a: int, idle: Tuple[int, ...]) -> float:
        """Row ``a``'s max over ``idle``, first touching its unknown entries.

        The first-touch path: the row's unknown entries over ``idle``
        are touched in position order before the max is taken.
        """
        for j in idle:
            if self.unknown[a] >> j & 1:
                self.touch(a, j)
        return max(map(self.vals[a].__getitem__, idle))

    def row_maxes(
        self, ready: List[int], idle: Tuple[int, ...], busy_mask: int
    ) -> List[float]:
        """Each ready row's max over ``idle``, in ready order.

        Rows with unknown entries among ``idle`` go through
        :meth:`row_max`, so the touches come in product order.
        """
        unknown = self.unknown
        vals = self.vals
        free = ~busy_mask
        return [
            self.row_max(a, idle) if unknown[a] & free
            else max(map(vals[a].__getitem__, idle))
            for a in ready
        ]


def _start_episode(kernel: EpisodeKernel) -> EpisodeState:
    """Reset exactly the kernel state a lane episode reads or publishes.

    The lane reads and grows the ready ids, ready times, unfinished-parent
    counts, file placement, busy time and records, so those start over;
    everything else it publishes at the end (:func:`_drive_episode`'s
    epilogue) or never touches.  Nothing is scrubbed: on a lean kernel,
    between episodes every VM slot is already free (an episode that ends
    early is scrubbed on its way out), no attempt ever fails, and no
    model reads the per-episode RNG streams, so ``reset(seed)``'s other
    work is dead here.  Refuses a non-lean kernel.
    """
    if not kernel.lean:
        raise ValidationError(
            "the fused lane requires a lean kernel "
            "(see EpisodeKernel.lean); use EpisodeKernel.run_episode"
        )
    state = kernel.state
    entry_ids = kernel.entry_ids  # pre-sorted
    state.ready_ids = list(entry_ids)
    state.ready_time = dict.fromkeys(entry_ids, 0.0)
    state._unfinished_parents = dict(kernel.initial_pred_count)
    state.file_locations = {}
    state.busy_time = {vm.id: 0.0 for vm in kernel.vms}
    state.records = []
    return state


def _drive_episode(
    kernel: EpisodeKernel,
    lane: _FastLane,
    lite: bool,
) -> EpisodeOutcome:
    """One fully-inlined learning episode on a lean kernel.

    Bit-identical to ``EpisodeKernel.run_episode`` driving a
    ``ReassignScheduler`` (see the module docstring).  The kernel must
    be lean (:func:`_start_episode` refuses any other).  In that
    regime no event can ever be cancelled, no VM boots, migrates or is
    revoked, no attempt fails, and every heap entry is an
    ``ACTIVATION_DONE`` — so events are plain tuples on a local heap,
    the in-flight map is never consulted, and the per-step structure is
    "dispatch everything possible at t, then pop the next completion
    cluster" (exactly the generic priority order).  The episode keeps
    VM occupancy as local slot counts and publishes the kernel's
    terminal state once, at the end.

    ``lite=True`` skips per-activation record construction (see
    :class:`_LiteResult`).
    """
    state = _start_episode(kernel)
    lane.start_episode()
    vms = kernel.vms
    fluct = kernel.fluctuation
    if type(fluct) is BurstThrottleFluctuation:
        fl_mode = 1
        fl_throttle = fluct.throttle_factor
        fl_credit = fluct.credit_seconds
        fl_maxv = fluct.burstable_max_vcpus
    else:
        fl_mode = 0
        fl_throttle = fl_credit = 0.0
        fl_maxv = 0
    busy_time = state.busy_time
    horizon = kernel.horizon
    n_total = kernel.n_activations
    ac_by_id = kernel._ac_by_id
    children = kernel._children
    unfinished = state._unfinished_parents
    file_locations = state.file_locations
    fl_get = file_locations.get
    ready_time = state.ready_time
    ready_ids = state.ready_ids
    records = state.records
    costs = lane.costs
    outputs = lane.outputs
    assignment: Dict[int, int] = {}

    # RL locals (one lane: its own table, policy stream, reward)
    params = lane.params
    rng_random = lane.draws.random
    rng_integers = lane.draws.integers
    exploit_p = lane.exploit_p
    alpha = params.alpha
    gamma = params.gamma
    discount_power = params.discount_power
    mirror = lane.mirror
    q_vals = mirror.vals
    q_unknown = mirror.unknown
    q_ids = mirror.ids
    row_maxes = mirror.row_maxes
    idle_at = mirror.idle_at
    vm_ids = mirror.vm_ids
    t_rl = 1
    steps = 0
    reward_sum = 0.0

    # inlined PerformanceReward state (Welford mean pushes)
    r_mu = lane.mu
    r_rho = lane.rho
    r_pos = lane.pos
    r_exec_n = lane.exec_n
    r_exec_mean = lane.exec_mean
    r_queue_mean = lane.queue_mean
    r_index = lane.index
    g_exec_n = lane.g_exec_n
    g_exec_mean = lane.g_exec_mean
    g_queue_mean = lane.g_queue_mean
    reward = 0.0

    # occupied slots per fleet position, the busy bitmask (bit j set ⟺
    # vms[j] full) and its idle positions; every slot starts free
    vcap = [vm.type.vcpus for vm in vms]
    slots = [0] * len(vms)
    busy_mask = 0
    idle = idle_at(busy_mask)

    heap: List[Tuple[float, int, int, int, float, float, float]] = []
    cnt = 0
    now = 0.0
    n_finished = 0
    top = 0.0

    completed = False
    try:
        while n_finished < n_total:
            # -- dispatch phase at `now` ---------------------------------
            # row maxima over the current R × I, aligned with `ready_ids`;
            # built at most once per phase, then kept up to date by each
            # dispatch (R and I only shrink until the next completion)
            maxes: Optional[List[float]] = None
            while ready_ids and idle:
                n_idle = len(idle)
                # ε-greedy selection, inlined
                if rng_random() < exploit_p:
                    if maxes is None:
                        maxes = row_maxes(ready_ids, idle, busy_mask)
                        top = max(maxes)
                    cut = top - 1e-15
                    ties: List[int] = []
                    for ri, m in enumerate(maxes):
                        if m >= cut:
                            row = q_vals[ready_ids[ri]]
                            base = ri * n_idle
                            ties += [
                                base + k for k, j in enumerate(idle)
                                if row[j] >= cut
                            ]
                    if len(ties) == 1:
                        i = ties[0]
                    else:
                        i = ties[rng_integers(len(ties))]
                else:
                    i = rng_integers(len(ready_ids) * n_idle)
                ri, k = divmod(i, n_idle)
                activation_id = ready_ids[ri]
                vpos = idle[k]
                vm_id = vm_ids[vpos]
                terms, compute, stage_out = costs[activation_id][vpos]
                stage_in = 0.0
                for name, seconds in terms:
                    if fl_get(name) != vm_id:
                        stage_in += seconds
                if fl_mode and (
                    vcap[vpos] <= fl_maxv
                    and busy_time[vm_id] > fl_credit
                ):
                    compute *= fl_throttle
                duration = stage_in + compute + stage_out
                # start_running, inlined
                del ready_ids[ri]
                n_run = slots[vpos] + 1
                slots[vpos] = n_run
                filled = n_run == vcap[vpos]
                if filled:
                    busy_mask |= 1 << vpos
                    idle = idle_at(busy_mask)
                planned_finish = now + duration
                a_ready_time = ready_time[activation_id]
                cnt += 1
                heappush(
                    heap,
                    (planned_finish, cnt, activation_id, vpos, now,
                     a_ready_time, stage_in),
                )
                # PerformanceReward.step, inlined (te, tf)
                te = duration
                tf = now - a_ready_time
                pos = r_pos.get(vm_id)
                if pos is None:
                    # the lists grow before ``pos`` names the new slot,
                    # so an interrupt never leaves write_back a short list
                    pos = len(r_pos)
                    r_exec_n.append(0)
                    r_exec_mean.append(0.0)
                    r_queue_mean.append(0.0)
                    r_index.append(0.0)
                    r_pos[vm_id] = pos
                n = r_exec_n[pos] + 1
                r_exec_n[pos] = n
                mean = r_exec_mean[pos]
                mean += (te - mean) / n
                r_exec_mean[pos] = mean
                qmean = r_queue_mean[pos]
                qmean += (tf - qmean) / n
                r_queue_mean[pos] = qmean
                vm_index = mean * r_mu + (1.0 - r_mu) * qmean
                r_index[pos] = vm_index
                g_exec_n += 1
                g_exec_mean += (te - g_exec_mean) / g_exec_n
                g_queue_mean += (tf - g_queue_mean) / g_exec_n
                global_index = (
                    g_exec_mean * r_mu + (1.0 - r_mu) * g_queue_mean
                )
                # §III-B penalty test, short-circuited: std >= 0, so a
                # VM at or below the global index can never trip
                # `vm_index > global_index + std` — the Welford scan
                # over per-VM indexes only runs when it can matter
                # (bit-identical: the scan is unchanged when taken)
                if vm_index > global_index:
                    sn = 0
                    smean = 0.0
                    sm2 = 0.0
                    for x in r_index:
                        sn += 1
                        delta0 = x - smean
                        smean += delta0 / sn
                        sm2 += delta0 * (x - smean)
                    std = math.sqrt(sm2 / sn) if sn >= 2 else 0.0
                    r_i = -1.0 if vm_index > global_index + std else 1.0
                else:
                    r_i = 1.0
                reward = reward + r_rho * (r_i - reward)
                r_t = reward
                reward_sum += r_t
                # Eq.-3 max over the post-dispatch R × I
                if ready_ids and idle:
                    if maxes is None:
                        maxes = row_maxes(ready_ids, idle, busy_mask)
                    else:
                        # the dispatched row leaves R; a filled VM leaves
                        # I, which moves only the rows whose max sat there
                        del maxes[ri]
                        if filled:
                            for r, a in enumerate(ready_ids):
                                row = q_vals[a]
                                if row[vpos] == maxes[r]:
                                    maxes[r] = max(map(row.__getitem__, idle))
                    future = top = max(maxes)
                else:
                    future = 0.0
                gamma_t = gamma ** t_rl if discount_power else gamma
                # the explored pair's own first touch comes after the
                # next state's (an exploited pair is already known)
                if q_unknown[activation_id] >> vpos & 1:
                    mirror.touch(activation_id, vpos)
                row = q_vals[activation_id]
                q_sa = row[vpos]
                delta = r_t + gamma_t * future - q_sa
                q_new = q_sa + alpha * delta
                row[vpos] = q_new
                mirror.qrow[q_ids[activation_id][vpos]] = q_new
                t_rl += 1
                steps += 1

            # -- pop the next completion cluster -------------------------
            if not heap:
                raise SimulationError(
                    f"simulation deadlocked at t={now:.3f}: "
                    f"{n_finished}/{n_total} finished with no pending "
                    f"events"
                )
            while True:
                t, _c, aid_, vpos, dtime, rtime, sin = heappop(heap)
                now = t
                if now > horizon:
                    raise HorizonExceeded(
                        f"simulation exceeded horizon {horizon}"
                    )
                vm_id = vm_ids[vpos]
                n_run = slots[vpos]
                slots[vpos] = n_run - 1
                if n_run == vcap[vpos]:
                    busy_mask &= ~(1 << vpos)
                    idle = idle_at(busy_mask)
                busy_time[vm_id] += now - dtime
                for name in outputs[aid_]:
                    file_locations[name] = vm_id
                if lite:
                    assignment[aid_] = vm_id
                else:
                    records.append(ActivationRecord(
                        activation_id=aid_,
                        activity=ac_by_id[aid_].activity,
                        vm_id=vm_id,
                        ready_time=rtime,
                        start_time=dtime,
                        finish_time=now,
                        stage_in_time=sin,
                        attempts=1,
                        failed=False,
                    ))
                n_finished += 1
                # on a lean kernel a child is LOCKED until its last
                # parent finishes, so a zero count always releases it
                for child_id in children[aid_]:
                    remaining = unfinished[child_id] - 1
                    unfinished[child_id] = remaining
                    if remaining == 0:
                        insort(ready_ids, child_id)
                        ready_time[child_id] = now
                if not heap or heap[0][0] != now:
                    break

        # -- epilogue: publish the terminal state once -------------------
        # every activation finished and every slot is free again (the
        # VMs' own slot sets were never touched); each version counter
        # moves once, since no one observes the state mid-episode
        for ac in kernel.activations:
            ac.state = _FINISHED
        state.now = now
        state.n_finished = n_finished
        state.n_running = 0
        state._ready_version += 1
        state._idle_version += 1
        state._vm_version += 1
        state._idle_key = None
        state._idle_cache = tuple(vms)
        state._ready_cache = None
        state._records_cache = None
        state._pairs_key = None
        state._pairs_cache = ()
        lane.t = t_rl
        lane.steps = steps
        lane.reward_sum = reward_sum
        lane.reward = reward
        lane.g_exec_n = g_exec_n
        lane.g_exec_mean = g_exec_mean
        lane.g_queue_mean = g_queue_mean
        if lite:
            result: EpisodeOutcome = _LiteResult(
                makespan=now,
                final_state=state.workflow_state(),
                assignment=assignment,
            )
        else:
            makespan = max(
                (r.finish_time for r in records), default=state.now
            )
            result = SimulationResult(
                workflow_name=kernel.workflow.name,
                records=list(records),
                makespan=makespan,
                final_state=state.workflow_state(),
                vms=list(vms),
            )
        completed = True
        return result
    finally:
        if not completed:
            state.scrub()
