"""The fused episode stepper: one lane, one episode, zero indirection.

This module is the learning engine behind
:meth:`ReassignLearner.learn() <repro.core.reassign.ReassignLearner.learn>`
(and so behind :func:`repro.core.batch.learn_batch`): it drives
learning episodes through :func:`_drive_episode`, which
fuses the event loop, the ε-greedy selection, the §III-B reward and
the Eq.-3 Q-update into a single function over one :class:`_FastLane`.

**Bit-identity contract (non-negotiable).**  Every float operation
replicates ``EpisodeKernel.run_episode`` driving a
``ReassignScheduler`` in the same order, so results are bit-identical
to that object path — the reference the equivalence suites compare
against (``tests/reference_learner.py``; pinned by
``tests/test_fused_learn.py`` and ``tests/test_batched_engine.py``).

Two loop bodies implement that contract:

- :func:`_drive_general` handles every event type (boots, migrations,
  revocations, failures, generic fluctuation models);
- :func:`_drive_lean` is a specialized variant for the by-far-hottest
  regime — a draw-free kernel (no failures / migrations /
  revocations), shared staging, and no pending boot events after
  reset.  In that regime the only event type that can ever exist is
  ``ACTIVATION_DONE``, and its priority (2) sorts *before*
  ``DISPATCH`` (5) at equal times, so the generic heap interleaving
  collapses to "pop the completion cluster at time t, then run the
  dispatch phase inline".  That lets the lean loop drop the ``Event``
  / ``PendingExecution`` / dispatch-event allocations, keep a plain
  tuple heap, mirror the single Q-row as a Python float list for
  scalar reductions, and localize the state's version counters —
  while performing **exactly** the same RNG draws and float ops as the
  general loop (the selection values are the same IEEE doubles whether
  read from the numpy row or its float-list mirror, and the skipped
  work — in-flight bookkeeping, busy-time integration without a
  throttle model, attempt lookups without failures — is provably dead
  in the regime).

Both bodies support **lite mode** (``lite=True``): per-activation
:class:`~repro.sim.metrics.ActivationRecord` construction is replaced
by a completion-ordered ``{activation_id: vm_id}`` assignment map and
the episode returns a :class:`_LiteResult`.  Everything a caller reads
off a non-final episode (makespan, final state, assignment) is
preserved byte-for-byte; only the run's final episode needs full
records (plan extraction sorts them), so callers pass ``lite=False``
there.  Lite mode is honored by the lean body; the general body
records fully regardless (correct either way — lite is purely a
performance hint).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from heapq import heappop, heappush
from itertools import product
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.reassign import ReassignParams, ReassignScheduler
from repro.dag.activation import ActivationState
from repro.rl.environment import AVAILABLE
from repro.rl.qshard import ShardStore
from repro.rl.qtable import QTable
from repro.rl.reward import VmPerformanceTracker
from repro.sim.events import Event, EventType
from repro.sim.failures import NoFailures
from repro.sim.fluctuation import BurstThrottleFluctuation, NoFluctuation
from repro.sim.kernel import (
    _PAIRS_INTERN_LIMIT,
    EpisodeKernel,
    PendingExecution,
    SimulationError,
)
from repro.sim.metrics import ActivationRecord, SimulationResult

__all__ = [
    "EpisodeOutcome",
    "_FastLane",
    "_LiteResult",
    "_drive_episode",
    "fast_lane_eligible",
]

_DONE = EventType.ACTIVATION_DONE
_DISPATCH = EventType.DISPATCH
_VM_READY = EventType.VM_READY
_PRI_DONE = int(_DONE)
_PRI_DISPATCH = int(_DISPATCH)
_READY = ActivationState.READY
_RUNNING = ActivationState.RUNNING
_FINISHED = ActivationState.FINISHED
_LOCKED = ActivationState.LOCKED

_SUCCEEDED = "successfully finished"

#: Below this slice width the lean loop reduces over the Python-float
#: row mirror instead of gathering through numpy.  A pure performance
#: knob: both paths perform identical comparisons and draws (ties are
#: enumerated in the same order), so the crossover cannot affect
#: results — it was measured on the Montage-50 protocol.
_LEAN_SCALAR_LIMIT = 256


def _drive_general(
    kernel: EpisodeKernel,
    lane: _FastLane,
    lite: bool,
) -> SimulationResult:
    """The general loop body (state already reset; handles every event).

    ``lite`` is accepted for signature parity but ignored: regimes that
    reach this body (failures, migrations, boots, generic fluctuation)
    are rare enough that full records are always kept — a full
    :class:`~repro.sim.metrics.SimulationResult` satisfies every lite
    caller.
    """
    del lite
    state = kernel.state
    vms = kernel.vms
    estimates = kernel.estimates
    fluct = kernel.fluctuation
    failures = kernel.failures
    no_fail = type(failures) is NoFailures
    if type(fluct) is BurstThrottleFluctuation:
        fl_mode = 1
        fl_throttle = fluct.throttle_factor
        fl_credit = fluct.credit_seconds
        fl_maxv = fluct.burstable_max_vcpus
    elif type(fluct) is NoFluctuation:
        fl_mode = 0
        fl_throttle = fl_credit = 0.0
        fl_maxv = 0
    else:
        fl_mode = 2
        fl_throttle = fl_credit = 0.0
        fl_maxv = 0
    completed = False
    try:
        queue = state.queue
        heap = queue._heap
        counter = queue._counter
        max_attempts = kernel.max_attempts
        horizon = kernel.horizon
        n_total = kernel.n_activations
        ac_by_id = kernel._ac_by_id
        vm_by_id = kernel.vm_by_id
        children = kernel._children
        unfinished = state._unfinished_parents
        shared_staging = kernel._shared_staging
        network = kernel.network
        busy_time = state.busy_time
        file_locations = state.file_locations
        fl_get = file_locations.get
        in_flight = state.in_flight
        ready_time = state.ready_time
        attempts = state.attempts
        ready_ids = state._ready_ids
        records = state.records
        interned = state._pairs_interned
        if shared_staging:
            terms_memo = estimates._stage_in_terms
            cmp_memo = estimates._compute
            out_memo = estimates._stage_out

        # RL locals (one lane: its own table, policy stream, reward)
        params = lane.params
        table = lane.qtable
        store = lane.store
        rng_random = lane.rng.random
        rng_integers = lane.rng.integers
        exploit_p = lane.exploit_p
        alpha = params.alpha
        gamma = params.gamma
        discount_power = params.discount_power
        sid = table._state_id(AVAILABLE)
        slice_memo = table._action_slice
        # one-entry identity cache over slice_memo: the update's
        # next_pairs is usually the next selection's pairs (same
        # object, via the interner), so most lookups collapse to a
        # single `is` check (entry[0] is the actions tuple itself;
        # priming with () draws nothing and interns nothing)
        sm_entry = slice_memo(())
        t_rl = 1
        steps = 0
        reward_sum = 0.0

        # inlined PerformanceReward state (Welford mean pushes)
        r_mu = lane.mu
        r_rho = lane.rho
        r_pos = lane.pos
        r_exec_n = lane.exec_n
        r_exec_mean = lane.exec_mean
        r_queue_n = lane.queue_n
        r_queue_mean = lane.queue_mean
        r_index = lane.index
        g_exec_n = lane.g_exec_n
        g_exec_mean = lane.g_exec_mean
        g_queue_n = lane.g_queue_n
        g_queue_mean = lane.g_queue_mean
        reward = 0.0

        # single-slot content caches keyed on the monotonic versions
        ready_tup_v = -1
        ready_tup: Tuple[int, ...] = ()
        idle_ids_v = -1
        idle_ids: Tuple[int, ...] = ()

        # incremental idleness: with no boot/migration/revocation events
        # pending (and none ever scheduled by the models), a VM is idle
        # iff it has a free slot — maintained inline at the two mutation
        # sites instead of rebuilt per (now, version) key
        inc_idle = not heap
        # busy-bitmask idle memo: bit i set ⟺ vms[i] is full.  The two
        # mutation sites keep busy_mask current, so an idle swap is one
        # dict hit on identity-stable tuples instead of a rebuild.
        vm_bits = {vm.id: 1 << i for i, vm in enumerate(vms)}
        idle_by_mask = state._idle_by_mask
        busy_mask = 0
        if inc_idle:
            for i, vm in enumerate(vms):
                if len(vm.running) >= vm.type.vcpus:
                    busy_mask |= 1 << i
            idle = idle_by_mask.get(busy_mask, ())
            if not idle and busy_mask not in idle_by_mask:
                idle = tuple(
                    [vm for vm in vms if len(vm.running) < vm.type.vcpus]
                )
                idle_by_mask[busy_mask] = idle
            if idle != state._idle_cache:
                state._idle_cache = idle
                state._idle_version += 1
        else:
            idle = ()

        state.dispatch_scheduled = True
        heappush(
            heap,
            (state.now, _PRI_DISPATCH, next(counter),
             Event(state.now, _DISPATCH)),
        )

        while True:
            if state._n_finished == n_total:
                break
            if state._n_failed and not state._n_running and not ready_ids:
                if n_total == state._n_finished + state._n_failed:
                    break
            event = None
            while heap:
                item = heappop(heap)
                ev = item[3]
                if not ev.cancelled:
                    event = ev
                    break
            if event is None:
                raise SimulationError(
                    f"simulation deadlocked at t={state.now:.3f}: workflow "
                    f"state {state.workflow_state()!r} with no pending events"
                )
            t = event.time
            now = state.now
            if t < now - 1e-9:
                raise SimulationError("event time regressed (internal bug)")
            if t > now:
                now = t
                state.now = t
            if now > horizon:
                raise SimulationError(
                    f"simulation exceeded horizon {horizon}"
                )
            etype = event.type
            if etype is _DONE:
                pending = event.payload
                aid_ = pending.activation_id
                ac = ac_by_id[aid_]
                vm = vm_by_id[pending.vm_id]
                vm.running.remove(aid_)
                state._vm_version += 1
                if inc_idle and len(vm.running) + 1 == vm.type.vcpus:
                    busy_mask &= ~vm_bits[vm.id]
                    idle = idle_by_mask.get(busy_mask, ())
                    if not idle and busy_mask not in idle_by_mask:
                        idle = tuple([
                            v for v in vms
                            if len(v.running) < v.type.vcpus
                        ])
                        idle_by_mask[busy_mask] = idle
                    state._idle_cache = idle
                    state._idle_version += 1
                del in_flight[aid_]
                busy_time[vm.id] += now - pending.dispatch_time
                outcome = pending.outcome
                if outcome == "success":
                    for f in ac.outputs:
                        file_locations[f.name] = vm.id
                    records.append(ActivationRecord(
                        activation_id=aid_,
                        activity=ac.activity,
                        vm_id=vm.id,
                        ready_time=pending.ready_time,
                        start_time=pending.dispatch_time,
                        finish_time=now,
                        stage_in_time=pending.stage_in,
                        attempts=pending.attempt + 1,
                        failed=False,
                    ))
                    state._records_cache = None
                    ac.state = _FINISHED
                    state._n_running -= 1
                    state._n_finished += 1
                    released = False
                    for child_id in children[aid_]:
                        remaining = unfinished[child_id] - 1
                        unfinished[child_id] = remaining
                        if remaining == 0:
                            child = ac_by_id[child_id]
                            if child.state is _LOCKED:
                                child.state = _READY
                                insort(ready_ids, child_id)
                                ready_time[child_id] = now
                                released = True
                    if released:
                        state._ready_cache = None
                        state._ready_version += 1
                elif outcome == "retry":
                    attempts[aid_] = pending.attempt + 1
                    state.make_ready(ac, was_running=True)
                else:
                    records.append(ActivationRecord(
                        activation_id=aid_,
                        activity=ac.activity,
                        vm_id=vm.id,
                        ready_time=pending.ready_time,
                        start_time=pending.dispatch_time,
                        finish_time=now,
                        stage_in_time=pending.stage_in,
                        attempts=pending.attempt + 1,
                        failed=True,
                    ))
                    state._records_cache = None
                    state.finish_failure(ac)
                if not state.dispatch_scheduled:
                    state.dispatch_scheduled = True
                    heappush(
                        heap,
                        (now, _PRI_DISPATCH, next(counter),
                         Event(now, _DISPATCH)),
                    )
            elif etype is _DISPATCH:
                state.dispatch_scheduled = False
                while ready_ids:
                    if not inc_idle:
                        key = (now, state._vm_version)
                        if key != state._idle_key:
                            state._idle_key = key
                            rebuilt = tuple([
                                vm for vm in vms
                                if not vm.migrating
                                and now >= vm.available_at
                                and vm.type.vcpus > len(vm.running)
                            ])
                            if rebuilt != state._idle_cache:
                                state._idle_cache = rebuilt
                                state._idle_version += 1
                        idle = state._idle_cache
                    if not idle:
                        break
                    pkey = (state._ready_version, state._idle_version)
                    if pkey != state._pairs_key:
                        state._pairs_key = pkey
                        rv, iv = pkey
                        if rv != ready_tup_v:
                            ready_tup_v = rv
                            ready_tup = tuple(ready_ids)
                        if iv != idle_ids_v:
                            idle_ids_v = iv
                            idle_ids = tuple([vm.id for vm in idle])
                        content = (ready_tup, idle_ids)
                        pairs = interned.get(content)
                        if pairs is None:
                            pairs = tuple(product(ready_tup, idle_ids))
                            if len(interned) >= _PAIRS_INTERN_LIMIT:
                                interned.pop(next(iter(interned)))
                            interned[content] = pairs
                        state._pairs_cache = pairs
                    else:
                        pairs = state._pairs_cache
                    # ε-greedy selection, inlined (one gather per step)
                    if rng_random() < exploit_p:
                        if sm_entry[0] is not pairs:
                            sm_entry = slice_memo(pairs)
                        entry = sm_entry
                        aids, id_list, ensured = entry[1], entry[2], entry[3]
                        if sid not in ensured:
                            # full-row shortcut: with the single bucket
                            # row fully initialized, _ensure_known has
                            # nothing left to draw — skip its mask scan
                            if (
                                table._n_known != len(table._actions)
                                or len(table._states) != 1
                            ):
                                table._ensure_known(sid, aids)
                            ensured.add(sid)
                        row = (
                            store.q_row(sid)
                            if store is not None
                            else table._q[sid]
                        )
                        if len(id_list) < 32:
                            values_list = [row[a] for a in id_list]
                            cut = max(values_list) - 1e-15
                            tie_list = [
                                i for i, v in enumerate(values_list)
                                if v >= cut
                            ]
                            if len(tie_list) == 1:
                                i = tie_list[0]
                            else:
                                i = tie_list[int(rng_integers(len(tie_list)))]
                        else:
                            values = row.take(aids)
                            i = int(values.argmax())
                            band = values >= values[i] - 1e-15
                            cnt = int(band.sum())
                            if cnt > 1:
                                ties = np.flatnonzero(band)
                                i = int(ties[int(rng_integers(cnt))])
                        action = pairs[i]
                        sel_aid: Optional[int] = id_list[i]
                    else:
                        i = int(rng_integers(len(pairs)))
                        action = pairs[i]
                        sel_aid = None
                    activation_id, vm_id = action
                    ac = ac_by_id[activation_id]
                    vm = vm_by_id[vm_id]
                    attempt = attempts.get(activation_id, 0)
                    ekey = (activation_id, vm_id)
                    if shared_staging:
                        terms = terms_memo.get(ekey)
                        if terms is None:
                            terms = estimates.stage_in_terms(ac, vm)
                        stage_in = 0.0
                        for name, seconds in terms:
                            if fl_get(name) != vm_id:
                                stage_in += seconds
                    else:
                        stage_in = network.stage_in_time(
                            ac, vm, file_locations
                        )
                    if fl_mode == 0:
                        factor = 1.0
                    elif fl_mode == 1:
                        factor = (
                            fl_throttle
                            if vm.type.vcpus <= fl_maxv
                            and busy_time[vm_id] > fl_credit
                            else 1.0
                        )
                    else:
                        # generic model ⟹ not draw-free ⟹ reset() ran
                        # and the state's fluctuation stream exists
                        factor = fluct.factor(
                            vm, now, busy_time[vm_id], state.rng_fluct
                        )
                    if shared_staging:
                        compute = cmp_memo.get(ekey)
                        if compute is None:
                            compute = estimates.compute_time(ac, vm)
                        compute *= factor
                        stage_out = out_memo.get(ekey)
                        if stage_out is None:
                            stage_out = estimates.stage_out_time(ac, vm)
                    else:
                        compute = estimates.compute_time(ac, vm) * factor
                        stage_out = network.stage_out_time(ac, vm)
                    if no_fail:
                        fails = False
                    else:
                        fails = failures.attempt_fails(
                            ac, vm, attempt, state.rng_fail
                        )
                    if fails:
                        duration = (
                            stage_in
                            + compute * failures.failure_runtime_fraction
                        )
                        outcome = (
                            "retry" if attempt + 1 < max_attempts
                            else "failure"
                        )
                    else:
                        duration = stage_in + compute + stage_out
                        outcome = "success"
                    # start_running, inlined
                    ac.state = _RUNNING
                    del ready_ids[bisect_left(ready_ids, activation_id)]
                    state._n_running += 1
                    state._ready_cache = None
                    state._ready_version += 1
                    vm.running.add(activation_id)
                    state._vm_version += 1
                    if inc_idle and len(vm.running) == vm.type.vcpus:
                        busy_mask |= vm_bits[vm_id]
                        idle = idle_by_mask.get(busy_mask, ())
                        if not idle and busy_mask not in idle_by_mask:
                            idle = tuple([
                                v for v in vms
                                if len(v.running) < v.type.vcpus
                            ])
                            idle_by_mask[busy_mask] = idle
                        state._idle_cache = idle
                        state._idle_version += 1
                    planned_finish = now + duration
                    a_ready_time = ready_time[activation_id]
                    pending = PendingExecution(
                        activation_id=activation_id,
                        vm_id=vm_id,
                        ready_time=a_ready_time,
                        dispatch_time=now,
                        stage_in=stage_in,
                        exec_duration=duration,
                        planned_finish=planned_finish,
                        attempt=attempt,
                        outcome=outcome,
                    )
                    ev = Event(planned_finish, _DONE, pending)
                    pending.event = ev
                    heappush(
                        heap, (planned_finish, _PRI_DONE, next(counter), ev)
                    )
                    in_flight[activation_id] = pending
                    # PerformanceReward.step, inlined (te, tf)
                    te = duration
                    tf = now - a_ready_time
                    pos = r_pos.get(vm_id)
                    if pos is None:
                        pos = len(r_pos)
                        r_pos[vm_id] = pos
                        r_exec_n.append(0)
                        r_exec_mean.append(0.0)
                        r_queue_n.append(0)
                        r_queue_mean.append(0.0)
                        r_index.append(0.0)
                    n = r_exec_n[pos] + 1
                    r_exec_n[pos] = n
                    mean = r_exec_mean[pos]
                    mean += (te - mean) / n
                    r_exec_mean[pos] = mean
                    qn = r_queue_n[pos] + 1
                    r_queue_n[pos] = qn
                    qmean = r_queue_mean[pos]
                    qmean += (tf - qmean) / qn
                    r_queue_mean[pos] = qmean
                    vm_index = mean * r_mu + (1.0 - r_mu) * qmean
                    r_index[pos] = vm_index
                    g_exec_n += 1
                    g_exec_mean += (te - g_exec_mean) / g_exec_n
                    g_queue_n += 1
                    g_queue_mean += (tf - g_queue_mean) / g_queue_n
                    global_index = (
                        g_exec_mean * r_mu + (1.0 - r_mu) * g_queue_mean
                    )
                    # §III-B penalty test, short-circuited: std >= 0, so
                    # a VM at or below the global index can never trip
                    # `vm_index > global_index + std` — the Welford scan
                    # over per-VM indexes only runs when it can matter
                    # (bit-identical: the scan is unchanged when taken)
                    if vm_index > global_index:
                        sn = 0
                        smean = 0.0
                        sm2 = 0.0
                        for x in r_index:
                            sn += 1
                            delta = x - smean
                            smean += delta / sn
                            sm2 += delta * (x - smean)
                        std = math.sqrt(sm2 / sn) if sn >= 2 else 0.0
                        r_i = -1.0 if vm_index > global_index + std else 1.0
                    else:
                        r_i = 1.0
                    reward = reward + r_rho * (r_i - reward)
                    r_t = reward
                    reward_sum += r_t
                    # next-state pairs (post-dispatch view)
                    if ready_ids:
                        if not inc_idle:
                            key = (now, state._vm_version)
                            if key != state._idle_key:
                                state._idle_key = key
                                rebuilt = tuple([
                                    vm for vm in vms
                                    if not vm.migrating
                                    and now >= vm.available_at
                                    and vm.type.vcpus > len(vm.running)
                                ])
                                if rebuilt != state._idle_cache:
                                    state._idle_cache = rebuilt
                                    state._idle_version += 1
                            idle = state._idle_cache
                        if idle:
                            pkey = (
                                state._ready_version, state._idle_version
                            )
                            if pkey != state._pairs_key:
                                state._pairs_key = pkey
                                rv, iv = pkey
                                if rv != ready_tup_v:
                                    ready_tup_v = rv
                                    ready_tup = tuple(ready_ids)
                                if iv != idle_ids_v:
                                    idle_ids_v = iv
                                    idle_ids = tuple(
                                        [vm.id for vm in idle]
                                    )
                                content = (ready_tup, idle_ids)
                                next_pairs = interned.get(content)
                                if next_pairs is None:
                                    next_pairs = tuple(
                                        product(ready_tup, idle_ids)
                                    )
                                    if len(interned) >= _PAIRS_INTERN_LIMIT:
                                        interned.pop(next(iter(interned)))
                                    interned[content] = next_pairs
                                state._pairs_cache = next_pairs
                            else:
                                next_pairs = state._pairs_cache
                        else:
                            next_pairs = ()
                    else:
                        next_pairs = ()
                    gamma_t = gamma ** t_rl if discount_power else gamma
                    if next_pairs:
                        if sm_entry[0] is not next_pairs:
                            sm_entry = slice_memo(next_pairs)
                        entry = sm_entry
                        aids, id_list, ensured = (
                            entry[1], entry[2], entry[3]
                        )
                        if sid not in ensured:
                            # full-row shortcut: with the single bucket
                            # row fully initialized, _ensure_known has
                            # nothing left to draw — skip its mask scan
                            if (
                                table._n_known != len(table._actions)
                                or len(table._states) != 1
                            ):
                                table._ensure_known(sid, aids)
                            ensured.add(sid)
                        row = (
                            store.q_row(sid)
                            if store is not None
                            else table._q[sid]
                        )
                        if len(id_list) < 32:
                            best = row[id_list[0]]
                            for a in id_list[1:]:
                                v = row[a]
                                if v > best:
                                    best = v
                            future = float(best)
                        else:
                            future = float(row.take(aids).max())
                    else:
                        future = 0.0
                    if sel_aid is None:
                        sel_aid = table._action_id(action)
                    if store is not None:
                        known_row = store.known_row(sid)
                        qrow = store.q_row(sid)
                    else:
                        known_row = table._known[sid]
                        qrow = table._q[sid]
                    if known_row[sel_aid]:
                        q_sa = float(qrow[sel_aid])
                    else:
                        q_sa = float(
                            table._rng.uniform(0.0, table._init_scale)
                        )
                        qrow[sel_aid] = q_sa
                        known_row[sel_aid] = True
                        table._n_known += 1
                    delta = r_t + gamma_t * future - q_sa
                    q_new = q_sa + float(alpha * delta)
                    qrow[sel_aid] = q_new
                    t_rl += 1
                    steps += 1
            elif etype is _VM_READY:
                if not state.dispatch_scheduled:
                    state.dispatch_scheduled = True
                    heappush(
                        heap,
                        (now, _PRI_DISPATCH, next(counter),
                         Event(now, _DISPATCH)),
                    )
            elif etype is EventType.MIGRATION_START:
                kernel._begin_migration(event.payload)
            elif etype is EventType.REVOCATION:
                kernel._revoke(event.payload)
            elif etype is EventType.MIGRATION_END:
                vm = vm_by_id[event.payload]
                vm.migrating = False
                state._vm_version += 1
                if not state.dispatch_scheduled:
                    state.dispatch_scheduled = True
                    heappush(
                        heap,
                        (now, _PRI_DISPATCH, next(counter),
                         Event(now, _DISPATCH)),
                    )
            else:
                raise SimulationError(f"unhandled event type {etype!r}")

        lane.t = t_rl
        lane.steps = steps
        lane.reward_sum = reward_sum
        lane.reward = reward
        lane.g_exec_n = g_exec_n
        lane.g_exec_mean = g_exec_mean
        lane.g_queue_n = g_queue_n
        lane.g_queue_mean = g_queue_mean
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


def fast_lane_eligible(params: ReassignParams) -> bool:
    """Whether the fused fast path covers these hyper-parameters.

    The fast path replicates the paper's rule exactly: plain Q-learning
    over the single aggregated "available" state, on a dense (array or
    shard) Q-table backend.  Everything else — SARSA's deferred update,
    double-Q's coin stream, progress buckets, the sparse dict backend —
    runs through the real ``ReassignScheduler`` instead (bit-identical
    either way; only the throughput differs).
    """
    return (
        params.rule == "qlearning"
        and params.state_buckets == 1
        and params.qtable_backend in ("array", "shard")
    )


class _FastLane:
    """Per-lane fused RL state (Q-table, policy stream, reward state).

    The mutable counterpart of a ``ReassignScheduler`` for the fast
    path.  A lane is built over one scheduler and shares its Q-table
    and ``reassign-policy`` generator outright; the §III-B reward state
    is copied in from ``scheduler.reward`` (µ and ρ included), flattened
    into plain lists/scalars the fused loop updates in place, and
    :meth:`write_back` copies it out again, so after a fused run the
    scheduler holds exactly the state the object path leaves.
    """

    __slots__ = (
        "params", "qtable", "store", "rng", "exploit_p", "keep_history",
        "t", "steps", "reward_sum", "mu", "rho", "pos", "exec_n",
        "exec_mean", "queue_n", "queue_mean", "index", "g_exec_n",
        "g_exec_mean", "g_queue_n", "g_queue_mean", "reward",
        "pairs_memo",
    )

    params: ReassignParams
    qtable: QTable
    store: Optional[ShardStore]
    rng: np.random.Generator
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
    queue_n: List[int]
    queue_mean: List[float]
    index: List[float]
    g_exec_n: int
    g_exec_mean: float
    g_queue_n: int
    g_queue_mean: float
    reward: float
    #: id(pairs-tuple) → ``[pairs, id_list, ids_array|None, ensured]``
    #: — the lean loop's cross-episode action-slice cache.  Entries pin
    #: their pairs tuple (slot 0), so the id key can never be reused
    #: while the entry lives.  Valid because the table's action
    #: interning only ever grows.
    pairs_memo: Dict[int, List[Any]]

    def __init__(self, scheduler: ReassignScheduler) -> None:
        params = scheduler.params
        self.params = params
        self.qtable = scheduler.qtable
        self.store = (
            self.qtable._store if self.qtable.backend == "shard" else None
        )
        self.rng = scheduler._rng
        p = params.epsilon
        self.exploit_p = 1.0 - p if params.epsilon_is_exploration else p
        self.keep_history = params.reward_memory == "full"
        self.t = 1
        self.steps = 0
        self.reward_sum = 0.0
        self.pairs_memo = {}
        reward = scheduler.reward
        trackers = list(reward._vms.values())
        self.mu = reward.mu
        self.rho = reward.rho
        self.reward = reward.reward
        self.pos = {vm_id: i for i, vm_id in enumerate(reward._vms)}
        self.exec_n = [t.count for t in trackers]
        self.exec_mean = [t.exec_mean for t in trackers]
        self.queue_n = list(self.exec_n)
        self.queue_mean = [t.queue_mean for t in trackers]
        self.index = [t.mean_index for t in trackers]
        self.g_exec_n = self.g_queue_n = reward._global.count
        self.g_exec_mean = reward._global.exec_mean
        self.g_queue_mean = reward._global.queue_mean

    def write_back(self, scheduler: ReassignScheduler) -> None:
        """Copy the episode counters and reward state into ``scheduler``.

        The inverse of the reward copy in ``__init__`` (the Q-table and
        policy generator are shared, so they need no copy).
        """
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
            self.queue_n = []
            self.queue_mean = []
            self.index = []
            self.g_exec_n = 0
            self.g_exec_mean = 0.0
            self.g_queue_n = 0
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


def _drive_episode(
    kernel: EpisodeKernel,
    lane: _FastLane,
    seed: int,
    lite: bool = False,
) -> EpisodeOutcome:
    """One fully-inlined learning episode on the fast path.

    Resets the kernel's state (stream-free when draw-free), then runs
    the specialized lean body when the regime allows it and the general
    body otherwise — both bit-identical to ``EpisodeKernel.run_episode``
    driving a ``ReassignScheduler`` (see the module docstring).

    ``lite=True`` skips per-activation record construction (see
    :class:`_LiteResult`).
    """
    state = kernel.state
    if kernel.draw_free:
        state.reset_fast()
        lane.start_episode()
        if kernel._shared_staging and not state.queue._heap:
            return _drive_lean(kernel, lane, lite)
    else:
        state.reset(int(seed))
        lane.start_episode()
    return _drive_general(kernel, lane, lite)


def _drive_lean(
    kernel: EpisodeKernel,
    lane: _FastLane,
    lite: bool,
) -> EpisodeOutcome:
    """The specialized loop body (state already reset; see module doc).

    Preconditions (checked by :func:`_drive_episode`): ``draw_free``
    kernel, shared staging network, empty event heap after reset.  In
    this regime no event can ever be cancelled, no VM boots, migrates
    or is revoked, no attempt fails, and every heap entry is an
    ``ACTIVATION_DONE`` — so events are plain tuples on a local heap,
    the in-flight map is never consulted, and the per-step structure is
    "dispatch everything possible at t, then pop the next completion
    cluster" (exactly the generic priority order).
    """
    state = kernel.state
    vms = kernel.vms
    estimates = kernel.estimates
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
    vm_by_id = kernel.vm_by_id
    children = kernel._children
    unfinished = state._unfinished_parents
    file_locations = state.file_locations
    fl_get = file_locations.get
    ready_time = state.ready_time
    ready_ids = state._ready_ids
    records = state.records
    interned = state._pairs_interned
    terms_memo = estimates._stage_in_terms
    cmp_memo = estimates._compute
    out_memo = estimates._stage_out
    assignment: Dict[int, int] = {}

    # RL locals (one lane: its own table, policy stream, reward)
    params = lane.params
    table = lane.qtable
    store = lane.store
    rng_random = lane.rng.random
    rng_integers = lane.rng.integers
    exploit_p = lane.exploit_p
    alpha = params.alpha
    gamma = params.gamma
    discount_power = params.discount_power
    sid = table._state_id(AVAILABLE)
    aget = table._action_ids.get
    action_id = table._action_id
    ensure_known = table._ensure_known
    # lane-persistent action-slice cache; entry: [pairs, id_list,
    # ids_array|None, ensured].  Building an id_list registers unseen
    # actions left-to-right — the exact first-touch order of
    # QTable._action_slice — and never draws.
    pmemo = lane.pairs_memo
    pmemo_get = pmemo.get
    t_rl = 1
    steps = 0
    reward_sum = 0.0

    # Python-float mirror of the single Q-row: scalar reductions read
    # plain floats (same IEEE doubles as the numpy cells), resynced
    # whenever the table's interning or known-count changes — the only
    # events that can replace or write the row outside this loop's own
    # mirrored writes.
    single_state = len(table._states) == 1
    nk_seen = table._n_known
    na_seen = len(table._actions)
    if store is not None:
        qrow = store.q_row(sid)
        known_row = store.known_row(sid)
    else:
        qrow = table._q[sid]
        known_row = table._known[sid]
    row_list: List[float] = qrow.tolist()
    row_get = row_list.__getitem__
    known_list: List[bool] = known_row.tolist()
    full_row = single_state and nk_seen == na_seen

    # inlined PerformanceReward state (Welford mean pushes)
    r_mu = lane.mu
    r_rho = lane.rho
    r_pos = lane.pos
    r_exec_n = lane.exec_n
    r_exec_mean = lane.exec_mean
    r_queue_n = lane.queue_n
    r_queue_mean = lane.queue_mean
    r_index = lane.index
    g_exec_n = lane.g_exec_n
    g_exec_mean = lane.g_exec_mean
    g_queue_n = lane.g_queue_n
    g_queue_mean = lane.g_queue_mean
    reward = 0.0

    # localized version counters + single-slot content caches (the
    # in-state equivalents only matter to generic consumers; written
    # back in the epilogue, monotonicity preserved)
    rv = state._ready_version
    iv = state._idle_version
    vmv = state._vm_version
    ready_tup_v = -1
    ready_tup: Tuple[int, ...] = ()
    idle_ids_v = -1
    idle_ids: Tuple[int, ...] = ()
    last_pkey: Optional[Tuple[int, int]] = None
    cpairs: Tuple[Tuple[int, int], ...] = ()

    # busy-bitmask idle memo (same shape as the general body)
    vm_bits = {vm.id: 1 << i for i, vm in enumerate(vms)}
    vcap_id = {vm.id: vm.type.vcpus for vm in vms}
    idle_by_mask = state._idle_by_mask
    busy_mask = 0
    for i, vm in enumerate(vms):
        if len(vm.running) >= vm.type.vcpus:
            busy_mask |= 1 << i
    idle = idle_by_mask.get(busy_mask, ())
    if not idle and busy_mask not in idle_by_mask:
        idle = tuple(
            [vm for vm in vms if len(vm.running) < vm.type.vcpus]
        )
        idle_by_mask[busy_mask] = idle
    if idle != state._idle_cache:
        state._idle_cache = idle
        iv += 1

    heap: List[Tuple[float, int, int, int, float, float, float]] = []
    cnt = 0
    now = 0.0
    n_finished = 0

    completed = False
    try:
        while n_finished < n_total:
            # -- dispatch phase at `now` ---------------------------------
            while ready_ids and idle:
                pkey = (rv, iv)
                if pkey != last_pkey:
                    last_pkey = pkey
                    if rv != ready_tup_v:
                        ready_tup_v = rv
                        ready_tup = tuple(ready_ids)
                    if iv != idle_ids_v:
                        idle_ids_v = iv
                        idle_ids = tuple([vm.id for vm in idle])
                    content = (ready_tup, idle_ids)
                    got = interned.get(content)
                    if got is None:
                        got = tuple(product(ready_tup, idle_ids))
                        if len(interned) >= _PAIRS_INTERN_LIMIT:
                            interned.pop(next(iter(interned)))
                        interned[content] = got
                    cpairs = got
                pairs = cpairs
                # ε-greedy selection, inlined (one gather per step)
                if rng_random() < exploit_p:
                    mentry = pmemo_get(id(pairs))
                    if mentry is None or mentry[0] is not pairs:
                        id_list = [
                            aid
                            if (aid := aget(a)) is not None
                            else action_id(a)
                            for a in pairs
                        ]
                        mentry = [pairs, id_list, None, False]
                        pmemo[id(pairs)] = mentry
                        if (
                            table._n_known != nk_seen
                            or len(table._actions) != na_seen
                        ):
                            nk_seen = table._n_known
                            na_seen = len(table._actions)
                            if store is not None:
                                qrow = store.q_row(sid)
                                known_row = store.known_row(sid)
                            else:
                                qrow = table._q[sid]
                                known_row = table._known[sid]
                            row_list = qrow.tolist()
                            row_get = row_list.__getitem__
                            known_list = known_row.tolist()
                            full_row = single_state and nk_seen == na_seen
                    else:
                        id_list = mentry[1]
                    if not mentry[3]:
                        if not full_row:
                            ids = mentry[2]
                            if ids is None:
                                ids = np.array(id_list, dtype=np.intp)
                                mentry[2] = ids
                            ensure_known(sid, ids)
                            nk_seen = table._n_known
                            na_seen = len(table._actions)
                            if store is not None:
                                qrow = store.q_row(sid)
                                known_row = store.known_row(sid)
                            else:
                                qrow = table._q[sid]
                                known_row = table._known[sid]
                            row_list = qrow.tolist()
                            row_get = row_list.__getitem__
                            known_list = known_row.tolist()
                            full_row = single_state and nk_seen == na_seen
                        mentry[3] = True
                    if len(id_list) < _LEAN_SCALAR_LIMIT:
                        values_list = list(map(row_get, id_list))
                        cut = max(values_list) - 1e-15
                        tie_list = [
                            i for i, v in enumerate(values_list)
                            if v >= cut
                        ]
                        if len(tie_list) == 1:
                            ipos = tie_list[0]
                        else:
                            ipos = tie_list[int(rng_integers(len(tie_list)))]
                    else:
                        ids = mentry[2]
                        if ids is None:
                            ids = np.array(id_list, dtype=np.intp)
                            mentry[2] = ids
                        values = qrow.take(ids)
                        ipos = int(values.argmax())
                        band = values >= values[ipos] - 1e-15
                        bcnt = int(band.sum())
                        if bcnt > 1:
                            ties = np.flatnonzero(band)
                            ipos = int(ties[int(rng_integers(bcnt))])
                    action = pairs[ipos]
                    sel_aid: Optional[int] = id_list[ipos]
                else:
                    ipos = int(rng_integers(len(pairs)))
                    action = pairs[ipos]
                    sel_aid = None
                activation_id, vm_id = action
                ac = ac_by_id[activation_id]
                vm = vm_by_id[vm_id]
                terms = terms_memo.get(action)
                if terms is None:
                    terms = estimates.stage_in_terms(ac, vm)
                stage_in = 0.0
                for name, seconds in terms:
                    if fl_get(name) != vm_id:
                        stage_in += seconds
                compute = cmp_memo.get(action)
                if compute is None:
                    compute = estimates.compute_time(ac, vm)
                if fl_mode and (
                    vm.type.vcpus <= fl_maxv
                    and busy_time[vm_id] > fl_credit
                ):
                    compute *= fl_throttle
                stage_out = out_memo.get(action)
                if stage_out is None:
                    stage_out = estimates.stage_out_time(ac, vm)
                duration = stage_in + compute + stage_out
                # start_running, inlined
                ac.state = _RUNNING
                del ready_ids[bisect_left(ready_ids, activation_id)]
                rv += 1
                running = vm.running
                running.add(activation_id)
                vmv += 1
                if len(running) == vcap_id[vm_id]:
                    busy_mask |= vm_bits[vm_id]
                    idle = idle_by_mask.get(busy_mask, ())
                    if not idle and busy_mask not in idle_by_mask:
                        idle = tuple([
                            v for v in vms
                            if len(v.running) < v.type.vcpus
                        ])
                        idle_by_mask[busy_mask] = idle
                    iv += 1
                planned_finish = now + duration
                a_ready_time = ready_time[activation_id]
                cnt += 1
                heappush(
                    heap,
                    (planned_finish, cnt, activation_id, vm_id, now,
                     a_ready_time, stage_in),
                )
                # PerformanceReward.step, inlined (te, tf)
                te = duration
                tf = now - a_ready_time
                pos = r_pos.get(vm_id)
                if pos is None:
                    pos = len(r_pos)
                    r_pos[vm_id] = pos
                    r_exec_n.append(0)
                    r_exec_mean.append(0.0)
                    r_queue_n.append(0)
                    r_queue_mean.append(0.0)
                    r_index.append(0.0)
                n = r_exec_n[pos] + 1
                r_exec_n[pos] = n
                mean = r_exec_mean[pos]
                mean += (te - mean) / n
                r_exec_mean[pos] = mean
                qn = r_queue_n[pos] + 1
                r_queue_n[pos] = qn
                qmean = r_queue_mean[pos]
                qmean += (tf - qmean) / qn
                r_queue_mean[pos] = qmean
                vm_index = mean * r_mu + (1.0 - r_mu) * qmean
                r_index[pos] = vm_index
                g_exec_n += 1
                g_exec_mean += (te - g_exec_mean) / g_exec_n
                g_queue_n += 1
                g_queue_mean += (tf - g_queue_mean) / g_queue_n
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
                # next-state pairs (post-dispatch view)
                if ready_ids and idle:
                    pkey = (rv, iv)
                    if pkey != last_pkey:
                        last_pkey = pkey
                        if rv != ready_tup_v:
                            ready_tup_v = rv
                            ready_tup = tuple(ready_ids)
                        if iv != idle_ids_v:
                            idle_ids_v = iv
                            idle_ids = tuple([vm.id for vm in idle])
                        content = (ready_tup, idle_ids)
                        got = interned.get(content)
                        if got is None:
                            got = tuple(product(ready_tup, idle_ids))
                            if len(interned) >= _PAIRS_INTERN_LIMIT:
                                interned.pop(next(iter(interned)))
                            interned[content] = got
                        cpairs = got
                    next_pairs = cpairs
                else:
                    next_pairs = ()
                gamma_t = gamma ** t_rl if discount_power else gamma
                if next_pairs:
                    mentry = pmemo_get(id(next_pairs))
                    if mentry is None or mentry[0] is not next_pairs:
                        id_list2 = [
                            aid
                            if (aid := aget(a)) is not None
                            else action_id(a)
                            for a in next_pairs
                        ]
                        mentry = [next_pairs, id_list2, None, False]
                        pmemo[id(next_pairs)] = mentry
                        if (
                            table._n_known != nk_seen
                            or len(table._actions) != na_seen
                        ):
                            nk_seen = table._n_known
                            na_seen = len(table._actions)
                            if store is not None:
                                qrow = store.q_row(sid)
                                known_row = store.known_row(sid)
                            else:
                                qrow = table._q[sid]
                                known_row = table._known[sid]
                            row_list = qrow.tolist()
                            row_get = row_list.__getitem__
                            known_list = known_row.tolist()
                            full_row = single_state and nk_seen == na_seen
                    else:
                        id_list2 = mentry[1]
                    if not mentry[3]:
                        if not full_row:
                            ids = mentry[2]
                            if ids is None:
                                ids = np.array(id_list2, dtype=np.intp)
                                mentry[2] = ids
                            ensure_known(sid, ids)
                            nk_seen = table._n_known
                            na_seen = len(table._actions)
                            if store is not None:
                                qrow = store.q_row(sid)
                                known_row = store.known_row(sid)
                            else:
                                qrow = table._q[sid]
                                known_row = table._known[sid]
                            row_list = qrow.tolist()
                            row_get = row_list.__getitem__
                            known_list = known_row.tolist()
                            full_row = (
                                single_state and nk_seen == na_seen
                            )
                        mentry[3] = True
                    if len(id_list2) < _LEAN_SCALAR_LIMIT:
                        # max over the same floats in the same compare
                        # order as the explicit scan — identical result
                        future = max(map(row_get, id_list2))
                    else:
                        ids = mentry[2]
                        if ids is None:
                            ids = np.array(id_list2, dtype=np.intp)
                            mentry[2] = ids
                        future = float(qrow.take(ids).max())
                else:
                    future = 0.0
                if sel_aid is None:
                    sel_aid = table._action_id(action)
                    if (
                        table._n_known != nk_seen
                        or len(table._actions) != na_seen
                    ):
                        nk_seen = table._n_known
                        na_seen = len(table._actions)
                        if store is not None:
                            qrow = store.q_row(sid)
                            known_row = store.known_row(sid)
                        else:
                            qrow = table._q[sid]
                            known_row = table._known[sid]
                        row_list = qrow.tolist()
                        row_get = row_list.__getitem__
                        known_list = known_row.tolist()
                        full_row = single_state and nk_seen == na_seen
                if known_list[sel_aid]:
                    q_sa = row_list[sel_aid]
                else:
                    q_sa = float(
                        table._rng.uniform(0.0, table._init_scale)
                    )
                    qrow[sel_aid] = q_sa
                    row_list[sel_aid] = q_sa
                    known_row[sel_aid] = True
                    known_list[sel_aid] = True
                    table._n_known += 1
                    nk_seen += 1
                    full_row = single_state and nk_seen == na_seen
                # every operand is a plain Python float here (the numpy
                # gather path converts through float() above), so the
                # product needs no narrowing cast
                delta = r_t + gamma_t * future - q_sa
                q_new = q_sa + alpha * delta
                qrow[sel_aid] = q_new
                row_list[sel_aid] = q_new
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
                t, _c, aid_, vm_id_, dtime, rtime, sin = heappop(heap)
                now = t
                if now > horizon:
                    raise SimulationError(
                        f"simulation exceeded horizon {horizon}"
                    )
                ac = ac_by_id[aid_]
                vm = vm_by_id[vm_id_]
                running = vm.running
                running.remove(aid_)
                vmv += 1
                if len(running) + 1 == vcap_id[vm_id_]:
                    busy_mask &= ~vm_bits[vm_id_]
                    idle = idle_by_mask.get(busy_mask, ())
                    if not idle and busy_mask not in idle_by_mask:
                        idle = tuple([
                            v for v in vms
                            if len(v.running) < v.type.vcpus
                        ])
                        idle_by_mask[busy_mask] = idle
                    iv += 1
                if fl_mode:
                    busy_time[vm_id_] += now - dtime
                for f in ac.outputs:
                    file_locations[f.name] = vm_id_
                if lite:
                    assignment[aid_] = vm_id_
                else:
                    records.append(ActivationRecord(
                        activation_id=aid_,
                        activity=ac.activity,
                        vm_id=vm_id_,
                        ready_time=rtime,
                        start_time=dtime,
                        finish_time=now,
                        stage_in_time=sin,
                        attempts=1,
                        failed=False,
                    ))
                ac.state = _FINISHED
                n_finished += 1
                released = False
                for child_id in children[aid_]:
                    remaining = unfinished[child_id] - 1
                    unfinished[child_id] = remaining
                    if remaining == 0:
                        child = ac_by_id[child_id]
                        if child.state is _LOCKED:
                            child.state = _READY
                            insort(ready_ids, child_id)
                            ready_time[child_id] = now
                            released = True
                if released:
                    rv += 1
                if not heap or heap[0][0] != now:
                    break

        # -- epilogue: write localized state back ------------------------
        state.now = now
        state._n_finished = n_finished
        state._n_running = 0
        state._vm_version = vmv
        state._ready_version = rv
        state._idle_version = iv
        state._idle_cache = idle
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
        lane.g_queue_n = g_queue_n
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
