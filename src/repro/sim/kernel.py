"""The episode kernel: immutable cross-episode data + resettable state.

The simulation layer is split into three tiers (see
``docs/architecture.md``):

- :class:`EpisodeKernel` — everything valid across episodes: a private
  frozen-topology copy of the workflow with precomputed successor /
  predecessor / entry index maps, the VM fleet, the environment models,
  and a :class:`~repro.sim.estimates.NominalEstimateCache` shared with
  planning-time :class:`~repro.schedulers.base.EstimateModel` objects.
  Build one kernel per (workflow, fleet, models) configuration and call
  :meth:`EpisodeKernel.run_episode` once per episode.
- :class:`EpisodeState` — everything one episode mutates, in two
  halves.  :class:`DagState` is one workflow's progress: activation
  states with an incremental ready set and terminal-predicate
  counters, file placement, records.  :class:`FleetState` is the
  fleet's: simulated time, the event queue, per-VM slots, the model RNG
  streams and the execution-attempt step.  ``reset(seed)`` is
  O(activations + VMs) — no DAG copy, no cache rebuild.  The streaming
  service (:mod:`repro.service.timeline`) runs many ``DagState`` jobs
  on one ``FleetState``; an episode is the one-job case.
- the event loop — :meth:`EpisodeKernel.run_episode` drives (1)+(2),
  preserving the exact event semantics, hook order and float arithmetic
  of the original :class:`~repro.sim.simulator.WorkflowSimulator`, which
  is now a thin facade over this module.  The golden-trace suite
  (``tests/test_kernel_equivalence.py``) pins the equivalence
  bit-for-bit.

Episode-reuse contract: the kernel's workflow copy and fleet are shared
mutable state across episodes.  ``run_episode`` resets them at entry and
scrubs them back to pristine (all activations LOCKED, all VM slots
clear) if an episode aborts with an exception, so a failing episode can
never corrupt the next one.  The caller's workflow object is never
touched at all.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left, insort
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.dag.activation import Activation, ActivationState
from repro.dag.graph import Workflow
from repro.sim.estimates import NominalEstimateCache
from repro.sim.events import Event, EventQueue, EventType
from repro.sim.failures import FailureModel, NoFailures
from repro.sim.fluctuation import (
    BurstThrottleFluctuation,
    FluctuationModel,
    NoFluctuation,
)
from repro.sim.metrics import ActivationRecord, SimulationResult
from repro.sim.migration import MigrationModel, MigrationWindow, NoMigrations
from repro.sim.network import NetworkModel, SharedStorageNetwork
from repro.sim.spot import NoRevocations, RevocationModel
from repro.sim.vm import Vm
from repro.util.rng import RngService
from repro.util.validate import ValidationError, check_positive

__all__ = [
    "DagState",
    "EpisodeKernel",
    "EpisodeState",
    "FleetState",
    "PendingExecution",
    "SimulationContext",
    "SimulationError",
    "kernel_fingerprint",
]

#: Cap on the content-addressed (ready, idle) -> pairs-tuple interner.
#: Its one user is the scheduler-object path (``action_pairs``); the
#: fused lane reads a Q mirror and builds no pair tuples.  A learning
#: run on a mid-size workflow cycles through a few thousand distinct
#: configurations, runs that share a kernel share the interner, and
#: FIFO eviction churns tuple identities, which in turn misses the
#: Q-table's id()-keyed action-slice memo.  Sizing the interner well
#: above that working set keeps both caches hot.  An entry holds the
#: whole ready × idle product, so memory grows with the fleet: 33,531
#: configurations of the paper grid's 64-vCPU fleet held 1.6 million
#: pairs, about 130 MB.
_PAIRS_INTERN_LIMIT = 65536


class SimulationError(RuntimeError):
    """Raised when a simulation cannot make progress (deadlock/horizon)."""


@dataclass
class PendingExecution:
    """Bookkeeping for one in-flight execution attempt."""

    activation_id: int
    vm_id: int
    ready_time: float
    dispatch_time: float
    stage_in: float
    exec_duration: float  #: staging + compute + publish for this attempt
    planned_finish: float
    attempt: int
    outcome: str  #: "success" | "retry" | "failure"
    event: Optional[Event] = None
    job_id: int = 0  #: the owning job on a shared fleet (0 in an episode)

    @property
    def queue_time(self) -> float:
        """``tf`` — how long the activation waited in READY."""
        return self.dispatch_time - self.ready_time

    @property
    def planned_execution_time(self) -> float:
        """``te`` — how long the attempt will occupy the VM."""
        return self.exec_duration


class DagState:
    """One workflow's execution progress.

    Owns the activation ``state`` fields of one workflow instance, the
    sorted READY ids, the unfinished-parent countdown, ready times,
    attempt counts, file placement (names are only unique *within* a
    workflow), the completed records and the terminal-predicate
    counters.  Every transition goes through the methods here, so the
    trackers can never drift from the activation objects.

    ``name`` labels error messages; ``ac_by_id`` and ``children`` are
    the workflow's frozen index maps (children sorted), ``pred_count``
    every activation's parent count.
    """

    def __init__(
        self,
        name: str,
        ac_by_id: Dict[int, Activation],
        children: Dict[int, Tuple[int, ...]],
        pred_count: Dict[int, int],
    ) -> None:
        self.name = name
        self._ac_by_id = ac_by_id
        self._children = children
        self._pred_count = pred_count
        self.n_total = len(ac_by_id)
        # monotonic generation counter of the ready set's contents.  It
        # only ever increases (never reset — schedulers cache across
        # episodes keyed on it)
        self._ready_version = 0
        self.clear_dag()

    def clear_dag(self) -> None:
        """Forget all progress (the activation objects are the caller's)."""
        self.ready_ids: List[int] = []
        self._unfinished_parents = dict(self._pred_count)
        self.ready_time: Dict[int, float] = {}
        self.attempts: Dict[int, int] = {}
        self.file_locations: Dict[str, int] = {}
        self.records: List[ActivationRecord] = []
        self.n_finished = 0
        self.n_failed = 0
        self.n_running = 0
        self._ready_cache: Optional[Tuple[Activation, ...]] = None
        self._records_cache: Optional[Tuple[ActivationRecord, ...]] = None
        self._ready_version += 1

    def release_entries(self, entry_ids: Sequence[int], now: float) -> None:
        """LOCKED -> READY for the (sorted) entry activations."""
        for i in entry_ids:
            self._ac_by_id[i].transition(ActivationState.READY)
            self.ready_ids.append(i)
            self.ready_time[i] = now

    # -- views and the paper's workflow-state predicate, O(1) -----------

    def activation(self, activation_id: int) -> Activation:
        """The activation with the given id."""
        try:
            return self._ac_by_id[activation_id]
        except KeyError:
            raise ValidationError(
                f"unknown activation {activation_id} in {self.name}"
            ) from None

    @property
    def done(self) -> bool:
        """Terminal: every activation finished or terminally failed."""
        return self.n_finished + self.n_failed == self.n_total

    @property
    def failed(self) -> bool:
        return self.n_failed > 0

    def workflow_state(self) -> str:
        """The paper's 4-valued workflow state, from maintained counters.

        Agrees with :meth:`repro.dag.graph.Workflow.workflow_state`'s
        O(n) scan at every point of an execution (the activation
        ``state`` fields are kept in sync by the transition methods).
        """
        if self.done:
            if self.n_failed:
                return "finished with failure"
            return "successfully finished"
        return "available" if self.ready_ids else "unavailable"

    def ready_view(self) -> Tuple[Activation, ...]:
        """READY activations ordered by id; cached until the set changes."""
        if self._ready_cache is None:
            ac_by_id = self._ac_by_id
            self._ready_cache = tuple(ac_by_id[i] for i in self.ready_ids)
        return self._ready_cache

    def records_view(self) -> Tuple[ActivationRecord, ...]:
        """Completed records; cached until the next completion."""
        if self._records_cache is None:
            self._records_cache = tuple(self.records)
        return self._records_cache

    @property
    def ready_version(self) -> int:
        """Monotonic generation counter of the READY set's contents."""
        return self._ready_version

    # -- activation transitions ------------------------------------------

    def make_ready(self, activation: Activation) -> None:
        """RUNNING -> READY (retry / revocation); keeps its ready_time."""
        activation.transition(ActivationState.READY)
        insort(self.ready_ids, activation.id)
        self.n_running -= 1
        self._ready_cache = None
        self._ready_version += 1

    def start_running(self, activation: Activation) -> None:
        """READY -> RUNNING (the caller occupies the VM slot)."""
        activation.transition(ActivationState.RUNNING)
        del self.ready_ids[bisect_left(self.ready_ids, activation.id)]
        self.n_running += 1
        self._ready_cache = None
        self._ready_version += 1

    def finish_success(self, activation: Activation, now: float) -> None:
        """RUNNING -> FINISHED; release now-unblocked children at ``now``.

        O(out-degree) via the unfinished-parent countdown instead of
        re-checking every parent of every child.
        """
        activation.transition(ActivationState.FINISHED)
        self.n_running -= 1
        self.n_finished += 1
        ac_by_id = self._ac_by_id
        released = False
        for child_id in self._children[activation.id]:
            remaining = self._unfinished_parents[child_id] - 1
            self._unfinished_parents[child_id] = remaining
            child = ac_by_id[child_id]
            if remaining == 0 and child.state is ActivationState.LOCKED:
                child.transition(ActivationState.READY)
                insort(self.ready_ids, child_id)
                self.ready_time[child_id] = now
                released = True
        if released:
            self._ready_cache = None
            self._ready_version += 1

    def finish_failure(self, activation: Activation) -> None:
        """RUNNING -> FAILED, cascading to LOCKED descendants.

        Descendants of a failed activation can never run; marking them
        FAILED keeps the paper's terminal predicate reachable.
        """
        activation.transition(ActivationState.FAILED)
        self.n_running -= 1
        self.n_failed += 1
        stack = list(self._children[activation.id])
        while stack:
            node = stack.pop()
            ac = self._ac_by_id[node]
            if ac.state is ActivationState.LOCKED:
                ac.transition(ActivationState.FAILED)
                self.n_failed += 1
                stack.extend(self._children[node])

    def settle(
        self, pending: PendingExecution, now: float
    ) -> Optional[ActivationRecord]:
        """The completion half of an attempt whose slot was released.

        Success publishes the outputs, records the activation and
        releases its children; a retry re-queues it (keeping its ready
        time); a terminal failure records it and cascades to its
        descendants.  Returns the record, or ``None`` for a retry.
        """
        ac = self._ac_by_id[pending.activation_id]
        if pending.outcome == "retry":
            self.attempts[ac.id] = pending.attempt + 1
            self.make_ready(ac)
            return None
        success = pending.outcome == "success"
        if success:
            for f in ac.outputs:
                self.file_locations[f.name] = pending.vm_id
        record = ActivationRecord(
            activation_id=ac.id,
            activity=ac.activity,
            vm_id=pending.vm_id,
            ready_time=pending.ready_time,
            start_time=pending.dispatch_time,
            finish_time=now,
            stage_in_time=pending.stage_in,
            attempts=pending.attempt + 1,
            failed=not success,
        )
        self.records.append(record)
        self._records_cache = None
        if success:
            self.finish_success(ac, now)
        else:
            self.finish_failure(ac)
        return record


class FleetState:
    """The fleet's execution state and the execution-attempt step.

    Owns the simulated clock, the event queue, the runtime slots of the
    VMs in ``fleet``, per-VM busy time, the in-flight attempts keyed by
    slot token, the coalesced-dispatch flag and the idle-VM cache, plus
    the fluctuation and failure models, their RNG streams and the
    attempt budget.  :meth:`start_attempt` plans an attempt and puts it
    in flight; :meth:`DagState.settle` completes it.
    """

    rng_fluct: np.random.Generator
    rng_fail: np.random.Generator

    def __init__(
        self,
        fleet: Sequence[Vm],
        fluctuation: FluctuationModel,
        failures: FailureModel,
        max_attempts: int,
    ) -> None:
        if not fleet:
            raise ValidationError("fleet must contain at least one VM")
        if len({vm.id for vm in fleet}) != len(fleet):
            raise ValidationError("VM ids must be unique")
        if max_attempts < 1:
            raise ValidationError("max_attempts must be >= 1")
        self.fleet = fleet
        self.fluctuation = fluctuation
        self.failures = failures
        self.max_attempts = max_attempts
        # bumped at every slot change, so (now, _vm_version) keys the
        # idle tuple.  _idle_version counts changes of the idle tuple's
        # contents: monotonic like DagState._ready_version, and it bumps
        # only when the rebuilt tuple differs, so a pure time step does
        # not invalidate downstream (ready, idle) cross-product caches
        self._vm_version = 0
        self._idle_version = 0
        self.clear_fleet()

    def clear_fleet(self) -> None:
        """Empty every VM slot, the clock, the queue and the busy time."""
        for vm in self.fleet:
            vm.reset()
        self._vm_version += 1
        self.now = 0.0
        self.queue = EventQueue()
        self.busy_time: Dict[int, float] = {vm.id: 0.0 for vm in self.fleet}
        self.in_flight: Dict[int, PendingExecution] = {}
        self.dispatch_scheduled = False
        self._idle_key: Optional[Tuple[float, int]] = None
        self._idle_cache: Tuple[Vm, ...] = ()
        self._idle_version += 1

    def boot(self) -> None:
        """Start every VM: usable from its type's ``boot_time`` on."""
        for vm in self.fleet:
            boot = vm.type.boot_time
            vm.available_at = boot
            if boot > 0:
                self.queue.schedule(boot, EventType.VM_READY, vm.id)

    def idle_view(self) -> Tuple[Vm, ...]:
        """Idle VMs in fleet order; cached per (time, slot change)."""
        key = (self.now, self._vm_version)
        if key != self._idle_key:
            self._idle_key = key
            now = self.now
            # Vm.is_idle, inlined: this runs at every decision
            rebuilt = tuple(
                vm
                for vm in self.fleet
                if not vm.migrating
                and now >= vm.available_at
                and len(vm.running) < vm.type.vcpus
            )
            if rebuilt != self._idle_cache:
                self._idle_cache = rebuilt
                self._idle_version += 1
        return self._idle_cache

    @property
    def idle_version(self) -> int:
        """Monotonic generation counter of the idle set's contents.

        Refreshes the idle view first: idleness depends on simulated
        time, so the counter is only meaningful for the current ``now``.
        """
        self.idle_view()
        return self._idle_version

    def schedule_dispatch(self) -> None:
        """Queue one decision point at ``now`` unless one is pending."""
        if not self.dispatch_scheduled:
            self.dispatch_scheduled = True
            self.queue.schedule(self.now, EventType.DISPATCH)

    def vm_release(self, vm: Vm, token: int) -> None:
        vm.finish(token)
        self._vm_version += 1

    def vm_touch(self) -> None:
        """Invalidate the idle cache after a direct VM field mutation."""
        self._vm_version += 1

    def start_attempt(
        self,
        dag: DagState,
        activation: Activation,
        vm: Vm,
        token: int,
        costs: Any,
        job_id: int = 0,
    ) -> PendingExecution:
        """Plan one execution attempt of ``activation`` on ``vm``, now.

        Draws in a fixed order: stage-in, one fluctuation factor,
        compute, stage-out, then one failure draw.  Marks the activation
        RUNNING, occupies a slot under ``token`` and schedules the
        completion.  ``costs`` supplies ``stage_in_time``,
        ``compute_time`` and ``stage_out_time`` (the kernel, or a job's
        :class:`~repro.sim.estimates.NominalEstimateCache`).
        """
        if activation.state is not ActivationState.READY:
            raise ValidationError(
                f"cannot start activation {activation.id} of {dag.name}: "
                f"it is {activation.state.name}, not READY"
            )
        now = self.now
        if not vm.is_idle(now):
            raise ValidationError(
                f"cannot start on VM {vm.id}: not idle at t={now:.3f}"
            )
        activation_id = activation.id
        attempt = dag.attempts.get(activation_id, 0)
        stage_in = costs.stage_in_time(activation, vm, dag.file_locations)
        factor = self.fluctuation.factor(
            vm, now, self.busy_time[vm.id], self.rng_fluct
        )
        compute = costs.compute_time(activation, vm) * factor
        stage_out = costs.stage_out_time(activation, vm)
        failures = self.failures
        if failures.attempt_fails(activation, vm, attempt, self.rng_fail):
            duration = stage_in + compute * failures.failure_runtime_fraction
            outcome = "retry" if attempt + 1 < self.max_attempts else "failure"
        else:
            duration = stage_in + compute + stage_out
            outcome = "success"

        dag.start_running(activation)
        vm.start(token)
        self._vm_version += 1
        pending = PendingExecution(
            activation_id=activation_id,
            vm_id=vm.id,
            ready_time=dag.ready_time[activation_id],
            dispatch_time=now,
            stage_in=stage_in,
            exec_duration=duration,
            planned_finish=now + duration,
            attempt=attempt,
            outcome=outcome,
            job_id=job_id,
        )
        pending.event = self.queue.schedule(
            pending.planned_finish, EventType.ACTIVATION_DONE, pending
        )
        self.in_flight[token] = pending
        return pending


class EpisodeState(DagState, FleetState):
    """Mutable per-episode simulation state with an O(n) reset.

    The one-job case: the kernel's workflow copy as a :class:`DagState`
    on the kernel's fleet as a :class:`FleetState`, plus the migration
    and revocation streams and the (ready, idle) action-pair interner.
    """

    def __init__(self, kernel: "EpisodeKernel") -> None:
        # Single-tenancy invariant (PR 6 audit): an EpisodeState owns the
        # kernel's shared mutable objects — the workflow copy's activation
        # states and the fleet's VM slots.  A second live state on the
        # same kernel would scrub those objects out from under the first
        # (this constructor ends in reset(0)), so exactly one state may
        # exist per kernel.  Concurrent multi-job execution goes through
        # repro.service.timeline, which gives every job private
        # structures and shares only the fleet, deliberately.
        if getattr(kernel, "_state", None) is not None:
            raise ValidationError(
                "kernel already owns a live EpisodeState; constructing a "
                "second one would scrub the in-flight episode's shared "
                "workflow/fleet state (use repro.service.FleetTimeline "
                "to multiplex jobs over one fleet)"
            )
        self._kernel = kernel
        DagState.__init__(
            self,
            f"workflow {kernel.workflow.name!r}",
            kernel._ac_by_id,
            kernel._children,
            kernel.initial_pred_count,
        )
        FleetState.__init__(
            self,
            kernel.vms,
            kernel.fluctuation,
            kernel.failures,
            kernel.max_attempts,
        )
        self._pairs_key: Optional[Tuple[int, int]] = None
        self._pairs_cache: Tuple[Tuple[int, int], ...] = ()
        # content-addressed pairs interner: (ready ids, idle ids) ->
        # the cross-product tuple.  Episodes revisit the same handful of
        # configurations, and returning the *same object* lets
        # identity-keyed downstream caches (the Q-table's action-id
        # memo) hit across dispatches and episodes.  Deliberately
        # survives scrub(): content keys are generation-independent.
        self._pairs_interned: Dict[
            Tuple[Tuple[int, ...], Tuple[int, ...]],
            Tuple[Tuple[int, int], ...],
        ] = {}
        # RNG streams, re-derived from the per-episode seed in reset()
        self.rng_migr: np.random.Generator
        self.rng_revoke: np.random.Generator
        self.reset(0)

    # -- lifecycle -------------------------------------------------------

    def scrub(self) -> None:
        """Force the shared mutable objects back to pristine.

        Safe from *any* state, including mid-episode after an exception:
        activation resets bypass the transition table and VM resets clear
        occupied slots.  Leaves every activation LOCKED with no pending
        events — the state ``reset`` starts from.
        """
        for ac in self._kernel.activations:
            ac.reset()
        self.clear_dag()
        self.clear_fleet()
        self._pairs_key = None
        self._pairs_cache = ()

    def reset(self, seed: int) -> None:
        """Start a fresh episode: O(activations + VMs + scheduled windows).

        Mirrors the original per-run initialization exactly — same RNG
        stream names, same event scheduling order (boots, then migration
        windows, then revocations) — so episodes are bit-identical to
        runs of the pre-kernel simulator with the same seed.
        """
        kernel = self._kernel
        self.scrub()
        self.release_entries(kernel.entry_ids, 0.0)

        rng = RngService(seed)
        self.rng_fluct = rng.stream("fluctuation")
        self.rng_fail = rng.stream("failures")
        self.rng_migr = rng.stream("migrations")
        self.rng_revoke = rng.stream("revocations")

        self.boot()

        for window in kernel.migrations.windows(
            kernel.vms, kernel.horizon, self.rng_migr
        ):
            self.queue.schedule(window.start, EventType.MIGRATION_START, window)

        for revocation in kernel.revocations.revocations(
            kernel.vms, kernel.horizon, self.rng_revoke
        ):
            self.queue.schedule(
                revocation.time, EventType.REVOCATION, revocation.vm_id
            )

    def reset_fast(self) -> None:
        """Stream-free episode reset for lean kernels.

        Bit-identical to :meth:`reset` *except* the four per-episode
        RNG streams are not re-derived, so it is only valid when
        ``kernel.lean`` is true — no model ever reads them (the
        attributes keep the previous episode's generators, which a
        lean episode never touches), and no VM boots, so no event is
        scheduled.  Used by the fused lane stepper
        (:mod:`repro.core.lane`), where stream construction otherwise
        dominates the per-episode reset cost.
        """
        kernel = self._kernel
        if not kernel.lean:
            raise ValidationError(
                "reset_fast requires a lean kernel "
                "(see EpisodeKernel.lean); use reset(seed)"
            )
        self.scrub()
        ac_by_id = kernel._ac_by_id
        for i in kernel.entry_ids:
            ac_by_id[i].state = ActivationState.READY
            self.ready_ids.append(i)  # entry_ids are pre-sorted
            self.ready_time[i] = 0.0

    # -- the scheduler-object path's action pairs ------------------------

    def action_pairs(self) -> Tuple[Tuple[int, int], ...]:
        """The (activation_id, vm_id) ready x idle cross product.

        Cached keyed on ``(ready_version, idle_version)``: the same
        tuple object is handed out until either set's contents change,
        so per-decision consumers (``ReassignScheduler``, the Q-table's
        action-id memo) see a stable identity instead of a fresh list
        build per call.
        """
        idle = self.idle_view()
        key = (self._ready_version, self._idle_version)
        if key != self._pairs_key:
            self._pairs_key = key
            content = (
                tuple(self.ready_ids),
                tuple(vm.id for vm in idle),
            )
            pairs = self._pairs_interned.get(content)
            if pairs is None:
                pairs = tuple(
                    (ac.id, vm.id) for ac in self.ready_view() for vm in idle
                )
                if len(self._pairs_interned) >= _PAIRS_INTERN_LIMIT:
                    self._pairs_interned.pop(next(iter(self._pairs_interned)))
                self._pairs_interned[content] = pairs
            self._pairs_cache = pairs
        return self._pairs_cache


class SimulationContext:
    """Read-only view of the simulation handed to schedulers."""

    def __init__(self, kernel: "EpisodeKernel", state: EpisodeState) -> None:
        self._kernel = kernel
        self._state = state

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._state.now

    @property
    def workflow(self) -> Workflow:
        """The (live) workflow DAG; do not mutate."""
        return self._kernel.workflow

    @property
    def vms(self) -> Sequence[Vm]:
        """The full fleet."""
        return self._kernel.vms

    @property
    def ready_activations(self) -> Tuple[Activation, ...]:
        """Activations currently in READY, ordered by id (cached view)."""
        return self._state.ready_view()

    @property
    def idle_vms(self) -> Tuple[Vm, ...]:
        """VMs that can accept an activation right now (cached view)."""
        return self._state.idle_view()

    @property
    def ready_version(self) -> int:
        """Generation counter of :attr:`ready_activations`' contents."""
        return self._state.ready_version

    @property
    def idle_version(self) -> int:
        """Generation counter of :attr:`idle_vms`' contents."""
        return self._state.idle_version

    @property
    def action_pairs(self) -> Tuple[Tuple[int, int], ...]:
        """Cached (activation_id, vm_id) ready x idle cross product.

        The same tuple object is returned until the ready or idle set
        changes — schedulers can key identity-based caches on it.
        """
        return self._state.action_pairs()

    @property
    def n_finished(self) -> int:
        """Activations finished successfully so far (O(1) counter)."""
        return self._state.n_finished

    @property
    def records(self) -> Tuple[ActivationRecord, ...]:
        """Completed activation records so far (cached view)."""
        return self._state.records_view()

    @property
    def file_locations(self) -> Mapping[str, int]:
        """Read-only file-name -> producing-VM-id placement map."""
        return MappingProxyType(self._state.file_locations)

    def ready_time(self, activation_id: int) -> float:
        """When ``activation_id`` became READY (raises if it has not)."""
        try:
            return self._state.ready_time[activation_id]
        except KeyError:
            raise ValidationError(
                f"activation {activation_id} has not become ready"
            ) from None

    def estimated_execution(self, activation: Activation, vm: Vm) -> float:
        """Nominal compute estimate (no staging, no fluctuation)."""
        return self._kernel.estimates.compute_time(activation, vm)

    def estimated_stage_in(self, activation: Activation, vm: Vm) -> float:
        """Staging estimate given current file placement."""
        return self._kernel.stage_in_time(
            activation, vm, self._state.file_locations
        )

    def vm_busy_time(self, vm_id: int) -> float:
        """Cumulative busy seconds accrued by the VM."""
        return self._state.busy_time.get(vm_id, 0.0)


class EpisodeKernel:
    """Immutable cross-episode simulation data plus the event loop.

    Parameters
    ----------
    workflow:
        The DAG.  The kernel takes a private copy at construction; the
        caller's object is never mutated.  The copy's topology is frozen
        for the kernel's lifetime — only activation states change, and
        those are reset per episode.
    vms:
        The fleet.  VM runtime state is reset at the start of each
        episode.
    network / fluctuation / failures / migrations / revocations:
        Environment models; defaults are shared-storage staging and
        no-op stochastic models.
    max_attempts:
        Execution attempts per activation before it terminally fails.
    horizon:
        Hard simulated-time limit; exceeding it raises
        :class:`SimulationError` (it indicates a deadlock or a
        pathological schedule).
    """

    def __init__(
        self,
        workflow: Workflow,
        vms: Sequence[Vm],
        *,
        network: Optional[NetworkModel] = None,
        fluctuation: Optional[FluctuationModel] = None,
        failures: Optional[FailureModel] = None,
        migrations: Optional[MigrationModel] = None,
        revocations: Optional[RevocationModel] = None,
        max_attempts: int = 1,
        horizon: float = 1e6,
    ) -> None:
        self.workflow = workflow.copy()
        self.vms: List[Vm] = list(vms)
        self.vm_by_id: Dict[int, Vm] = {vm.id: vm for vm in self.vms}
        self.network = network if network is not None else SharedStorageNetwork()
        self.fluctuation = (
            fluctuation if fluctuation is not None else NoFluctuation()
        )
        self.failures = failures if failures is not None else NoFailures()
        self.migrations = (
            migrations if migrations is not None else NoMigrations()
        )
        self.revocations = (
            revocations if revocations is not None else NoRevocations()
        )
        self.max_attempts = int(max_attempts)
        self.horizon = check_positive("horizon", horizon)

        # frozen topology indexes (id -> sorted neighbour tuples)
        wf = self.workflow
        self._ac_by_id: Dict[int, Activation] = {
            ac.id: ac for ac in wf.activations
        }
        self.activations: Tuple[Activation, ...] = tuple(wf.activations)
        self._children: Dict[int, Tuple[int, ...]] = {
            i: tuple(wf.children(i)) for i in wf.activation_ids
        }
        self._parents: Dict[int, Tuple[int, ...]] = {
            i: tuple(wf.parents(i)) for i in wf.activation_ids
        }
        self.entry_ids: Tuple[int, ...] = tuple(wf.entries())
        self.initial_pred_count: Dict[int, int] = {
            i: len(parents) for i, parents in self._parents.items()
        }

        # shared nominal estimates; staging fast path only for the exact
        # SharedStorageNetwork (subclasses may override the formulas)
        self._shared_staging = type(self.network) is SharedStorageNetwork
        if self._shared_staging:
            assert isinstance(self.network, SharedStorageNetwork)
            self.estimates = NominalEstimateCache(
                self.vms,
                latency=self.network.latency,
                upload_outputs=self.network.upload_outputs,
            )
        else:
            self.estimates = NominalEstimateCache(self.vms)

        # A lean kernel is the regime the fused lane stepper
        # (repro.core.lane) covers.  It is draw-free: it never reads any
        # of the four per-episode RNG streams (no failures, migrations
        # or revocations, and a fluctuation model known to be
        # deterministic).  It stages through the exact shared-storage
        # network, and no VM boots, so an episode's only events are
        # activation completions.  Exact type checks, not isinstance —
        # a subclass may override behaviour and start drawing.  Every
        # input is covered by kernel_fingerprint.
        self._lean = (
            type(self.failures) is NoFailures
            and type(self.migrations) is NoMigrations
            and type(self.revocations) is NoRevocations
            and type(self.fluctuation)
            in (NoFluctuation, BurstThrottleFluctuation)
            and self._shared_staging
            and all(vm.type.boot_time == 0 for vm in self.vms)
        )

        self._state = EpisodeState(self)
        self._ctx = SimulationContext(self, self._state)

    # -- frozen-topology accessors ---------------------------------------

    @property
    def n_activations(self) -> int:
        return len(self.activations)

    @property
    def lean(self) -> bool:
        """Whether the fused lane stepper can run this kernel's episodes.

        Draw-free, shared staging and no VM boot time; fixed at
        construction (see ``__init__``).
        """
        return self._lean

    def activation(self, activation_id: int) -> Activation:
        """The kernel's activation with the given id."""
        return self._state.activation(activation_id)

    def children(self, activation_id: int) -> Tuple[int, ...]:
        """Direct successor ids, sorted (precomputed)."""
        return self._children[activation_id]

    def parents(self, activation_id: int) -> Tuple[int, ...]:
        """Direct predecessor ids, sorted (precomputed)."""
        return self._parents[activation_id]

    @property
    def state(self) -> EpisodeState:
        """The kernel's (single, reusable) episode state."""
        return self._state

    @property
    def context(self) -> SimulationContext:
        """The scheduler-facing view over this kernel's episode state."""
        return self._ctx

    # -- shared estimates ------------------------------------------------

    def stage_in_time(
        self,
        activation: Activation,
        vm: Vm,
        file_locations: Dict[str, int],
    ) -> float:
        """Staging seconds under the kernel's network model.

        Uses the memoized per-file terms when the model is the exact
        :class:`SharedStorageNetwork` (bit-identical arithmetic);
        delegates to the model otherwise.
        """
        if self._shared_staging:
            return self.estimates.stage_in_time(activation, vm, file_locations)
        return self.network.stage_in_time(activation, vm, file_locations)

    def compute_time(self, activation: Activation, vm: Vm) -> float:
        """Nominal compute seconds (no fluctuation), from the shared cache."""
        return self.estimates.compute_time(activation, vm)

    def stage_out_time(self, activation: Activation, vm: Vm) -> float:
        """Publishing seconds under the kernel's network model."""
        if self._shared_staging:
            return self.estimates.stage_out_time(activation, vm)
        return self.network.stage_out_time(activation, vm)

    def estimate_model(self) -> Any:
        """A planning-time ``EstimateModel`` backed by this kernel's cache.

        HEFT-style planners constructed with it share the kernel's
        memoized per-(activation, vm) values instead of recomputing them.
        Falls back to a default (uncached) model when the kernel's
        network is not the shared-storage one the estimates mirror.
        (Deferred import: ``repro.schedulers.base`` imports this package.)
        """
        from repro.schedulers.base import EstimateModel

        if not self._shared_staging:
            return EstimateModel()
        return EstimateModel(
            latency=self.estimates.latency,
            upload_outputs=self.estimates.upload_outputs,
            cache=self.estimates,
        )

    # -- hooks -----------------------------------------------------------

    def _call_hook(self, scheduler: Any, name: str, *args: Any) -> None:
        hook = getattr(scheduler, name, None)
        if hook is not None:
            hook(*args)

    # -- the event loop --------------------------------------------------

    def run_episode(self, scheduler: Any, seed: int) -> SimulationResult:
        """Execute one episode to a terminal state and return the result.

        Resets the episode state from ``seed`` at entry, so any residue
        of a previous (even aborted) episode is erased; if *this*
        episode raises, the shared workflow/fleet state is scrubbed back
        to pristine before the exception propagates (robustness
        satellite: a failing episode cannot corrupt the following one).
        """
        state = self._state
        state.reset(int(seed))
        completed = False
        try:
            result = self._run(scheduler)
            completed = True
            return result
        finally:
            if not completed:
                state.scrub()

    def _run(self, scheduler: Any) -> SimulationResult:
        state = self._state
        ctx = self._ctx
        self._call_hook(scheduler, "on_simulation_start", ctx)
        state.schedule_dispatch()

        while not state.done:
            event = state.queue.pop()
            if event is None:
                raise SimulationError(
                    f"simulation deadlocked at t={state.now:.3f}: workflow "
                    f"state {state.workflow_state()!r} with no pending events"
                )
            if event.time < state.now - 1e-9:
                raise SimulationError("event time regressed (internal bug)")
            state.now = max(state.now, event.time)
            if state.now > self.horizon:
                raise SimulationError(
                    f"simulation exceeded horizon {self.horizon}"
                )
            self._handle(scheduler, event)

        makespan = max(
            (r.finish_time for r in state.records), default=state.now
        )
        result = SimulationResult(
            workflow_name=self.workflow.name,
            records=list(state.records),
            makespan=makespan,
            final_state=state.workflow_state(),
            vms=list(self.vms),
        )
        self._call_hook(scheduler, "on_simulation_end", ctx, result)
        return result

    # -- event handling --------------------------------------------------

    def _handle(self, scheduler: Any, event: Event) -> None:
        state = self._state
        if event.type is EventType.ACTIVATION_DONE:
            self._complete(scheduler, event.payload)
        elif event.type is EventType.DISPATCH:
            state.dispatch_scheduled = False
            self._dispatch_loop(scheduler)
        elif event.type is EventType.VM_READY:
            state.schedule_dispatch()
        elif event.type is EventType.MIGRATION_START:
            self._begin_migration(event.payload)
        elif event.type is EventType.REVOCATION:
            self._revoke(event.payload)
        elif event.type is EventType.MIGRATION_END:
            vm = self.vm_by_id[event.payload]
            vm.migrating = False
            state.vm_touch()
            state.schedule_dispatch()
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unhandled event type {event.type!r}")

    # -- dispatch --------------------------------------------------------

    def _dispatch_loop(self, scheduler: Any) -> None:
        """Repeatedly ask the scheduler for actions while 'available'."""
        state = self._state
        while True:
            if not state.ready_ids or not state.idle_view():
                return
            decision = scheduler.select(self._ctx)
            if decision is None:
                return  # the "do nothing" action
            activation_id, vm_id = decision
            self._dispatch(scheduler, activation_id, vm_id)

    def _dispatch(self, scheduler: Any, activation_id: int, vm_id: int) -> None:
        state = self._state
        ac = self.activation(activation_id)
        vm = self.vm_by_id.get(vm_id)
        if vm is None:
            raise ValidationError(f"scheduler chose unknown VM {vm_id}")
        pending = state.start_attempt(state, ac, vm, activation_id, self)
        self._call_hook(scheduler, "on_dispatched", self._ctx, pending)

    # -- completion ------------------------------------------------------

    def _complete(self, scheduler: Any, pending: PendingExecution) -> None:
        state = self._state
        vm = self.vm_by_id[pending.vm_id]
        state.vm_release(vm, pending.activation_id)
        del state.in_flight[pending.activation_id]
        state.busy_time[vm.id] += state.now - pending.dispatch_time
        record = state.settle(pending, state.now)
        if record is not None:
            self._call_hook(
                scheduler, "on_activation_finished", self._ctx, record
            )
        state.schedule_dispatch()

    # -- revocation ------------------------------------------------------

    def _revoke(self, vm_id: int) -> None:
        """Permanently reclaim a spot VM; requeue its in-flight work."""
        state = self._state
        vm = self.vm_by_id.get(vm_id)
        if vm is None:
            return  # model produced a revocation for a VM not in this fleet
        vm.available_at = float("inf")  # never idle again
        state.vm_touch()
        interrupted = [
            p for p in state.in_flight.values() if p.vm_id == vm_id
        ]
        for pending in interrupted:
            if pending.event is not None:
                pending.event.cancel()
            del state.in_flight[pending.activation_id]
            state.vm_release(vm, pending.activation_id)
            state.busy_time[vm.id] += state.now - pending.dispatch_time
            # back to READY for rescheduling on a surviving VM; the
            # original ready_time is kept so queue time reflects the loss
            state.make_ready(self.activation(pending.activation_id))
        state.schedule_dispatch()

    # -- migration -------------------------------------------------------

    def _begin_migration(self, window: MigrationWindow) -> None:
        state = self._state
        vm = self.vm_by_id.get(window.vm_id)
        if vm is None:
            return  # model generated a window for a VM not in this fleet
        vm.migrating = True
        state.vm_touch()
        # Delay every in-flight execution on this VM by the downtime.
        for pending in state.in_flight.values():
            if pending.vm_id != vm.id:
                continue
            if pending.event is not None:
                pending.event.cancel()
            pending.planned_finish += window.downtime
            pending.exec_duration += window.downtime
            pending.event = state.queue.schedule(
                pending.planned_finish, EventType.ACTIVATION_DONE, pending
            )
        state.queue.schedule(
            state.now + window.downtime, EventType.MIGRATION_END, vm.id
        )


# -- kernel fingerprinting (worker-side kernel reuse) ---------------------


def _canon(obj: object, depth: int = 0) -> Optional[object]:
    """Conservative canonical form of an environment model's config.

    Recurses through primitives, tuples/lists, string-keyed dicts and
    plain-``__dict__`` objects; anything else (open handles, RNGs,
    callables, ...) yields ``None``, which makes the whole fingerprint
    ``None`` — i.e. "don't cache", never "cache wrongly".  Deliberately
    avoids ``repr``/``hash``/``id``: those can embed memory addresses,
    which would differ between the parent that declares a fingerprint
    and the worker that recomputes it.
    """
    if depth > 6:
        return None
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (tuple, list)):
        items: List[object] = []
        for element in obj:
            canon = _canon(element, depth + 1)
            if canon is None and element is not None:
                return None
            items.append(canon)
        return items
    if isinstance(obj, dict):
        pairs: List[Tuple[str, object]] = []
        for key, value in obj.items():
            if not isinstance(key, (str, int, float, bool)):
                return None
            canon = _canon(value, depth + 1)
            if canon is None and value is not None:
                return None
            pairs.append((str(key), canon))
        pairs.sort(key=lambda kv: kv[0])
        return pairs
    fields = getattr(obj, "__dict__", None)
    if isinstance(fields, dict):
        canon = _canon(fields, depth + 1)
        if canon is None:
            return None
        return [type(obj).__module__ + "." + type(obj).__qualname__, canon]
    return None


def kernel_fingerprint(
    workflow: Workflow,
    vms: Sequence[Vm],
    *,
    network: Optional[NetworkModel] = None,
    fluctuation: Optional[FluctuationModel] = None,
    failures: Optional[FailureModel] = None,
    migrations: Optional[MigrationModel] = None,
    revocations: Optional[RevocationModel] = None,
    max_attempts: int = 1,
    horizon: float = 1e6,
) -> Optional[str]:
    """Structural digest of an :class:`EpisodeKernel` configuration.

    Two calls return the same string iff they would build equivalent
    kernels: same workflow topology/runtimes/files, same fleet
    (ids + VM types) and same environment-model configurations.  Returns
    ``None`` when any model cannot be canonicalized — the parallel
    runner then simply skips worker-side kernel caching for that task
    (see ``docs/runner.md``).
    """
    parts: List[object] = [
        workflow.name,
        [
            [
                ac.id,
                ac.activity,
                ac.runtime,
                [[f.name, f.size_bytes] for f in ac.inputs],
                [[f.name, f.size_bytes] for f in ac.outputs],
            ]
            for ac in workflow.activations
        ],
        [[i, list(workflow.children(i))] for i in workflow.activation_ids],
        [
            [
                vm.id,
                vm.type.name,
                vm.type.vcpus,
                vm.type.speed,
                vm.type.ram_gb,
                vm.type.price_per_hour,
                vm.type.bandwidth_mbps,
                vm.type.boot_time,
            ]
            for vm in vms
        ],
        int(max_attempts),
        float(horizon),
    ]
    for model in (network, fluctuation, failures, migrations, revocations):
        canon = _canon(model)
        if canon is None and model is not None:
            return None
        parts.append(canon)
    payload = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return "kernel:" + hashlib.sha256(payload.encode("utf-8")).hexdigest()
