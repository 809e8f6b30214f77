"""The shared-fleet timeline: multiplexing many jobs over one fleet.

One :class:`FleetTimeline` owns one VM fleet, one global
:class:`~repro.sim.events.EventQueue` and one simulated clock, and
drives every admitted job's DAG through them concurrently.  It is the
streaming counterpart of :meth:`repro.sim.kernel.EpisodeKernel.run_episode`
and runs on the kernel's execution semantics: the timeline is a
:class:`~repro.sim.kernel.FleetState` (clock, queue, VM slots, idle
cache, the attempt-planning step) and each admitted job a
:class:`JobRun`, which is a :class:`~repro.sim.kernel.DagState`
(activation state machine, ready set, records, the attempt-completion
step).  What the timeline adds is *jobs arriving over time*, admission
control, a per-tenant job index and a pluggable policy choosing among
the ready activations of **all** in-flight jobs at every decision point.
``tests/test_timeline_oracle.py`` holds a one-job run to the kernel's
episode, record for record.

Multi-tenancy isolation (the single-tenancy audit in PR 6 — pinned by
``tests/test_service_multitenancy.py``):

- each job owns a private :class:`JobRun` with its **own** workflow
  instance, file-placement map and nominal-estimate cache.  Workflow
  generators reuse file names across instances (two Montage jobs both
  produce ``proj_0.fits``) and number activations from 0, so sharing
  either the name-keyed ``file_locations`` dict or the
  activation-id-keyed estimate cache across jobs would silently leak
  data locality and cost estimates between tenants;
- VM slot occupancy, per-VM cumulative busy time (which drives
  burst-throttle fluctuation) and the stochastic model RNG streams are
  **global** — that is the contention being modelled.

Determinism: the event heap's ``(time, priority, sequence)`` total order
plus arrival events pre-scheduled in job-id order makes a run a pure
function of ``(schedule, fleet, policy, seed)``, whatever order the
fleet is passed in (the timeline holds it in VM id order).  No
wall-clock reads, no unordered iteration — jobs are iterated in
admission order or per tenant in ``(arrival_time, job_id)`` order.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.dag.activation import Activation
from repro.dag.graph import Workflow
from repro.service.jobs import Job
from repro.service.metrics import JobRecord, ServiceResult
from repro.sim.estimates import NominalEstimateCache
from repro.sim.events import Event, EventType
from repro.sim.failures import FailureModel, NoFailures
from repro.sim.fluctuation import FluctuationModel, NoFluctuation
from repro.sim.kernel import (
    DagState,
    FleetState,
    HorizonExceeded,
    PendingExecution,
    SimulationError,
)
from repro.sim.vm import Vm
from repro.util.rng import RngService
from repro.util.validate import ValidationError, check_positive

if TYPE_CHECKING:  # import cycle: policies imports ServiceView from here
    from repro.service.policies import SchedulingPolicy

#: ``factory(job) -> Workflow`` — materializes a job's DAG at admission.
WorkflowFactory = Callable[["Job"], "Workflow"]

__all__ = [
    "FleetTimeline",
    "JobRun",
    "ServiceView",
]


class JobRun(DagState):
    """Private execution state of one admitted job: a
    :class:`~repro.sim.kernel.DagState` over the job's own workflow
    instance, plus its own nominal-estimate cache (keyed by activation
    id, which restarts at 0 for every generated DAG).
    """

    def __init__(
        self,
        job: Job,
        workflow: Workflow,
        fleet: Sequence[Vm],
        *,
        latency: float,
        upload_outputs: bool,
        admit_time: float,
    ) -> None:
        super().__init__(
            f"job {job.job_id}",
            {ac.id: ac for ac in workflow.activations},
            {i: tuple(workflow.children(i)) for i in workflow.activation_ids},
            {i: len(workflow.parents(i)) for i in workflow.activation_ids},
        )
        self.job = job
        self.workflow = workflow
        self.admit_time = admit_time
        self.first_dispatch_time: Optional[float] = None
        self.estimates = NominalEstimateCache(
            fleet, latency=latency, upload_outputs=upload_outputs
        )
        self.release_entries(workflow.entries(), admit_time)


class ServiceView:
    """Read-only view of the timeline handed to scheduling policies."""

    def __init__(self, timeline: "FleetTimeline") -> None:
        self._tl = timeline

    @property
    def now(self) -> float:
        return self._tl.now

    @property
    def jobs(self) -> Tuple[JobRun, ...]:
        """In-flight jobs in admission order.

        Admission order is not a tie-break order: a policy may admit
        jobs out of arrival order, and FIFO breaks ties by
        ``(arrival_time, job_id)``.
        """
        return tuple(self._tl.admitted.values())

    @property
    def jobs_by_tenant(self) -> Mapping[str, Sequence[JobRun]]:
        """Each tenant's in-flight jobs in ``(arrival_time, job_id)`` order.

        Only tenants with at least one in-flight job appear.
        """
        return self._tl.tenant_jobs

    @property
    def idle_vms(self) -> Tuple[Vm, ...]:
        """VMs able to accept an activation now, ordered by id."""
        return self._tl.idle_view()

    @property
    def tenant_busy_time(self) -> Mapping[str, float]:
        """Cumulative busy seconds consumed per tenant (fair-share basis)."""
        return self._tl.tenant_busy_time

    @property
    def tenant_running(self) -> Mapping[str, int]:
        """Activations currently executing per tenant."""
        return self._tl.tenant_running

    def estimated_execution(
        self, run: JobRun, activation: Activation, vm: Vm
    ) -> float:
        """Nominal compute estimate from the job's private cache."""
        return run.estimates.compute_time(activation, vm)

    def estimated_stage_in(
        self, run: JobRun, activation: Activation, vm: Vm
    ) -> float:
        """Staging estimate under the job's private file placement."""
        return run.estimates.stage_in_time(
            activation, vm, run.file_locations
        )


class FleetTimeline(FleetState):
    """The multiplexing event loop over one shared fleet.

    A :class:`~repro.sim.kernel.FleetState` — the clock, the event
    queue, the VM slots, the idle cache and the execution-attempt step
    an episode runs on — that adds job admission, the per-tenant job
    index and retirement, and runs one :class:`JobRun` per admitted job.

    Parameters
    ----------
    fleet:
        The shared VMs.  The timeline takes ownership: VM runtime state
        is reset at :meth:`run` entry and mutated throughout.
    fluctuation / failures / max_attempts:
        Optional stochastic execution models, shared across jobs (one
        global RNG stream each, derived from ``seed``).
    latency / upload_outputs:
        Shared-storage staging parameters (the service supports the
        default :class:`~repro.sim.network.SharedStorageNetwork`
        semantics via per-job estimate caches).
    max_in_flight:
        Admission-control cap on concurrently executing jobs
        (``None`` = admit on arrival).
    horizon:
        Hard simulated-time safety limit.
    seed:
        Root seed for the model RNG streams.
    """

    def __init__(
        self,
        fleet: Sequence[Vm],
        *,
        fluctuation: Optional[FluctuationModel] = None,
        failures: Optional[FailureModel] = None,
        max_attempts: int = 1,
        latency: float = 0.05,
        upload_outputs: bool = True,
        max_in_flight: Optional[int] = None,
        horizon: float = 1e9,
        seed: int = 0,
    ) -> None:
        if max_in_flight is not None and max_in_flight < 1:
            raise ValidationError("max_in_flight must be >= 1 or None")
        self.horizon = check_positive("horizon", horizon)
        # id order, whatever the caller's order: policies break cost ties
        # by taking the first idle VM, which must be the lowest id
        super().__init__(
            sorted(fleet, key=lambda vm: vm.id),
            fluctuation if fluctuation is not None else NoFluctuation(),
            failures if failures is not None else NoFailures(),
            int(max_attempts),
        )
        self.vm_by_id: Dict[int, Vm] = {vm.id: vm for vm in self.fleet}
        self.latency = latency
        self.upload_outputs = bool(upload_outputs)
        self.max_in_flight = max_in_flight
        self.seed = int(seed)

        self.admitted: Dict[int, JobRun] = {}  # insertion = admission order
        # the same runs grouped by tenant, each list in arrival order
        self.tenant_jobs: Dict[str, List[JobRun]] = {}
        self.waiting: List[Job] = []
        self.tenant_busy_time: Dict[str, float] = {}
        self.tenant_running: Dict[str, int] = {}
        self.completed: List[JobRecord] = []
        self._view = ServiceView(self)
        self._workflow_factory: WorkflowFactory = _registry_factory
        self._ran = False

    def has_ready(self) -> bool:
        for run in self.admitted.values():
            if run.ready_ids:
                return True
        return False

    # -- the event loop --------------------------------------------------

    def run(
        self,
        jobs: Sequence[Job],
        policy: "SchedulingPolicy",
        *,
        workflow_factory: Optional[WorkflowFactory] = None,
    ) -> ServiceResult:
        """Drive every job from arrival to completion; return metrics.

        Single-use: a timeline accumulates global busy-time state, so
        each run needs a fresh instance (the :class:`SchedulerService`
        facade handles that).  Job ids must be unique: they key the
        admitted jobs and the VM slot tokens.

        ``workflow_factory(job) -> Workflow`` materializes each job's
        DAG at admission; the default builds from the workflow registry
        (``make_workflow(job.workflow, job.size, seed=job.workflow_seed)``).
        """
        if self._ran:
            raise ValidationError(
                "FleetTimeline.run is single-use; build a new timeline "
                "per service run"
            )
        ids = sorted(job.job_id for job in jobs)
        for before, job_id in zip(ids, ids[1:]):
            if job_id == before:
                raise ValidationError(f"duplicate job id {job_id}")
        self._ran = True
        if workflow_factory is not None:
            self._workflow_factory = workflow_factory
        rng = RngService(self.seed)
        self.rng_fluct = rng.stream("service-fluctuation")
        self.rng_fail = rng.stream("service-failures")
        self.clear_fleet()
        self.boot()

        ordered = sorted(jobs, key=lambda j: (j.arrival_time, j.job_id))
        for job in ordered:
            self.queue.schedule(job.arrival_time, EventType.JOB_ARRIVAL, job)

        n_jobs = len(ordered)
        while len(self.completed) < n_jobs:
            event = self.queue.pop()
            if event is None:
                raise SimulationError(
                    f"service deadlocked at t={self.now:.3f}: "
                    f"{len(self.completed)}/{n_jobs} jobs complete, "
                    f"{len(self.waiting)} waiting admission, no events"
                )
            if event.time < self.now - 1e-9:
                raise SimulationError("event time regressed (internal bug)")
            self.now = max(self.now, event.time)
            if self.now > self.horizon:
                raise HorizonExceeded(
                    f"service exceeded horizon {self.horizon} with "
                    f"{n_jobs - len(self.completed)} jobs unfinished"
                )
            self._handle(policy, event)

        end_time = max((r.completion_time for r in self.completed), default=0.0)
        return ServiceResult(
            jobs=list(self.completed),
            end_time=end_time,
            vm_busy_time=dict(self.busy_time),
            vm_capacity={vm.id: vm.capacity for vm in self.fleet},
            policy=policy.name,
            seed=self.seed,
        )

    # -- event handling --------------------------------------------------

    def _handle(self, policy: "SchedulingPolicy", event: Event) -> None:
        if event.type is EventType.JOB_ARRIVAL:
            self.waiting.append(event.payload)
            self._admit(policy)
            self.schedule_dispatch()
        elif event.type is EventType.ACTIVATION_DONE:
            self._complete(policy, event.payload)
        elif event.type is EventType.DISPATCH:
            self.dispatch_scheduled = False
            self._dispatch_loop(policy)
        elif event.type is EventType.VM_READY:
            self.schedule_dispatch()
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unhandled event type {event.type!r}")

    # -- admission -------------------------------------------------------

    def _admit(self, policy: "SchedulingPolicy") -> None:
        """Move jobs from the admission queue into execution."""
        while self.waiting and (
            self.max_in_flight is None
            or len(self.admitted) < self.max_in_flight
        ):
            index = policy.admit_index(tuple(self.waiting), self._view)
            if not 0 <= index < len(self.waiting):
                raise ValidationError(
                    f"policy {policy.name!r} returned admission index "
                    f"{index} for a queue of {len(self.waiting)}"
                )
            job = self.waiting.pop(index)
            workflow = self._workflow_factory(job)
            n_generated = len(list(workflow.activations))
            if n_generated != job.size:
                raise ValidationError(
                    f"job {job.job_id}: workflow factory produced "
                    f"{n_generated} activations, expected {job.size}"
                )
            for activation_id in workflow.activation_ids:
                if activation_id >= _MAX_ACTIVATION_ID:
                    raise ValidationError(
                        f"job {job.job_id}: activation id {activation_id} "
                        f"is not below 2**20, the service's per-job limit"
                    )
            run = JobRun(
                job,
                workflow,
                self.fleet,
                latency=self.latency,
                upload_outputs=self.upload_outputs,
                admit_time=self.now,
            )
            self.admitted[job.job_id] = run
            # a policy may admit out of arrival order, so insert in order,
            # scanning back from the end: in-order admission appends, and
            # bisect's key= would need Python 3.10
            runs = self.tenant_jobs.setdefault(job.tenant, [])
            at = len(runs)
            while at and _arrival_order(runs[at - 1]) > _arrival_order(run):
                at -= 1
            runs.insert(at, run)
            self.tenant_busy_time.setdefault(job.tenant, 0.0)
            self.tenant_running.setdefault(job.tenant, 0)

    # -- dispatch --------------------------------------------------------

    def _dispatch_loop(self, policy: "SchedulingPolicy") -> None:
        while True:
            if not self.has_ready() or not self.idle_view():
                return
            decision = policy.select(self._view)
            if decision is None:
                return  # the policy's "hold back" action
            job_id, activation_id, vm_id = decision
            self._dispatch(job_id, activation_id, vm_id)

    def _dispatch(self, job_id: int, activation_id: int, vm_id: int) -> None:
        run = self.admitted.get(job_id)
        if run is None:
            raise ValidationError(f"policy chose unknown job {job_id}")
        ac = run.activation(activation_id)
        vm = self.vm_by_id.get(vm_id)
        if vm is None:
            raise ValidationError(f"policy chose unknown VM {vm_id}")
        self.start_attempt(
            run, ac, vm, _slot_key(job_id, activation_id), run.estimates,
            job_id,
        )
        if run.first_dispatch_time is None:
            run.first_dispatch_time = self.now
        self.tenant_running[run.job.tenant] += 1

    # -- completion ------------------------------------------------------

    def _complete(
        self, policy: "SchedulingPolicy", pending: PendingExecution
    ) -> None:
        run = self.admitted[pending.job_id]
        token = _slot_key(pending.job_id, pending.activation_id)
        vm = self.vm_by_id[pending.vm_id]
        vm.finish(token)
        self._vm_version += 1
        del self.in_flight[token]
        elapsed = self.now - pending.dispatch_time
        self.busy_time[vm.id] += elapsed
        self.tenant_busy_time[run.job.tenant] += elapsed
        self.tenant_running[run.job.tenant] -= 1
        run.settle(pending, self.now)
        if run.done:
            self._retire(run)
            self._admit(policy)
        self.schedule_dispatch()

    def _retire(self, run: JobRun) -> None:
        """Record a finished job and free its in-flight slot."""
        del self.admitted[run.job.job_id]
        runs = self.tenant_jobs[run.job.tenant]
        runs.remove(run)
        if not runs:
            del self.tenant_jobs[run.job.tenant]
        first = (
            run.first_dispatch_time
            if run.first_dispatch_time is not None
            else self.now
        )
        self.completed.append(
            JobRecord(
                job_id=run.job.job_id,
                tenant=run.job.tenant,
                workflow=run.job.workflow,
                size=run.job.size,
                arrival_time=run.job.arrival_time,
                admit_time=run.admit_time,
                first_dispatch_time=first,
                completion_time=self.now,
                n_activations=run.n_finished,
                failed=run.failed,
                deadline=run.job.deadline,
            )
        )


#: activation ids share a slot token with the job id (see _slot_key)
_MAX_ACTIVATION_ID = 1 << 20


def _slot_key(job_id: int, activation_id: int) -> int:
    """Fleet-unique slot token for (job, activation).

    :class:`~repro.sim.vm.Vm` tracks occupancy as a set of ints that the
    single-job kernel fills with bare activation ids.  Two jobs both
    running activation 3 would collide, so the service packs the job id
    into the token.  Admission rejects activation ids of 2**20 and up,
    which would spill into the job id's bits.
    """
    return (job_id << 20) | activation_id


def _arrival_order(run: JobRun) -> Tuple[float, int]:
    return (run.job.arrival_time, run.job.job_id)


def _registry_factory(job: Job) -> Workflow:
    """Default workflow materialization: the workflow registry."""
    from repro.workflows.registry import make_workflow

    return make_workflow(job.workflow, job.size, seed=job.workflow_seed)
