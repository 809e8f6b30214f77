"""Admission and fairness policies for the shared-fleet timeline.

A :class:`SchedulingPolicy` makes two kinds of decisions:

- :meth:`~SchedulingPolicy.select` — at every dispatch point, which
  ``(job, activation, vm)`` triple to execute next (or ``None`` to hold
  capacity back);
- :meth:`~SchedulingPolicy.admit_index` — when admission control has a
  free slot, which queued job enters execution next.

Three policies ship with the service:

- :class:`FifoPolicy` — strict arrival order, the baseline every queueing
  analysis starts from;
- :class:`FairSharePolicy` — weighted fair sharing by tenant: the next
  dispatch goes to the tenant with the lowest *normalized consumed
  service* (cumulative busy seconds / weight, with instantaneous running
  work as the tie pressure), so a burst from one tenant cannot starve
  another with pending jobs;
- :class:`DeadlinePolicy` — earliest-deadline-first over jobs carrying
  deadlines (deadline-less jobs yield to urgent ones, then run FIFO).

Every comparison key ends in ``(job_id, activation_id, vm_id)`` — ties
are always broken by ids, never by iteration accidents, which is what
makes a policy run bit-reproducible.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.service.jobs import Job
from repro.service.timeline import JobRun, ServiceView
from repro.util.validate import ValidationError, check_positive

__all__ = [
    "SchedulingPolicy",
    "FifoPolicy",
    "FairSharePolicy",
    "DeadlinePolicy",
    "available_policies",
    "make_policy",
]

#: A service decision: (job id, activation id, vm id).
ServiceDecision = Tuple[int, int, int]

_INFINITY = float("inf")


class SchedulingPolicy(abc.ABC):
    """Decides dispatch and admission order over the shared fleet."""

    #: registry / metrics label
    name: str = "abstract"

    @abc.abstractmethod
    def select(self, view: ServiceView) -> Optional[ServiceDecision]:
        """The next (job, activation, vm) to dispatch, or ``None``."""

    def admit_index(
        self, queued: Sequence[Job], view: ServiceView
    ) -> int:
        """Index of the next queued job to admit (default: FIFO)."""
        return 0

    # -- shared helpers ---------------------------------------------------

    @staticmethod
    def _first_ready(run: JobRun) -> int:
        """Lowest ready activation id of a job (callers ensure some exist)."""
        return run.ready_ids[0]

    @staticmethod
    def _best_vm(
        view: ServiceView, run: JobRun, activation_id: int
    ) -> int:
        """Idle VM minimizing estimated (staging + compute), tie by id."""
        ac = run.activation(activation_id)
        best_id = -1
        best_cost = _INFINITY
        for vm in view.idle_vms:
            cost = view.estimated_stage_in(
                run, ac, vm
            ) + view.estimated_execution(run, ac, vm)
            if cost < best_cost:
                best_cost = cost
                best_id = vm.id
        return best_id


class FifoPolicy(SchedulingPolicy):
    """Strict arrival order: earliest-arrived job with ready work first.

    Within the chosen job, the lowest ready activation id; the VM is the
    estimate-minimizing idle VM (ties by VM id).
    """

    name = "fifo"

    def select(self, view: ServiceView) -> Optional[ServiceDecision]:
        chosen: Optional[JobRun] = None
        for run in view.jobs:
            if not run.ready_ids:
                continue
            if chosen is None or (
                (run.job.arrival_time, run.job.job_id)
                < (chosen.job.arrival_time, chosen.job.job_id)
            ):
                chosen = run
        if chosen is None:
            return None
        activation_id = self._first_ready(chosen)
        vm_id = self._best_vm(view, chosen, activation_id)
        if vm_id < 0:
            return None
        return (chosen.job.job_id, activation_id, vm_id)


class FairSharePolicy(SchedulingPolicy):
    """Weighted fair sharing by tenant.

    The next dispatch goes to the tenant minimizing
    ``(consumed busy seconds + running activations * epsilon) / weight``
    among tenants with ready work — the classic min-normalized-usage
    rule.  A tenant that has consumed the least service always wins the
    next slot, so no tenant with pending jobs can be starved while
    others monopolize the fleet (pinned by a Hypothesis property).
    Within the tenant: FIFO job order, lowest activation id, best VM.

    Admission mirrors dispatch: the queued job of the least-served
    tenant is admitted first.
    """

    name = "fair"

    #: pressure per currently-running activation, in busy-second units;
    #: breaks ties among tenants with equal consumed service toward the
    #: one with less work in flight *right now*
    running_pressure = 1e-6

    def __init__(self, weights: Optional[Dict[str, float]] = None) -> None:
        self._weights = dict(weights or {})
        for tenant, weight in self._weights.items():
            check_positive(f"tenant {tenant!r} weight", weight)

    def _share(self, view: ServiceView, tenant: str) -> float:
        weight = self._weights.get(tenant, 1.0)
        consumed = view.tenant_busy_time.get(tenant, 0.0)
        running = view.tenant_running.get(tenant, 0)
        return (consumed + running * self.running_pressure) / weight

    def select(self, view: ServiceView) -> Optional[ServiceDecision]:
        # The least (share, tenant, arrival_time, job_id) over jobs with
        # ready work: share and tenant are per tenant, and each tenant's
        # jobs come in (arrival_time, job_id) order, so only each
        # tenant's first job with ready work can win.
        chosen: Optional[JobRun] = None
        chosen_key: Tuple[float, str] = (_INFINITY, "")
        for tenant, runs in view.jobs_by_tenant.items():
            for run in runs:
                if run.ready_ids:
                    key = (self._share(view, tenant), tenant)
                    if chosen is None or key < chosen_key:
                        chosen = run
                        chosen_key = key
                    break
        if chosen is None:
            return None
        activation_id = self._first_ready(chosen)
        vm_id = self._best_vm(view, chosen, activation_id)
        if vm_id < 0:
            return None
        return (chosen.job.job_id, activation_id, vm_id)

    def admit_index(
        self, queued: Sequence[Job], view: ServiceView
    ) -> int:
        best = 0
        best_key: Optional[Tuple[float, str, float, int]] = None
        for i, job in enumerate(queued):
            key = (
                self._share(view, job.tenant),
                job.tenant,
                job.arrival_time,
                job.job_id,
            )
            if best_key is None or key < best_key:
                best_key = key
                best = i
        return best


class DeadlinePolicy(SchedulingPolicy):
    """Earliest-deadline-first with FIFO fallback.

    Jobs carrying deadlines are served strictly by deadline (ties by
    arrival, then id); jobs without deadlines sort after every
    deadline-carrying job.  Admission uses the same order, so an urgent
    job jumps the admission queue too.
    """

    name = "deadline"

    @staticmethod
    def _urgency(job: Job) -> Tuple[float, float, int]:
        deadline = job.deadline if job.deadline is not None else _INFINITY
        return (deadline, job.arrival_time, job.job_id)

    def select(self, view: ServiceView) -> Optional[ServiceDecision]:
        chosen: Optional[JobRun] = None
        for run in view.jobs:
            if not run.ready_ids:
                continue
            if chosen is None or (
                self._urgency(run.job) < self._urgency(chosen.job)
            ):
                chosen = run
        if chosen is None:
            return None
        activation_id = self._first_ready(chosen)
        vm_id = self._best_vm(view, chosen, activation_id)
        if vm_id < 0:
            return None
        return (chosen.job.job_id, activation_id, vm_id)

    def admit_index(
        self, queued: Sequence[Job], view: ServiceView
    ) -> int:
        best = 0
        best_key: Optional[Tuple[float, float, int]] = None
        for i, job in enumerate(queued):
            key = self._urgency(job)
            if best_key is None or key < best_key:
                best_key = key
                best = i
        return best


_POLICIES: Dict[str, Type[SchedulingPolicy]] = {
    "fifo": FifoPolicy,
    "fair": FairSharePolicy,
    "deadline": DeadlinePolicy,
}


def available_policies() -> List[str]:
    """Policy names accepted by :func:`make_policy`, sorted."""
    return sorted(_POLICIES)


def make_policy(name: str) -> SchedulingPolicy:
    """Instantiate the named policy with default parameters."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValidationError(
            f"unknown policy {name!r}; available: {available_policies()}"
        ) from None
