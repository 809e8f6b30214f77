"""Job and tenant descriptions for the streaming scheduler service.

A :class:`Job` is one workflow-execution request arriving at the
service: *which* workflow (a registry name + size + generation seed),
*whose* it is (a tenant label, the unit of fairness accounting), *when*
it arrives (simulated seconds) and optionally *by when* it should finish
(an absolute simulated deadline consumed by the deadline-aware policy).

Jobs are plain frozen data — all randomness happens in the arrival
generators (:mod:`repro.service.arrivals`), and all execution state
lives in the fleet timeline (:mod:`repro.service.timeline`) — so a job
list round-trips losslessly through JSON, which is what makes the
trace-driven arrival mode exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.util.validate import (
    ValidationError,
    check_non_negative,
    check_positive,
)

__all__ = ["Job", "TenantSpec", "default_tenants"]


@dataclass(frozen=True)
class Job:
    """One workflow-execution request.

    Attributes
    ----------
    job_id:
        Unique id within a service run (assigned in arrival order).
    tenant:
        Fairness-accounting label; tenants compete for the shared fleet.
    workflow:
        Workflow-registry name (``make_workflow(workflow, size, seed)``).
    size:
        Exact activation count of the generated DAG.
    arrival_time:
        Simulated second the job enters the service.
    workflow_seed:
        Seed for the DAG's runtimes/file sizes, derived by the arrival
        generator from the service seed so traces replay exactly.
    deadline:
        Optional *absolute* simulated time the job should finish by
        (``None`` = no deadline).  Only the deadline-aware policy reads
        it; metrics report deadline hits for any job that has one.
    """

    job_id: int
    tenant: str
    workflow: str
    size: int
    arrival_time: float
    workflow_seed: int
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.job_id < 0:
            raise ValidationError(f"job_id must be >= 0, got {self.job_id}")
        if not self.tenant:
            raise ValidationError("tenant must be a non-empty string")
        if self.size < 1:
            raise ValidationError(f"size must be >= 1, got {self.size}")
        check_non_negative("arrival_time", self.arrival_time)
        if self.deadline is not None:
            check_non_negative(f"job {self.job_id} deadline", self.deadline)
            if self.deadline < self.arrival_time:
                raise ValidationError(
                    f"job {self.job_id}: deadline {self.deadline} precedes "
                    f"arrival {self.arrival_time}"
                )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready field dump (floats kept exact)."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "workflow": self.workflow,
            "size": self.size,
            "arrival_time": self.arrival_time,
            "workflow_seed": self.workflow_seed,
            "deadline": self.deadline,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "Job":
        """Inverse of :meth:`to_dict` (exact round trip)."""
        deadline = data.get("deadline")
        return Job(
            job_id=int(data["job_id"]),
            tenant=str(data["tenant"]),
            workflow=str(data["workflow"]),
            size=int(data["size"]),
            arrival_time=float(data["arrival_time"]),
            workflow_seed=int(data["workflow_seed"]),
            deadline=None if deadline is None else float(deadline),
        )


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic profile for the Poisson arrival generator.

    Attributes
    ----------
    name:
        Tenant label (must be unique within a generator).
    weight:
        Relative share of the arrival stream (weights need not sum to 1).
    workflows:
        ``(registry name, size)`` choices; one is drawn uniformly per
        job.
    relative_deadline:
        Optional seconds-after-arrival deadline stamped on every job of
        this tenant (``None`` = no deadlines).
    """

    name: str
    weight: float = 1.0
    workflows: Tuple[Tuple[str, int], ...] = (("montage", 20),)
    relative_deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("tenant name must be non-empty")
        check_positive(f"tenant {self.name!r} weight", self.weight)
        if not self.workflows:
            raise ValidationError(
                f"tenant {self.name!r}: needs at least one workflow choice"
            )
        if self.relative_deadline is not None:
            check_positive(
                f"tenant {self.name!r} relative_deadline",
                self.relative_deadline,
            )


def default_tenants(
    n: int,
    workflow: str = "montage",
    size: int = 20,
    relative_deadline: Optional[float] = None,
) -> Tuple[TenantSpec, ...]:
    """``n`` equal-weight tenants sharing one workflow profile.

    The reference scenario shape: ``tenant-0 .. tenant-{n-1}``, uniform
    weights, each submitting ``workflow`` DAGs of ``size`` activations.
    """
    if n < 1:
        raise ValidationError(f"need at least one tenant, got {n}")
    return tuple(
        TenantSpec(
            name=f"tenant-{i}",
            weight=1.0,
            workflows=((workflow, size),),
            relative_deadline=relative_deadline,
        )
        for i in range(n)
    )


def validate_tenants(tenants: Sequence[TenantSpec]) -> Tuple[TenantSpec, ...]:
    """Check tenant-name uniqueness and return the specs as a tuple."""
    names: List[str] = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate tenant names in {names}")
    if not names:
        raise ValidationError("need at least one tenant")
    return tuple(tenants)
