"""repro.service — the streaming multi-tenant scheduler service.

Turns the one-shot simulator into a continuously-loaded service: seeded
Poisson or trace-driven job arrivals (:mod:`repro.service.arrivals`)
multiplexed over one shared VM fleet by a global event loop
(:mod:`repro.service.timeline`) under pluggable admission/fairness
policies (:mod:`repro.service.policies`), reporting throughput,
utilization and latency percentiles (:mod:`repro.service.metrics`).
Driven by the ``repro serve`` CLI subcommand; see ``docs/service.md``
for the arrival model, the policy catalog, the metrics JSON schema and
the determinism contract.
"""

from typing import TYPE_CHECKING

from repro import lazy_namespace

__getattr__, __dir__ = lazy_namespace(__name__, {
    "arrivals": (
        "ArrivalGenerator",
        "PoissonArrivals",
        "TraceArrivals",
        "load_trace",
        "save_trace",
        "schedule_from_json",
        "schedule_to_json",
    ),
    "jobs": ("Job", "TenantSpec", "default_tenants"),
    "metrics": ("JobRecord", "ServiceResult", "percentile"),
    "policies": (
        "DeadlinePolicy",
        "FairSharePolicy",
        "FifoPolicy",
        "SchedulingPolicy",
        "available_policies",
        "make_policy",
    ),
    "service": (
        "SchedulerService",
        "ServiceConfig",
        "reference_scenario",
        "run_service_replicas",
    ),
    "timeline": ("FleetTimeline", "JobRun", "ServiceView"),
})

if TYPE_CHECKING:
    from repro.service.arrivals import (
        ArrivalGenerator,
        PoissonArrivals,
        TraceArrivals,
        load_trace,
        save_trace,
        schedule_from_json,
        schedule_to_json,
    )
    from repro.service.jobs import Job, TenantSpec, default_tenants
    from repro.service.metrics import JobRecord, ServiceResult, percentile
    from repro.service.policies import (
        DeadlinePolicy,
        FairSharePolicy,
        FifoPolicy,
        SchedulingPolicy,
        available_policies,
        make_policy,
    )
    from repro.service.service import (
        SchedulerService,
        ServiceConfig,
        reference_scenario,
        run_service_replicas,
    )
    from repro.service.timeline import FleetTimeline, JobRun, ServiceView

__all__ = [
    "ArrivalGenerator",
    "DeadlinePolicy",
    "FairSharePolicy",
    "FifoPolicy",
    "FleetTimeline",
    "Job",
    "JobRecord",
    "JobRun",
    "PoissonArrivals",
    "SchedulerService",
    "SchedulingPolicy",
    "ServiceConfig",
    "ServiceResult",
    "ServiceView",
    "TenantSpec",
    "TraceArrivals",
    "available_policies",
    "default_tenants",
    "load_trace",
    "make_policy",
    "percentile",
    "reference_scenario",
    "run_service_replicas",
    "save_trace",
    "schedule_from_json",
    "schedule_to_json",
]
