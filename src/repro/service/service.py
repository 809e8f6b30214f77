"""The streaming scheduler service facade and the replica campaign.

:class:`SchedulerService` wires an arrival generator, a fresh fleet and
a policy into one :class:`~repro.service.timeline.FleetTimeline` run —
the object behind the ``repro serve`` CLI subcommand.  Because a
timeline is single-use, the facade builds everything per call, so
``service.run()`` twice yields two independent, bit-identical results.

:func:`run_service_replicas` fans N independent service runs (derived
seeds, same scenario) over the deterministic parallel runner —
bit-identical at any ``--workers`` count, like every other campaign in
the repository.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.runner.parallel import ParallelRunner, Task
from repro.service.arrivals import ArrivalGenerator, PoissonArrivals
from repro.service.jobs import TenantSpec, default_tenants
from repro.service.metrics import ServiceResult
from repro.service.policies import make_policy
from repro.service.timeline import FleetTimeline
from repro.sim.failures import FailureModel
from repro.sim.fluctuation import FluctuationModel
from repro.util.rng import derive_seed
from repro.util.validate import ValidationError

__all__ = [
    "ServiceConfig",
    "SchedulerService",
    "reference_scenario",
    "run_service_replicas",
]


@dataclass(frozen=True)
class ServiceConfig:
    """Execution-side configuration of a service run.

    ``vcpus`` picks a Table-I fleet (16/32/64); ``policy`` is a
    :func:`repro.service.policies.make_policy` name; ``max_in_flight``
    caps concurrently executing jobs (admission control).  The
    stochastic models default to off (the deterministic service).
    """

    vcpus: int = 16
    policy: str = "fifo"
    max_in_flight: Optional[int] = None
    horizon: float = 1e9
    max_attempts: int = 1
    fluctuation: Optional[FluctuationModel] = None
    failures: Optional[FailureModel] = None


class SchedulerService:
    """One continuously-arriving workload on one shared fleet.

    Parameters
    ----------
    arrivals:
        The job stream (Poisson or trace-driven).
    config:
        Fleet/policy/model configuration.
    seed:
        Root seed of the run.  It feeds only the timeline's model
        streams — the arrival generator carries its own seed, so a
        recorded trace replayed under the same service seed reproduces
        the original run exactly.
    """

    def __init__(
        self,
        arrivals: ArrivalGenerator,
        config: Optional[ServiceConfig] = None,
        *,
        seed: int = 0,
    ) -> None:
        self.arrivals = arrivals
        self.config = config if config is not None else ServiceConfig()
        self.seed = int(seed)

    def run(self) -> ServiceResult:
        """Execute the full job stream; returns the aggregate metrics."""
        from repro.experiments.environments import fleet_for

        cfg = self.config
        jobs = self.arrivals.schedule()
        if not jobs:
            raise ValidationError("arrival schedule produced no jobs")
        timeline = FleetTimeline(
            fleet_for(cfg.vcpus),
            fluctuation=cfg.fluctuation,
            failures=cfg.failures,
            max_attempts=cfg.max_attempts,
            max_in_flight=cfg.max_in_flight,
            horizon=cfg.horizon,
            seed=self.seed,
        )
        return timeline.run(jobs, make_policy(cfg.policy))


def reference_scenario(
    *,
    seed: int = 42,
    n_tenants: int = 3,
    n_jobs: int = 20,
    rate: float = 0.02,
    workflow: str = "montage",
    size: int = 20,
    relative_deadline: Optional[float] = None,
) -> PoissonArrivals:
    """The canonical benchmark/golden-fixture arrival scenario.

    ``n_tenants`` equal-weight tenants submitting ``workflow``-``size``
    DAGs as a Poisson stream of ``rate`` jobs per simulated second,
    stopping after ``n_jobs`` arrivals.  The defaults are the golden
    service fixture's shape (3 tenants, 20 Montage-20 jobs, seed 42).
    """
    tenants: Tuple[TenantSpec, ...] = default_tenants(
        n_tenants, workflow, size, relative_deadline
    )
    return PoissonArrivals(
        rate, tenants, seed=seed, max_jobs=n_jobs
    )


def _replica_task(payload: Tuple[bytes, int], seed: int) -> str:
    """Worker-side replica: rebuild the service, run, return metrics JSON.

    The payload carries a pickled ``(arrivals, config)`` pair built in
    the parent; the runner-derived ``seed`` varies per replica, and each
    replica also re-seeds its arrival stream from it so replicas see
    independent traffic.
    """
    import pickle

    blob, replica_index = payload
    arrivals, config = pickle.loads(blob)
    if isinstance(arrivals, PoissonArrivals):
        arrivals = PoissonArrivals(
            arrivals.rate,
            arrivals.tenants,
            seed=derive_seed(seed, f"replica-arrivals:{replica_index}"),
            max_jobs=arrivals.max_jobs,
            max_time=arrivals.max_time,
        )
    service = SchedulerService(arrivals, config, seed=seed)
    return service.run().to_json()


def run_service_replicas(
    n_replicas: int,
    arrivals: ArrivalGenerator,
    config: Optional[ServiceConfig] = None,
    *,
    seed: int = 0,
    workers: Optional[int] = 1,
) -> List[str]:
    """Run ``n_replicas`` independent service runs; return metrics JSONs.

    Replica seeds derive from ``(seed, run id, replica index)`` through
    the parallel runner's standard mapping, so the returned list is
    bit-identical at any worker count (pinned by the determinism suite).
    """
    import pickle

    if n_replicas < 1:
        raise ValidationError(f"n_replicas must be >= 1, got {n_replicas}")
    config = config if config is not None else ServiceConfig()
    blob = pickle.dumps((arrivals, config))
    runner = ParallelRunner(workers=workers, run_id="service", seed=seed)
    tasks = [
        Task(key=("replica", i), fn=_replica_task, payload=(blob, i))
        for i in range(n_replicas)
    ]
    return [r.value for r in runner.run(tasks)]
