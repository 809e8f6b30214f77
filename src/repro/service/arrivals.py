"""Seeded arrival generators: Poisson traffic and exact trace replay.

Two modes produce the job stream a service run consumes:

- :class:`PoissonArrivals` — the classic open-arrival model: exponential
  inter-arrival times at a configured rate, each job assigned to a
  tenant by weighted draw and to a workflow by uniform draw over the
  tenant's catalog.  All randomness flows through one named
  :class:`~repro.util.rng.RngService` stream with a *fixed draw order
  per job* (gap, tenant, workflow), so a schedule is a pure function of
  ``(seed, rate, tenants, limits)``.
- :class:`TraceArrivals` — replays an explicit job list (e.g. a
  recorded production trace, or the JSON dump of a Poisson schedule),
  byte-exactly.

Both materialize the *entire* schedule up front
(:meth:`ArrivalGenerator.schedule`): continuous arrivals are still a
finite, inspectable, JSON-serializable object, which is what the golden
service fixture and the Hypothesis replay properties pin.
"""

from __future__ import annotations

import abc
import json
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.service.jobs import Job, TenantSpec, validate_tenants
from repro.util.rng import RngService, derive_seed
from repro.util.validate import ValidationError, check_positive

__all__ = [
    "ArrivalGenerator",
    "PoissonArrivals",
    "TraceArrivals",
    "schedule_to_json",
    "schedule_from_json",
    "load_trace",
    "save_trace",
]


class ArrivalGenerator(abc.ABC):
    """Produces the (finite) job stream of one service run."""

    @abc.abstractmethod
    def schedule(self) -> Tuple[Job, ...]:
        """The full arrival schedule, ordered by arrival time then id."""


class PoissonArrivals(ArrivalGenerator):
    """Open Poisson arrivals over a weighted multi-tenant population.

    Parameters
    ----------
    rate:
        Mean arrivals per simulated second (the Poisson intensity).
    tenants:
        Tenant traffic profiles; arrival shares follow their weights.
    seed:
        Root seed.  The stream name, the per-job draw order and the
        per-job workflow-seed derivation are all fixed, so the schedule
        is bit-identical across repeats and across processes.
    max_jobs:
        Stop after this many arrivals.
    max_time:
        Stop at this simulated horizon (jobs arriving later are never
        generated).  At least one of the two limits is required.
    """

    def __init__(
        self,
        rate: float,
        tenants: Sequence[TenantSpec],
        *,
        seed: int = 0,
        max_jobs: Optional[int] = None,
        max_time: Optional[float] = None,
    ) -> None:
        self.rate = check_positive("rate", rate)
        self.tenants = validate_tenants(tenants)
        self.seed = int(seed)
        if max_jobs is None and max_time is None:
            raise ValidationError(
                "PoissonArrivals needs max_jobs and/or max_time"
            )
        if max_jobs is not None and max_jobs < 1:
            raise ValidationError(f"max_jobs must be >= 1, got {max_jobs}")
        if max_time is not None:
            check_positive("max_time", max_time)
        self.max_jobs = max_jobs
        self.max_time = max_time

    def schedule(self) -> Tuple[Job, ...]:
        rng = RngService(self.seed).stream("service-arrivals")
        weights = [t.weight for t in self.tenants]
        total_weight = sum(weights)
        jobs: List[Job] = []
        now = 0.0
        job_id = 0
        while self.max_jobs is None or job_id < self.max_jobs:
            # fixed per-job draw order: gap, tenant, workflow choice
            now += float(rng.exponential(1.0 / self.rate))
            if self.max_time is not None and now > self.max_time:
                break
            pick = float(rng.random()) * total_weight
            tenant = self.tenants[-1]
            acc = 0.0
            for spec, w in zip(self.tenants, weights):
                acc += w
                if pick < acc:
                    tenant = spec
                    break
            wf_name, wf_size = tenant.workflows[
                int(rng.integers(len(tenant.workflows)))
            ]
            deadline = (
                None
                if tenant.relative_deadline is None
                else now + tenant.relative_deadline
            )
            jobs.append(
                Job(
                    job_id=job_id,
                    tenant=tenant.name,
                    workflow=wf_name,
                    size=wf_size,
                    arrival_time=now,
                    workflow_seed=derive_seed(self.seed, f"job:{job_id}"),
                    deadline=deadline,
                )
            )
            job_id += 1
        return tuple(jobs)


class TraceArrivals(ArrivalGenerator):
    """Replay an explicit job list exactly (trace-driven mode).

    The jobs must be ordered by non-decreasing arrival time with unique
    ids; :func:`load_trace` reads the JSON schedule format written by
    :func:`save_trace` / :func:`schedule_to_json`.
    """

    def __init__(self, jobs: Sequence[Job]) -> None:
        ordered = list(jobs)
        ids = [j.job_id for j in ordered]
        if len(set(ids)) != len(ids):
            raise ValidationError("trace job ids must be unique")
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.arrival_time < prev.arrival_time:
                raise ValidationError(
                    f"trace arrivals must be non-decreasing in time: job "
                    f"{cur.job_id} at {cur.arrival_time} after job "
                    f"{prev.job_id} at {prev.arrival_time}"
                )
        self._jobs: Tuple[Job, ...] = tuple(ordered)

    def schedule(self) -> Tuple[Job, ...]:
        return self._jobs


# -- JSON schedule I/O ------------------------------------------------------


def schedule_to_json(jobs: Sequence[Job]) -> str:
    """Canonical JSON form of an arrival schedule (sorted keys)."""
    return json.dumps(
        {"version": 1, "jobs": [j.to_dict() for j in jobs]},
        sort_keys=True,
        indent=1,
    )


def schedule_from_json(text: str) -> Tuple[Job, ...]:
    """Inverse of :func:`schedule_to_json`.

    Malformed JSON, a ``jobs`` value that is not a list, and any job
    :meth:`Job.from_dict` or :class:`Job` rejects raise
    :class:`ValidationError`; a job's error names its index in ``jobs``.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed arrival trace JSON: {exc}") from exc
    if not isinstance(data, dict) or "jobs" not in data:
        raise ValidationError("arrival trace JSON must have a 'jobs' list")
    entries = data["jobs"]
    if not isinstance(entries, list):
        raise ValidationError(
            f"arrival trace 'jobs' must be a list, got {entries!r:.60}"
        )
    jobs = []
    for index, entry in enumerate(entries):
        try:
            jobs.append(Job.from_dict(entry))
        except ValidationError as exc:
            raise ValidationError(
                f"arrival trace job {index}: {exc}"
            ) from exc
    return tuple(jobs)


def save_trace(jobs: Sequence[Job], path: Union[str, Path]) -> None:
    """Write a schedule as an arrival-trace JSON file."""
    Path(path).write_text(schedule_to_json(jobs) + "\n", encoding="utf-8")


def load_trace(path: Union[str, Path]) -> TraceArrivals:
    """Load an arrival-trace JSON file as a :class:`TraceArrivals`.

    A file that is not UTF-8 text raises :class:`ValidationError`, as
    malformed JSON does (:func:`schedule_from_json`).
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"malformed arrival trace (not UTF-8 text): {exc}"
        ) from exc
    return TraceArrivals(schedule_from_json(text))
