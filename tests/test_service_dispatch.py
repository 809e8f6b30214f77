"""Fair-share dispatch over the tenant index and the cached idle view.

- **differential oracle** — random streams run through
  ``FairSharePolicy.select``, which reads the timeline's per-tenant job
  index, with the linear-scan rule of ``tests/reference_policies.py``
  called at every decision.  The two must agree on every decision, and
  the run's metrics JSON must be byte-identical to a run of the
  reference rule on a timeline without the idle-view cache;
- **fleet order** — the timeline holds its fleet in VM id order, so a
  reversed or shuffled fleet gives the metrics of the sorted one;
- **activation id limit** — ids share a slot token with the job id, so
  admission rejects ids of 2**20 and up before anything is dispatched;
- **non-finite parameters** — NaN, infinite and bool weights and
  deadlines are rejected where they are constructed.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.dag.activation import Activation, File
from repro.dag.graph import Workflow
from repro.experiments.environments import fleet_for
from repro.service import (
    FairSharePolicy,
    FifoPolicy,
    FleetTimeline,
    Job,
    TenantSpec,
    available_policies,
    make_policy,
    reference_scenario,
    schedule_from_json,
)
from repro.sim.failures import BernoulliFailures
from repro.sim.vm import t2_fleet
from repro.util.validate import ValidationError

from tests.reference_policies import ReferenceTimeline, reference_fair_select

pytestmark = pytest.mark.service


# -- differential oracle -------------------------------------------------


class _FairShare(FairSharePolicy):
    """Fair share that can admit the newest queued job first (LIFO)."""

    def __init__(self, weights, lifo):
        super().__init__(weights)
        self.lifo = lifo

    def admit_index(self, queued, view):
        if self.lifo:
            return len(queued) - 1
        return super().admit_index(queued, view)


class _Checked(_FairShare):
    """The indexed rule, checked against the reference at every decision."""

    decisions = 0

    def select(self, view):
        decision = super().select(view)
        assert decision == reference_fair_select(self, view)
        self.decisions += 1
        return decision


class _Reference(_FairShare):
    def select(self, view):
        return reference_fair_select(self, view)


def _dag_factory(specs):
    """``job -> Workflow`` from drawn ``(runtime, parents, staged)`` rows."""

    def build(job):
        workflow = Workflow(f"job-{job.job_id}")
        for i, (runtime, parents, staged) in enumerate(specs[job.job_id]):
            inputs = tuple(File(f"out-{p}", 2e6) for p in sorted(parents))
            if staged:
                inputs += (File(f"in-{i}", 1e6),)
            workflow.add_activation(
                Activation(i, "task", runtime, inputs=inputs,
                           outputs=(File(f"out-{i}", 2e6),))
            )
        workflow.infer_data_dependencies()
        return workflow

    return build


@st.composite
def _activation_rows(draw, size):
    return [
        (
            draw(st.sampled_from((0.5, 1.0, 2.0, 7.0))),
            draw(st.sets(st.integers(0, i - 1), max_size=2)) if i else set(),
            draw(st.booleans()),
        )
        for i in range(size)
    ]


@st.composite
def _streams(draw):
    tenants = draw(st.lists(st.sampled_from("dbca"), min_size=1,
                            max_size=4, unique=True))
    weights = {t: draw(st.sampled_from((0.5, 1.0, 2.0, 3.0)))
               for t in tenants}
    jobs, specs = [], {}
    for job_id in range(draw(st.integers(1, 12))):
        size = draw(st.integers(1, 8))
        specs[job_id] = draw(_activation_rows(size))
        jobs.append(Job(
            job_id=job_id,
            tenant=draw(st.sampled_from(tenants)),
            workflow="drawn",
            size=size,
            # few distinct times, so equal arrivals tie on job id and
            # queue up behind max_in_flight
            arrival_time=draw(st.sampled_from((0.0, 0.0, 0.0, 3.0, 40.0))),
            workflow_seed=job_id,
        ))
    return {
        "jobs": jobs,
        "specs": specs,
        "weights": weights,
        # LIFO admission under a cap of 2 or more is what puts a
        # tenant's jobs in flight out of arrival order: draw it often
        "lifo": draw(st.sampled_from((False, True, True))),
        "fleet": draw(st.sampled_from(((2, 0), (1, 1), (8, 1)))),
        "max_in_flight": draw(st.sampled_from((None, 1, 2, 3, 4))),
        "max_attempts": draw(st.integers(2, 3)),
        "fail_p": draw(st.sampled_from((0.0, 0.3, 0.6, 0.6))),
        # at fraction 0 a failed attempt of an activation with nothing
        # to stage takes no time: it completes at the instant it was
        # dispatched, after that instant's idle view was cached
        "fail_fraction": draw(st.sampled_from((0.0, 0.0, 0.5))),
        "seed": draw(st.integers(0, 2**16)),
    }


def _run_stream(stream, timeline_cls, policy):
    failures = BernoulliFailures(stream["fail_p"])
    failures.failure_runtime_fraction = stream["fail_fraction"]
    timeline = timeline_cls(
        t2_fleet(*stream["fleet"]),
        failures=failures,
        max_attempts=stream["max_attempts"],
        max_in_flight=stream["max_in_flight"],
        seed=stream["seed"],
    )
    result = timeline.run(stream["jobs"], policy,
                          workflow_factory=_dag_factory(stream["specs"]))
    return result.to_json(include_jobs=True)


def _lifo_stream():
    """Four same-tenant jobs behind a cap of 2 on 2 slots, admitted LIFO.

    Job 3 is admitted before job 2 and still has ready work when job 2
    comes in, so the index must put job 2 first although it came last.
    """
    return {
        "jobs": [
            Job(job_id=j, tenant="a", workflow="drawn", size=6,
                arrival_time=0.0, workflow_seed=j)
            for j in range(4)
        ],
        "specs": {j: [(1.0, set(), False)] * 6 for j in range(4)},
        "weights": {"a": 1.0},
        "lifo": True,
        "fleet": (2, 0),
        "max_in_flight": 2,
        "max_attempts": 2,
        "fail_p": 0.0,
        "fail_fraction": 0.5,
        "seed": 0,
    }


@settings(max_examples=150, deadline=None)
@given(stream=_streams())
@example(stream=_lifo_stream())
def test_indexed_fair_share_matches_the_linear_scan(stream) -> None:
    checked = _Checked(stream["weights"], stream["lifo"])
    indexed = _run_stream(stream, FleetTimeline, checked)
    reference = _run_stream(
        stream, ReferenceTimeline, _Reference(stream["weights"], stream["lifo"])
    )
    assert checked.decisions > 0
    assert indexed == reference


# -- fleet order -----------------------------------------------------------


def _shuffled(fleet):
    fleet = list(fleet)
    random.Random(7).shuffle(fleet)
    return fleet


@pytest.mark.parametrize("vcpus", [16, 64])
@pytest.mark.parametrize("policy", available_policies())
def test_metrics_do_not_depend_on_fleet_order(vcpus, policy) -> None:
    jobs = reference_scenario().schedule()

    def metrics(fleet):
        timeline = FleetTimeline(fleet, seed=1)
        return timeline.run(jobs, make_policy(policy)).to_json(
            include_jobs=True
        )

    expected = metrics(fleet_for(vcpus))
    assert metrics(fleet_for(vcpus)[::-1]) == expected
    assert metrics(_shuffled(fleet_for(vcpus))) == expected


# -- activation id limit --------------------------------------------------


class _CountingFifo(FifoPolicy):
    selects = 0

    def select(self, view):
        self.selects += 1
        return super().select(view)


def _ids_factory(ids_by_job):
    def build(job):
        workflow = Workflow(f"job-{job.job_id}")
        for i in ids_by_job[job.job_id]:
            workflow.add_activation(Activation(i, "task", 1.0))
        return workflow

    return build


def _two_jobs():
    return [
        Job(job_id=j, tenant="a", workflow="ids", size=2, arrival_time=0.0,
            workflow_seed=j)
        for j in (0, 1)
    ]


def test_activation_ids_of_2_pow_20_are_rejected_before_dispatch() -> None:
    # job 0's id 2**20 + 3 packs to the slot token of job 1's id 3
    policy = _CountingFifo()
    timeline = FleetTimeline(t2_fleet(0, 1))
    with pytest.raises(ValidationError, match=r"job 0: activation id 1048579"):
        timeline.run(
            _two_jobs(),
            policy,
            workflow_factory=_ids_factory({0: (0, 2**20 + 3), 1: (0, 3)}),
        )
    assert policy.selects == 0
    assert not timeline.in_flight


def test_activation_ids_below_2_pow_20_run() -> None:
    result = FleetTimeline(t2_fleet(0, 1)).run(
        _two_jobs(),
        FifoPolicy(),
        workflow_factory=_ids_factory({0: (0, 2**20 - 1), 1: (0, 3)}),
    )
    assert result.n_activations == 4
    assert not any(r.failed for r in result.jobs)


# -- non-finite parameters ------------------------------------------------


def _job(deadline):
    return Job(job_id=0, tenant="a", workflow="montage", size=20,
               arrival_time=0.0, workflow_seed=1, deadline=deadline)


def _trace_job(literal):
    return schedule_from_json(
        '{"jobs": [{"job_id": 0, "tenant": "a", "workflow": "montage", '
        '"size": 20, "arrival_time": 0.0, "workflow_seed": 1, '
        f'"deadline": {literal}}}]}}'
    )


_SITES = {
    "fair-weight": lambda v: FairSharePolicy(weights={"a": v}),
    "tenant-weight": lambda v: TenantSpec("a", weight=v),
    "tenant-relative-deadline": lambda v: TenantSpec("a", relative_deadline=v),
    "job-deadline": _job,
}
_BAD = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
        "True": True, "False": False}
# JSON has no bools-as-numbers: a trace can only smuggle in NaN/Infinity
_TRACE_LITERALS = ("NaN", "Infinity", "-Infinity")


@pytest.mark.parametrize(
    "build, value",
    [pytest.param(_SITES[s], _BAD[v], id=f"{s}-{v}")
     for s in _SITES for v in _BAD]
    + [pytest.param(_trace_job, lit, id=f"trace-deadline-{lit}")
       for lit in _TRACE_LITERALS],
)
def test_non_finite_and_bool_weights_and_deadlines_are_rejected(
    build, value
) -> None:
    with pytest.raises(ValidationError):
        build(value)


def test_finite_weights_and_deadlines_still_accepted() -> None:
    assert FairSharePolicy(weights={"a": 2}).name == "fair"
    assert TenantSpec("a", weight=0.5, relative_deadline=60.0).weight == 0.5
    assert _job(0.0).deadline == 0.0
    assert _trace_job("5.0")[0].deadline == 5.0
