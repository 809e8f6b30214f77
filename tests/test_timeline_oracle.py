"""Differential oracle: one job on the service timeline is one kernel episode.

:class:`~repro.service.timeline.FleetTimeline` multiplexes many workflow
executions over one shared fleet; :meth:`EpisodeKernel.run_episode
<repro.sim.kernel.EpisodeKernel.run_episode>` runs exactly one.  Fed a
single job that arrives at t=0, the two engines must produce the same
per-activation records: same VM, same ready/start/finish times, same
stage-in seconds, same attempt counts and failure flags.

The kernel side is driven by :class:`_FifoOneJob`, which implements
:class:`~repro.service.policies.FifoPolicy`'s rule for one job: the
lowest ready activation id on the idle VM minimizing estimated
(stage-in + compute), ties to the lowest VM id.  The service side runs
``FifoPolicy`` itself.

The service names its model streams ``service-fluctuation`` and
``service-failures``, the kernel ``fluctuation`` and ``failures``.  The
test renames the service's streams to the kernel's, so with stochastic
fluctuation and failure models the records agree only if both engines
draw the same numbers in the same order: stage-in, one fluctuation
draw, compute, stage-out, one failure draw per attempt.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

import repro.service.timeline as timeline_module
from repro.dag.random_dag import random_layered_dag
from repro.service import FifoPolicy, FleetTimeline, Job
from repro.sim.failures import BernoulliFailures
from repro.sim.fluctuation import BurstThrottleFluctuation, GaussianFluctuation
from repro.sim.kernel import EpisodeKernel
from repro.sim.metrics import ActivationRecord
from repro.sim.vm import VM_TYPES, Vm
from repro.util.rng import RngService

pytestmark = pytest.mark.service

#: (fluctuation, failures, max_attempts) builders; fresh models per side
_MODEL_CASES = (
    lambda: (None, None, 1),
    lambda: (BurstThrottleFluctuation(credit_seconds=30), None, 1),
    lambda: (GaussianFluctuation(0.2), None, 1),
    lambda: (None, BernoulliFailures(0.2), 1),
    lambda: (None, BernoulliFailures(0.2), 3),
    lambda: (GaussianFluctuation(0.2), BernoulliFailures(0.1), 2),
)


class _KernelStreamNames(RngService):
    """An ``RngService`` that hands out the kernel's stream for a
    ``service-`` prefixed name."""

    def stream(self, name: str):
        return super().stream(name.replace("service-", "", 1))


class _FifoOneJob:
    """``FifoPolicy``'s one-job rule as an episode scheduler."""

    def select(self, ctx):
        ac = ctx.ready_activations[0]
        best_id = -1
        best_cost = float("inf")
        for vm in ctx.idle_vms:
            cost = ctx.estimated_stage_in(ac, vm) + ctx.estimated_execution(
                ac, vm
            )
            if cost < best_cost:
                best_cost = cost
                best_id = vm.id
        if best_id < 0:
            return None
        return (ac.id, best_id)


class _CapturingTimeline(FleetTimeline):
    """Keeps each retiring job's per-activation records."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.retired: List[List[ActivationRecord]] = []

    def _retire(self, run) -> None:
        self.retired.append(list(run.records))
        super()._retire(run)


def _fleet(spec: Tuple[Tuple[str, float], ...]) -> List[Vm]:
    return [
        Vm(i, dataclasses.replace(VM_TYPES[name], boot_time=boot))
        for i, (name, boot) in enumerate(spec)
    ]


@st.composite
def _fleet_specs(draw):
    """0-4 t2.micro then 1-2 t2.2xlarge, in id order, each booting in
    0 or 15 s."""
    names = ["t2.micro"] * draw(st.integers(0, 4))
    names += ["t2.2xlarge"] * draw(st.integers(1, 2))
    boots = draw(
        st.lists(
            st.sampled_from((0.0, 15.0)),
            min_size=len(names),
            max_size=len(names),
        )
    )
    return tuple(zip(names, boots))


class TestSingleJobTimelineMatchesKernel:
    @given(
        n=st.integers(1, 30),
        dag_seed=st.integers(0, 2**16),
        spec=_fleet_specs(),
        case=st.integers(0, len(_MODEL_CASES) - 1),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_records_match(self, n, dag_seed, spec, case, seed) -> None:
        dag = random_layered_dag(n, seed=dag_seed, name="oracle")

        fluctuation, failures, attempts = _MODEL_CASES[case]()
        kernel = EpisodeKernel(
            dag,
            _fleet(spec),
            fluctuation=fluctuation,
            failures=failures,
            max_attempts=attempts,
        )
        expected = kernel.run_episode(_FifoOneJob(), seed=seed).records

        fluctuation, failures, attempts = _MODEL_CASES[case]()
        timeline = _CapturingTimeline(
            _fleet(spec),
            fluctuation=fluctuation,
            failures=failures,
            max_attempts=attempts,
            seed=seed,
        )
        job = Job(
            job_id=0,
            tenant="tenant-0",
            workflow="oracle",
            size=n,
            arrival_time=0.0,
            workflow_seed=dag_seed,
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(timeline_module, "RngService", _KernelStreamNames)
            result = timeline.run(
                [job], FifoPolicy(), workflow_factory=lambda _job: dag.copy()
            )

        assert result.n_jobs == 1
        assert timeline.retired == [expected]
