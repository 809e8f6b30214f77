"""Regression pins for the PR-6 single-tenancy audit.

The one-shot simulator was written for exactly one workflow on one
fleet; several of its structures silently assume that.  This file pins
the hazards found in the audit and the isolation the streaming service
builds on top of them:

- an :class:`~repro.sim.kernel.EpisodeKernel` refuses a second live
  :class:`~repro.sim.kernel.EpisodeState` — the constructor would scrub
  the shared workflow/fleet objects out from under the first;
- concurrent same-workflow jobs get **independent file-placement maps**:
  workflow generators reuse file names across instances, so sharing the
  name-keyed dict would leak data locality (and hence stage-in costs)
  between tenants;
- per-job **estimate caches** are isolated: activation ids restart at 0
  for every generated DAG, so a shared id-keyed
  :class:`~repro.sim.estimates.NominalEstimateCache` would serve one
  job's costs to another;
- VM slot tokens are **fleet-unique across jobs**: two jobs both running
  activation 0 on one VM must occupy two slots, not one;
- the ``action_pairs`` interner is content-addressed and survives
  ``scrub()`` without leaking state between episodes (identical content
  → identical object; changed content → fresh object);
- a full service run leaves the shared fleet pristine (every slot
  free), so fleet objects are reusable by construction.
"""

from __future__ import annotations

import pytest

from repro.experiments.environments import fleet_for
from repro.service import (
    FifoPolicy,
    FleetTimeline,
    Job,
    SchedulerService,
    ServiceConfig,
    TraceArrivals,
)
from repro.service.timeline import JobRun, _slot_key
from repro.sim.kernel import EpisodeKernel, EpisodeState
from repro.util.validate import ValidationError
from repro.workflows.registry import make_workflow

pytestmark = pytest.mark.service


def _job(job_id: int, tenant: str = "tenant-0", *, seed: int = 1,
         arrival: float = 0.0) -> Job:
    return Job(
        job_id=job_id,
        tenant=tenant,
        workflow="cybershake",
        size=5,
        arrival_time=arrival,
        workflow_seed=seed,
    )


def _run(job: Job, fleet) -> JobRun:
    workflow = make_workflow(job.workflow, job.size, seed=job.workflow_seed)
    return JobRun(
        job, workflow, fleet,
        latency=0.05, upload_outputs=True, admit_time=0.0,
    )


class TestKernelSingleTenancyGuard:
    def test_second_episode_state_is_rejected(self) -> None:
        kernel = EpisodeKernel(
            make_workflow("cybershake", 5, seed=1), fleet_for(16)
        )
        with pytest.raises(ValidationError, match="already owns"):
            EpisodeState(kernel)

    def test_kernel_remains_usable_after_rejection(self) -> None:
        kernel = EpisodeKernel(
            make_workflow("cybershake", 5, seed=1), fleet_for(16)
        )
        with pytest.raises(ValidationError):
            EpisodeState(kernel)
        from repro.schedulers.online import GreedyOnlineScheduler

        first = kernel.run_episode(GreedyOnlineScheduler(), seed=0)
        again = kernel.run_episode(GreedyOnlineScheduler(), seed=0)
        assert first.makespan == again.makespan


class TestPerJobIsolation:
    def test_same_workflow_jobs_share_file_names(self) -> None:
        """The hazard itself: generated instances reuse file names."""
        wf_a = make_workflow("cybershake", 5, seed=1)
        wf_b = make_workflow("cybershake", 5, seed=2)
        names_a = {f.name for ac in wf_a.activations for f in ac.outputs}
        names_b = {f.name for ac in wf_b.activations for f in ac.outputs}
        assert names_a & names_b, (
            "expected overlapping output file names across instances — "
            "if generators now namespace files per instance, the "
            "per-job file_locations isolation rationale needs revisiting"
        )

    def test_file_locations_are_private_per_job(self) -> None:
        fleet = fleet_for(16)
        run_a = _run(_job(0, "tenant-0", seed=1), fleet)
        run_b = _run(_job(1, "tenant-1", seed=2), fleet)
        assert run_a.file_locations is not run_b.file_locations
        # publishing an output for job A must not change B's staging cost
        ac_b = run_b.activation(run_b.ready_ids[0])
        vm = fleet[0]
        before = run_b.estimates.stage_in_time(
            ac_b, vm, run_b.file_locations
        )
        shared_name = next(
            f.name
            for ac in run_a.workflow.activations
            for f in ac.outputs
        )
        run_a.file_locations[shared_name] = vm.id
        after = run_b.estimates.stage_in_time(
            ac_b, vm, run_b.file_locations
        )
        assert before == after

    def test_estimate_caches_are_private_per_job(self) -> None:
        """Activation ids restart at 0 per DAG: a shared id-keyed cache
        would hand job B the compute estimate of job A's activation 0."""
        fleet = fleet_for(16)
        run_a = _run(_job(0, seed=1), fleet)
        run_b = _run(_job(1, seed=2), fleet)
        assert run_a.estimates is not run_b.estimates
        ac_a = run_a.activation(0)
        ac_b = run_b.activation(0)
        vm = fleet[0]
        est_a = run_a.estimates.compute_time(ac_a, vm)
        est_b = run_b.estimates.compute_time(ac_b, vm)
        # distinct seeds → distinct runtimes; the caches must agree with
        # their own workflow, not with whichever job populated first
        assert est_a == run_a.estimates.compute_time(ac_a, vm)
        assert est_b == run_b.estimates.compute_time(ac_b, vm)
        if ac_a.runtime != ac_b.runtime:
            assert est_a != est_b

    def test_workflow_instances_are_private_per_job(self) -> None:
        fleet = fleet_for(16)
        run_a = _run(_job(0, seed=1), fleet)
        run_b = _run(_job(1, seed=1), fleet)  # same seed: same DAG shape
        assert run_a.workflow is not run_b.workflow
        first = run_a.ready_ids[0]
        run_a.start_running(run_a.activation(first))
        # job B's activation of the same id is untouched
        assert first in run_b.ready_ids
        assert run_b.activation(first).state.name == "READY"


class TestSlotTokens:
    def test_slot_keys_unique_across_jobs(self) -> None:
        seen = set()
        for job_id in (0, 1, 2, 1000):
            for activation_id in (0, 1, 5, 499):
                token = _slot_key(job_id, activation_id)
                assert token not in seen
                seen.add(token)

    def test_two_jobs_same_activation_id_occupy_two_slots(self) -> None:
        fleet = fleet_for(16)
        vm = max(fleet, key=lambda v: (v.capacity, -v.id))
        assert vm.capacity >= 2, "Table-I fleet should have a multi-core VM"
        vm.reset()
        vm.start(_slot_key(0, 0))
        vm.start(_slot_key(1, 0))
        assert len(vm.running) == 2

    def test_fleet_left_pristine_after_service_run(self) -> None:
        fleet = fleet_for(16)
        timeline = FleetTimeline(fleet, seed=3)
        jobs = [
            _job(0, "tenant-0", seed=1, arrival=0.0),
            _job(1, "tenant-1", seed=2, arrival=1.0),
            _job(2, "tenant-0", seed=3, arrival=2.0),
        ]
        result = timeline.run(jobs, FifoPolicy())
        assert result.n_jobs == 3
        assert result.n_failed == 0
        for vm in fleet:
            assert not vm.running, f"VM {vm.id} left with occupied slots"

    @pytest.mark.parametrize("second_arrival", [1.0, 1e5])
    def test_duplicate_job_ids_are_rejected_up_front(
        self, second_arrival: float
    ) -> None:
        """Job ids key the admitted jobs and the slot tokens.  Two jobs
        sharing one, whether their runs overlap (t=1) or not (t=1e5),
        must be refused before any event is scheduled."""
        timeline = FleetTimeline(fleet_for(16), seed=3)
        jobs = [
            _job(0, "tenant-0", seed=1, arrival=0.0),
            _job(0, "tenant-1", seed=2, arrival=second_arrival),
        ]
        with pytest.raises(ValidationError, match="duplicate job id 0"):
            timeline.run(jobs, FifoPolicy())
        assert len(timeline.queue) == 0

    def test_timeline_is_single_use(self) -> None:
        fleet = fleet_for(16)
        timeline = FleetTimeline(fleet, seed=3)
        jobs = [_job(0)]
        timeline.run(jobs, FifoPolicy())
        with pytest.raises(ValidationError, match="single-use"):
            timeline.run(jobs, FifoPolicy())


class TestActionPairsInterner:
    def test_interner_survives_scrub_with_stable_identity(self) -> None:
        kernel = EpisodeKernel(
            make_workflow("cybershake", 5, seed=1), fleet_for(16)
        )
        state = kernel.state
        state.reset(0)
        first = state.action_pairs()
        state.scrub()
        state.reset(0)
        second = state.action_pairs()
        # same content after a scrub/reset cycle → the *same* object
        # (content-addressed interning, generation-independent)
        assert first == second
        assert first is second

    def test_interner_is_content_addressed(self) -> None:
        kernel = EpisodeKernel(
            make_workflow("cybershake", 5, seed=1), fleet_for(16)
        )
        state = kernel.state
        state.reset(0)
        before = state.action_pairs()
        ac = state.ready_view()[0]
        vm = state.idle_view()[0]
        state.start_running(ac)
        vm.start(ac.id)
        state.vm_touch()
        after = state.action_pairs()
        assert after != before
        assert all(pair[0] != ac.id for pair in after)

    def test_service_runs_do_not_touch_kernel_interner(self) -> None:
        """The service path never constructs EpisodeStates at all, so a
        concurrent RL kernel's interner is untouched by a service run."""
        kernel = EpisodeKernel(
            make_workflow("cybershake", 5, seed=1), fleet_for(16)
        )
        state = kernel.state
        state.reset(0)
        pinned = state.action_pairs()
        SchedulerService(
            TraceArrivals([_job(0), _job(1, "tenant-1", seed=2)]),
            ServiceConfig(),
            seed=0,
        ).run()
        assert state.action_pairs() is pinned
