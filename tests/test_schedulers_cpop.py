"""Tests for repro.schedulers.cpop — Critical-Path-on-a-Processor."""

import pytest

from repro.schedulers import CpopScheduler, HeftScheduler, PlanFollowingScheduler
from repro.schedulers.base import EstimateModel
from repro.schedulers.cpop import downward_ranks
from repro.schedulers.heft import upward_ranks
from repro.sim import WorkflowSimulator, ZeroCostNetwork
from repro.sim.vm import Vm, VmType
from repro.util.validate import ValidationError
from repro.dag import Workflow


class TestDownwardRanks:
    def test_entries_are_zero(self, montage25, fleet16):
        ranks = downward_ranks(montage25, fleet16, EstimateModel())
        for entry in montage25.entries():
            assert ranks[entry] == 0.0

    def test_increases_along_edges(self, montage25, fleet16):
        ranks = downward_ranks(montage25, fleet16, EstimateModel())
        for parent, child in montage25.edges:
            assert ranks[child] > ranks[parent]

    def test_chain_accumulates(self, chain, fleet_small):
        ranks = downward_ranks(chain, fleet_small, EstimateModel())
        assert ranks[0] < ranks[1] < ranks[2] < ranks[3] < ranks[4]

    def test_priority_constant_on_critical_path(self, chain, fleet_small):
        # for a pure chain the whole graph is the critical path, so
        # rank_u + rank_d is constant up to communication terms (zero here)
        est = EstimateModel(latency=0.0, upload_outputs=False)
        up = upward_ranks(chain, fleet_small, est)
        down = downward_ranks(chain, fleet_small, est)
        priorities = {up[n] + down[n] for n in chain.activation_ids}
        lo, hi = min(priorities), max(priorities)
        assert hi - lo < 1e-6


class TestCpopPlan:
    def test_valid_and_executable(self, montage25, fleet16):
        plan = CpopScheduler().plan(montage25, fleet16)
        plan.validate_against(montage25, fleet16)
        result = WorkflowSimulator(
            montage25, fleet16, PlanFollowingScheduler(plan),
            network=ZeroCostNetwork(),
        ).run()
        assert result.succeeded
        assert result.assignment == plan.assignment

    def test_priority_topologically_consistent(self, montage25, fleet16):
        plan = CpopScheduler().plan(montage25, fleet16)
        pos = {n: i for i, n in enumerate(plan.priority)}
        for parent, child in montage25.edges:
            assert pos[parent] < pos[child]

    def test_critical_path_pinned_to_one_vm(self, chain, fleet_small):
        # for a chain, everything is on the critical path
        plan = CpopScheduler().plan(chain, fleet_small)
        assert len(set(plan.assignment.values())) == 1

    def test_cp_vm_is_fastest(self, chain):
        slow = Vm(0, VmType("slow", 1, 0.5, 1.0, 0.0))
        fast = Vm(1, VmType("fast", 1, 2.0, 1.0, 0.0))
        plan = CpopScheduler().plan(chain, [slow, fast])
        assert set(plan.assignment.values()) == {1}

    def test_competitive_with_heft(self, montage50, fleet16):
        def makespan(cls):
            plan = cls().plan(montage50, fleet16)
            return WorkflowSimulator(
                montage50, fleet16, PlanFollowingScheduler(plan),
                network=ZeroCostNetwork(),
            ).run().makespan

        assert makespan(CpopScheduler) <= makespan(HeftScheduler) * 1.25

    def test_deterministic(self, montage25, fleet16):
        a = CpopScheduler().plan(montage25, fleet16)
        b = CpopScheduler().plan(montage25, fleet16)
        assert a.assignment == b.assignment and a.priority == b.priority

    def test_empty_workflow_rejected(self, fleet_small):
        with pytest.raises(ValidationError):
            CpopScheduler().plan(Workflow("empty"), fleet_small)

    def test_capacity_aware_variant(self, montage25, fleet16):
        plan = CpopScheduler(single_slot_vms=False).plan(montage25, fleet16)
        plan.validate_against(montage25, fleet16)
        result = WorkflowSimulator(
            montage25, fleet16, PlanFollowingScheduler(plan),
            network=ZeroCostNetwork(),
        ).run()
        assert result.succeeded
