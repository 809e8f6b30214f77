"""Tests for repro.schedulers.heft — the paper's baseline."""

import pytest

from repro.schedulers import HeftScheduler, PlanFollowingScheduler
from repro.schedulers.base import EstimateModel
from repro.schedulers.heft import upward_ranks
from repro.sim import WorkflowSimulator, ZeroCostNetwork
from repro.sim.vm import VM_TYPES, Vm, VmType
from repro.util.validate import ValidationError

from tests.conftest import make_activation


class TestUpwardRanks:
    def test_ranks_decrease_along_edges(self, montage25, fleet16):
        ranks = upward_ranks(montage25, fleet16, EstimateModel())
        for p, c in montage25.edges:
            assert ranks[p] > ranks[c]

    def test_exit_rank_is_own_cost(self, chain, fleet_small):
        ranks = upward_ranks(chain, fleet_small, EstimateModel())
        # exit node 4 has runtime 5; all slots speed 1.0
        assert ranks[4] == pytest.approx(5.0)

    def test_chain_rank_accumulates(self, chain, fleet_small):
        ranks = upward_ranks(chain, fleet_small, EstimateModel())
        assert ranks[0] > ranks[1] > ranks[2] > ranks[3] > ranks[4]

    def test_empty_fleet_rejected(self, chain):
        with pytest.raises(ValidationError):
            upward_ranks(chain, [], EstimateModel())


class TestHeftPlan:
    def test_plan_covers_workflow(self, montage25, fleet16):
        plan = HeftScheduler().plan(montage25, fleet16)
        plan.validate_against(montage25, fleet16)
        assert plan.name == "HEFT"

    def test_priority_is_rank_order(self, montage25, fleet16):
        plan = HeftScheduler().plan(montage25, fleet16)
        ranks = upward_ranks(montage25, fleet16, EstimateModel())
        vals = [ranks[i] for i in plan.priority]
        assert vals == sorted(vals, reverse=True)

    def test_prefers_faster_processor_when_heterogeneous(self):
        wf_nodes = [make_activation(i, runtime=50.0) for i in range(3)]
        from repro.dag import Workflow

        wf = Workflow("three")
        for ac in wf_nodes:
            wf.add_activation(ac)
        slow = Vm(0, VmType("slow", 1, 0.5, 1.0, 0.0))
        fast = Vm(1, VmType("fast", 1, 2.0, 1.0, 0.0))
        plan = HeftScheduler().plan(wf, [slow, fast])
        # 3 independent equal tasks: fast VM takes at least two of them
        on_fast = sum(1 for v in plan.assignment.values() if v == 1)
        assert on_fast >= 2

    def test_single_slot_default_spreads_over_vms(self, montage50, fleet16):
        # WorkflowSim-style HEFT treats the 2xlarge as ONE processor, so
        # the 11 entry activations land on many distinct VMs (Table V)
        plan = HeftScheduler().plan(montage50, fleet16)
        entry_vms = {plan.vm_of(i) for i in montage50.entries()}
        assert len(entry_vms) >= 7

    def test_capacity_aware_variant_uses_slots(self, montage50, fleet16):
        plan = HeftScheduler(single_slot_vms=False).plan(montage50, fleet16)
        big_id = 8
        on_big = sum(1 for v in plan.assignment.values() if v == big_id)
        single = HeftScheduler().plan(montage50, fleet16)
        on_big_single = sum(1 for v in single.assignment.values() if v == big_id)
        assert on_big > on_big_single

    def test_beats_naive_spread(self, montage25, fleet16):
        from repro.schedulers import RoundRobinScheduler

        heft_result = WorkflowSimulator(
            montage25, fleet16,
            PlanFollowingScheduler(HeftScheduler().plan(montage25, fleet16)),
            network=ZeroCostNetwork(),
        ).run()
        rr_result = WorkflowSimulator(
            montage25, fleet16, RoundRobinScheduler(),
            network=ZeroCostNetwork(),
        ).run()
        assert heft_result.makespan <= rr_result.makespan * 1.05

    def test_deterministic(self, montage25, fleet16):
        a = HeftScheduler().plan(montage25, fleet16)
        b = HeftScheduler().plan(montage25, fleet16)
        assert a.assignment == b.assignment and a.priority == b.priority

    def test_single_vm(self, chain):
        vm = Vm(0, VM_TYPES["t2.micro"])
        plan = HeftScheduler().plan(chain, [vm])
        assert set(plan.assignment.values()) == {0}

    def test_as_online_helper(self, chain, fleet_small):
        sched = HeftScheduler().as_online(chain, fleet_small)
        assert isinstance(sched, PlanFollowingScheduler)
        result = WorkflowSimulator(
            chain, fleet_small, sched, network=ZeroCostNetwork()
        ).run()
        assert result.succeeded
