"""Tests for scheduler interfaces: plans, plan-following, estimates."""

import pytest

from repro.schedulers import (
    EstimateModel,
    HeftScheduler,
    PlanFollowingScheduler,
    SchedulingPlan,
)
from repro.sim import WorkflowSimulator, ZeroCostNetwork
from repro.sim.vm import VM_TYPES, Vm
from repro.util.validate import ValidationError

from tests.conftest import make_activation


class TestSchedulingPlan:
    def test_default_priority(self):
        plan = SchedulingPlan(assignment={2: 0, 0: 1, 1: 0})
        assert plan.priority == [0, 1, 2]

    def test_priority_must_be_permutation(self):
        with pytest.raises(ValidationError):
            SchedulingPlan(assignment={0: 0, 1: 0}, priority=[0])
        with pytest.raises(ValidationError):
            SchedulingPlan(assignment={0: 0}, priority=[0, 1])

    def test_vm_of(self):
        plan = SchedulingPlan(assignment={0: 3})
        assert plan.vm_of(0) == 3
        with pytest.raises(ValidationError):
            plan.vm_of(99)

    def test_activations_on_respects_priority(self):
        plan = SchedulingPlan(
            assignment={0: 1, 1: 1, 2: 1}, priority=[2, 0, 1]
        )
        assert plan.activations_on(1) == [2, 0, 1]
        assert plan.activations_on(99) == []

    def test_json_round_trip(self):
        plan = SchedulingPlan(
            assignment={0: 1, 1: 8}, priority=[1, 0], name="HEFT"
        )
        back = SchedulingPlan.from_json(plan.to_json())
        assert back.assignment == plan.assignment
        assert back.priority == plan.priority
        assert back.name == "HEFT"

    def test_malformed_json(self):
        with pytest.raises(ValidationError):
            SchedulingPlan.from_json("{not json")

    @pytest.mark.parametrize(
        "text, match",
        [
            ("[]", "expected an object"),
            ("{}", "missing field 'assignment'"),
            ('{"assignment": [[0, 1]]}', "assignment must be an object"),
            ('{"assignment": {"0": 0.5}}', r"assignment\[0\] must be an integer"),
            ('{"assignment": {"0": true}}', r"assignment\[0\] must be an integer"),
            ('{"assignment": {"0": -1}}', r"assignment\[0\] must be an integer"),
            ('{"assignment": {"0": "1"}}', r"assignment\[0\] must be an integer"),
            ('{"assignment": {"-1": 0}}', "assignment key must be an integer"),
            ('{"assignment": {"x": 0}}', "assignment key must be an integer"),
            ('{"assignment": {"1.0": 0}}', "assignment key must be an integer"),
            ('{"assignment": {"9223372036854775808": 0}}', "assignment key"),
            ('{"assignment": {"1": 0, "01": 1}}', "assignment repeats key 1"),
            ('{"assignment": {"1": 0, "1": 1}}', "repeated key '1'"),
            ('{"assignment": {"0": 0}, "priority": 0}', "priority must be a list"),
            ('{"assignment": {"0": 0}, "priority": [0.0]}',
             "priority must be an integer"),
            ('{"assignment": {"0": 0}, "priority": [1]}', "permutation"),
            ('{"assignment": {"0": 0}, "name": 5}', "name must be a string"),
            ('{"assignment": {"0": 1%s}}' % ("0" * 5000), "malformed plan JSON"),
        ],
    )
    def test_malformed_plan_is_a_validation_error(self, text, match):
        with pytest.raises(ValidationError, match=match):
            SchedulingPlan.from_json(text)

    def test_validate_against(self, diamond, fleet_small):
        plan = SchedulingPlan(assignment={i: 0 for i in range(4)})
        plan.validate_against(diamond, fleet_small)
        bad_vm = SchedulingPlan(assignment={i: 42 for i in range(4)})
        with pytest.raises(ValidationError):
            bad_vm.validate_against(diamond, fleet_small)
        missing = SchedulingPlan(assignment={0: 0})
        with pytest.raises(ValidationError):
            missing.validate_against(diamond, fleet_small)


class TestPlanFollowing:
    def test_executes_exact_assignment(self, montage25, fleet16):
        plan = HeftScheduler().plan(montage25, fleet16)
        sim = WorkflowSimulator(
            montage25, fleet16, PlanFollowingScheduler(plan),
            network=ZeroCostNetwork(),
        )
        result = sim.run()
        assert result.succeeded
        assert result.assignment == plan.assignment

    def test_waits_for_planned_vm(self, fork_join):
        # everything planned on VM 0 (1 slot) while VM 1 stays idle
        vms = [Vm(0, VM_TYPES["t2.micro"]), Vm(1, VM_TYPES["t2.micro"])]
        plan = SchedulingPlan(assignment={i: 0 for i in range(8)})
        sim = WorkflowSimulator(
            fork_join, vms, PlanFollowingScheduler(plan),
            network=ZeroCostNetwork(),
        )
        result = sim.run()
        assert result.succeeded
        assert set(result.assignment.values()) == {0}
        # fully serial: 3 + 6*10 + 3
        assert result.makespan == pytest.approx(66.0)

    def test_mismatched_plan_rejected_at_start(self, diamond, fleet_small):
        plan = SchedulingPlan(assignment={0: 0})
        sim = WorkflowSimulator(
            diamond, fleet_small, PlanFollowingScheduler(plan),
            network=ZeroCostNetwork(),
        )
        with pytest.raises(ValidationError):
            sim.run()


class TestEstimateModel:
    def test_compute_time(self):
        est = EstimateModel()
        vm = Vm(0, VM_TYPES["t2.micro"])
        ac = make_activation(0, runtime=10.0)
        assert est.compute_time(ac, vm) == pytest.approx(10.0)

    def test_stage_in_skips_colocated_producer(self, data_diamond, fleet_small):
        est = EstimateModel(latency=0.0)
        data_diamond.infer_data_dependencies()
        vm = fleet_small[0]
        consumer = data_diamond.activation(1)  # consumes a.dat from node 0
        with_producer_here = est.stage_in_time(
            consumer, vm, {0: vm.id}, data_diamond
        )
        with_producer_elsewhere = est.stage_in_time(
            consumer, vm, {0: 99}, data_diamond
        )
        assert with_producer_here == 0.0
        assert with_producer_elsewhere > 0.0

    def test_total_time_sums(self, data_diamond, fleet_small):
        est = EstimateModel()
        data_diamond.infer_data_dependencies()
        ac = data_diamond.activation(1)
        vm = fleet_small[0]
        total = est.total_time(ac, vm, {}, data_diamond)
        parts = (
            est.stage_in_time(ac, vm, {}, data_diamond)
            + est.compute_time(ac, vm)
            + est.stage_out_time(ac, vm)
        )
        assert total == pytest.approx(parts)

    def test_upload_outputs_toggle(self, data_diamond, fleet_small):
        ac = data_diamond.activation(0)
        vm = fleet_small[0]
        assert EstimateModel(upload_outputs=False).stage_out_time(ac, vm) == 0.0
        assert EstimateModel().stage_out_time(ac, vm) > 0.0
