"""Tests for repro.sim.trace and repro.sim.metrics aggregates."""

import pytest

from repro.schedulers import FcfsScheduler
from repro.sim import WorkflowSimulator, ZeroCostNetwork, gantt_text
from repro.sim.metrics import ActivationRecord, SimulationResult
from repro.util.validate import ValidationError


@pytest.fixture
def result(montage25, fleet16):
    return WorkflowSimulator(
        montage25, fleet16, FcfsScheduler(), network=ZeroCostNetwork()
    ).run()


class TestActivationRecord:
    def test_derived_times(self):
        r = ActivationRecord(
            activation_id=0, activity="x", vm_id=0,
            ready_time=1.0, start_time=3.0, finish_time=10.0,
        )
        assert r.queue_time == pytest.approx(2.0)
        assert r.execution_time == pytest.approx(7.0)
        assert r.total_time == pytest.approx(9.0)

    def test_inconsistent_times_rejected(self):
        with pytest.raises(ValidationError):
            ActivationRecord(
                activation_id=0, activity="x", vm_id=0,
                ready_time=5.0, start_time=3.0, finish_time=10.0,
            )


class TestSimulationResult:
    def test_record_lookup(self, result):
        assert result.record(0).activation_id == 0
        with pytest.raises(ValidationError):
            result.record(999)

    def test_vm_usage(self, result, fleet16):
        usage = result.vm_usage()
        assert sum(u.n_activations for u in usage) == 25
        for u in usage:
            assert u.busy_time > 0
            assert 0 < u.utilization(result.makespan, 8) <= 1.0

    def test_cost_hourly(self, result):
        # < 1h run -> one hour of every VM in the fleet
        expected = 8 * 0.0116 + 1 * 0.3712
        assert result.cost() == pytest.approx(expected)

    def test_cost_per_second_cheaper(self, result):
        assert result.cost(per_second_billing=True) < result.cost()

    def test_mean_times(self, result):
        assert result.mean_execution_time > 0
        assert result.mean_queue_time >= 0

    def test_empty_result_means(self):
        empty = SimulationResult("w", [], 0.0, "successfully finished")
        assert empty.mean_execution_time == 0.0
        assert empty.mean_queue_time == 0.0


class TestGantt:
    def test_contains_all_vms(self, result):
        text = gantt_text(result)
        for vm_id in sorted({r.vm_id for r in result.records}):
            assert f"vm{vm_id}" in text

    def test_respects_width(self, result):
        text = gantt_text(result, width=60)
        body = [
            line for line in text.splitlines()
            if line.startswith(("vm", "    |"))
        ]
        assert all(len(line) <= 70 for line in body)

    def test_empty_trace(self):
        empty = SimulationResult("w", [], 0.0, "successfully finished")
        assert gantt_text(empty) == "(empty trace)"

    def test_width_validated(self, result):
        with pytest.raises(ValueError):
            gantt_text(result, width=5)

    def test_makespan_in_header(self, result):
        assert f"{result.makespan:.2f}" in gantt_text(result).splitlines()[0]
