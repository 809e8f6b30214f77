"""Tests for repro.workflows.ensembles — multi-workflow campaigns."""

import pytest

from repro.core import ReassignLearner, ReassignParams
from repro.schedulers import GreedyOnlineScheduler
from repro.sim import WorkflowSimulator
from repro.util.validate import ValidationError
from repro.workflows import (
    cybershake,
    merge_workflows,
    montage,
    montage_ensemble,
    split_assignment,
)


class TestMerge:
    def test_sizes_and_components(self):
        merged = merge_workflows([montage(25, seed=1), cybershake(30, seed=2)])
        assert len(merged) == 55
        assert len(merged.entries()) == (
            len(montage(25, seed=1).entries())
            + len(cybershake(30, seed=2).entries())
        )

    def test_no_cross_component_edges(self):
        a, b = montage(25, seed=1), montage(25, seed=2)
        merged = merge_workflows([a, b])
        for parent, child in merged.edges:
            assert (parent < 25) == (child < 25)

    def test_file_namespaces_disjoint(self):
        merged = merge_workflows([montage(25, seed=1), montage(25, seed=1)])
        merged.validate()  # identical instances would collide without prefixes
        names = set(merged.files())
        assert any(n.startswith("wf0/") for n in names)
        assert any(n.startswith("wf1/") for n in names)

    def test_runtime_conserved(self):
        a, b = montage(25, seed=1), cybershake(30, seed=2)
        merged = merge_workflows([a, b])
        total = sum(ac.runtime for ac in merged)
        assert total == pytest.approx(
            sum(ac.runtime for ac in a) + sum(ac.runtime for ac in b)
        )

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            merge_workflows([])


class TestEnsembleExecution:
    def test_simulatable(self, fleet16):
        ensemble = montage_ensemble(3, 25, seed=5)
        assert len(ensemble) == 75
        result = WorkflowSimulator(
            ensemble, fleet16, GreedyOnlineScheduler()
        ).run()
        assert result.succeeded
        assert len(result.records) == 75

    def test_ensemble_queues_more_than_single(self, fleet16):
        single = WorkflowSimulator(
            montage(25, seed=5), fleet16, GreedyOnlineScheduler()
        ).run()
        ensemble = WorkflowSimulator(
            montage_ensemble(4, 25, seed=5), fleet16, GreedyOnlineScheduler()
        ).run()
        # contention: the ensemble's mean queue time must exceed the single
        # instance's (this is what makes mu's balance matter)
        assert ensemble.mean_queue_time > single.mean_queue_time

    def test_reassign_learns_on_ensemble(self, fleet16):
        ensemble = montage_ensemble(2, 25, seed=5)
        params = ReassignParams(alpha=0.5, gamma=1.0, epsilon=0.1, episodes=5)
        result = ReassignLearner(ensemble, fleet16, params, seed=3).learn()
        assert result.simulated_makespan > 0
        result.plan.validate_against(ensemble, fleet16)


class TestSplitAssignment:
    def test_round_trip(self):
        merged = merge_workflows([montage(25, seed=1), montage(11, seed=2)])
        assignment = {i: i % 4 for i in merged.activation_ids}
        parts = split_assignment(assignment, [25, 11])
        assert len(parts) == 2
        assert sorted(parts[0]) == list(range(25))
        assert sorted(parts[1]) == list(range(11))
        assert parts[1][0] == assignment[25]

    def test_coverage_validated(self):
        with pytest.raises(ValidationError):
            split_assignment({0: 0}, [2])
