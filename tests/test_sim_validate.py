"""Tests for repro.sim.validate + hostile-environment property checks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.schedulers import GreedyOnlineScheduler, RandomScheduler
from repro.sim import (
    BernoulliFailures,
    GaussianFluctuation,
    PeriodicMigrations,
    PoissonRevocations,
    WorkflowSimulator,
    ZeroCostNetwork,
    validate_result,
)
from repro.sim.metrics import SimulationResult
from repro.util.validate import ValidationError

from tests.test_sim_properties import random_dag, random_fleet


class TestValidateResult:
    def _ok_result(self, diamond, fleet_small):
        return WorkflowSimulator(
            diamond, fleet_small, GreedyOnlineScheduler(),
            network=ZeroCostNetwork(),
        ).run()

    def test_accepts_valid_run(self, diamond, fleet_small):
        result = self._ok_result(diamond, fleet_small)
        validate_result(diamond, result, fleet_small)

    def test_detects_missing_activation(self, diamond, fleet_small):
        result = self._ok_result(diamond, fleet_small)
        result.records.pop()
        with pytest.raises(ValidationError, match="never executed"):
            validate_result(diamond, result, fleet_small)

    def test_detects_duplicate_record(self, diamond, fleet_small):
        result = self._ok_result(diamond, fleet_small)
        result.records.append(result.records[0])
        with pytest.raises(ValidationError, match="more than once"):
            validate_result(diamond, result, fleet_small)

    def test_detects_dependency_violation(self, diamond, fleet_small):
        result = self._ok_result(diamond, fleet_small)
        child = result.record(3)
        child.start_time = 0.0  # starts before parents finish
        child.ready_time = 0.0
        with pytest.raises(ValidationError, match="before"):
            validate_result(diamond, result, fleet_small)

    def test_detects_capacity_violation(self, fork_join, fleet_small):
        result = WorkflowSimulator(
            fork_join, fleet_small, GreedyOnlineScheduler(),
            network=ZeroCostNetwork(),
        ).run()
        # rewrite every record onto micro VM 0 (capacity 1) concurrently
        for r in result.records:
            r.vm_id = 0
        with pytest.raises(ValidationError, match="capacity"):
            validate_result(fork_join, result, fleet_small)

    def test_detects_unknown_vm(self, diamond, fleet_small):
        result = self._ok_result(diamond, fleet_small)
        result.records[0].vm_id = 404
        with pytest.raises(ValidationError, match="unknown VM"):
            validate_result(diamond, result, fleet_small)

    def test_detects_makespan_mismatch(self, diamond, fleet_small):
        result = self._ok_result(diamond, fleet_small)
        result.makespan += 5.0
        with pytest.raises(ValidationError, match="makespan"):
            validate_result(diamond, result, fleet_small)

    def test_partial_run_with_flag(self, chain, fleet_small):
        result = WorkflowSimulator(
            chain, fleet_small, GreedyOnlineScheduler(),
            network=ZeroCostNetwork(),
            failures=BernoulliFailures(1.0), max_attempts=1,
        ).run()
        assert not result.succeeded
        with pytest.raises(ValidationError):
            validate_result(chain, result, fleet_small)
        validate_result(chain, result, fleet_small, require_success=False)

    def test_needs_fleet(self, diamond, fleet_small):
        result = self._ok_result(diamond, fleet_small)
        bare = SimulationResult(
            workflow_name=result.workflow_name,
            records=result.records,
            makespan=result.makespan,
            final_state=result.final_state,
        )
        with pytest.raises(ValidationError, match="fleet"):
            validate_result(diamond, bare)


class TestHostileEnvironmentProperties:
    """All environment models at once: invariants must still hold."""

    @settings(max_examples=25, deadline=None)
    @given(wf=random_dag(), fleet=random_fleet(),
           seed=st.integers(min_value=0, max_value=500))
    def test_full_hostility(self, wf, fleet, seed):
        sim = WorkflowSimulator(
            wf, fleet, GreedyOnlineScheduler(),
            network=ZeroCostNetwork(),
            fluctuation=GaussianFluctuation(0.25),
            failures=BernoulliFailures(0.15),
            migrations=PeriodicMigrations(mean_interval=40.0,
                                          min_downtime=2.0, max_downtime=8.0),
            revocations=PoissonRevocations(mean_lifetime=300.0,
                                           spot_fraction=0.4),
            max_attempts=25,
            seed=seed,
        )
        result = sim.run()
        validate_result(wf, result, fleet,
                        require_success=result.succeeded)
        assert result.succeeded  # 25 attempts absorb the failure rate

    @settings(max_examples=20, deadline=None)
    @given(wf=random_dag(), fleet=random_fleet(),
           seed=st.integers(min_value=0, max_value=500))
    def test_random_scheduler_under_migrations(self, wf, fleet, seed):
        result = WorkflowSimulator(
            wf, fleet, RandomScheduler(seed=seed),
            network=ZeroCostNetwork(),
            migrations=PeriodicMigrations(mean_interval=30.0,
                                          min_downtime=1.0, max_downtime=5.0),
            seed=seed,
        ).run()
        validate_result(wf, result, fleet)
