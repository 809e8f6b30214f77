"""Tests for repro.experiments — the table/figure harness (scaled down)."""

import pytest

from repro.experiments import (
    TABLE1_FLEETS,
    default_episodes,
    fleet_for,
    render_table1,
    run_figure1,
    run_paper_sweep,
    run_table4,
    run_table5,
)
from repro.experiments.ablations import (
    run_episode_ablation,
    run_reward_ablation,
    run_rule_ablation,
    run_workload_ablation,
)
from repro.experiments.environments import fleet_spec_for
from repro.experiments.table4 import render_table4
from repro.experiments.table5 import render_table5
from repro.sim.vm import fleet_vcpus
from repro.util.validate import ValidationError
from repro.workflows import montage


class TestTable1:
    def test_fleet_shapes(self):
        for vcpus in (16, 32, 64):
            assert fleet_vcpus(fleet_for(vcpus)) == vcpus

    def test_paper_counts(self):
        assert TABLE1_FLEETS == {16: (8, 1), 32: (8, 3), 64: (8, 7)}

    def test_render_contains_rows(self):
        text = render_table1()
        assert "| 9 " in text and "| 11" in text and "| 15" in text

    def test_unknown_fleet(self):
        with pytest.raises(ValidationError):
            fleet_for(48)
        with pytest.raises(ValidationError):
            fleet_spec_for(48)

    def test_spec_matches_fleet(self):
        spec = fleet_spec_for(32)
        assert spec == {"t2.micro": 8, "t2.2xlarge": 3}


class TestSweepHarness:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_paper_sweep(
            workflow=montage(25, seed=3),
            vcpu_fleets=(16,),
            episodes=4,
            seed=1,
            grid=(0.5, 1.0),
        )

    def test_covers_grid(self, sweep):
        assert len(sweep.records[16]) == 8  # 2^3 combos

    def test_table2_renders(self, sweep):
        text = sweep.render_table2()
        assert "Table II" in text and "16 vCPUs" in text
        assert len(text.splitlines()) == 8 + 5  # rows + frame

    def test_table3_renders(self, sweep):
        assert "Table III" in sweep.render_table3()

    def test_best_cells(self, sweep):
        best = sweep.best_cells()
        assert 16 in best
        assert best[16].simulated_makespan == min(
            r.simulated_makespan for r in sweep.records[16]
        )

    def test_learning_times_positive(self, sweep):
        assert all(r.learning_time > 0 for r in sweep.records[16])


class TestTable4:
    def test_rows_and_render(self):
        rows = run_table4(
            workflow=montage(25, seed=3),
            vcpu_fleets=(16,),
            episodes=3,
            seed=1,
        )
        assert len(rows) == 4  # HEFT + three alphas
        algos = [r.algorithm for r in rows]
        assert algos.count("HEFT") == 1 and algos.count("ReASSIgN") == 3
        times = [r.total_execution_time for r in rows]
        assert times == sorted(times)  # paper sorts fastest-first per fleet
        text = render_table4(rows)
        assert "Table IV" in text and "00:" in text


class TestTable5:
    def test_plans_and_render(self):
        result = run_table5(workflow=montage(25, seed=3), episodes=3, seed=1)
        assert set(result.plans) == {"HEFT", "C1", "C2", "C3"}
        for plan in result.plans.values():
            assert len(plan.assignment) == 25
        assert result.big_vm_ids == [8]
        text = render_table5(result)
        assert "Table V" in text
        assert len(text.splitlines()) == 25 + 5


class TestFigure1:
    def test_all_stages_traced(self):
        trace = run_figure1(workflow=montage(25, seed=3), episodes=3, seed=1)
        assert trace.n_learning_runs == 1
        assert trace.n_recorded_executions == 1
        assert trace.spec_xml_chars > 100
        text = trace.text()
        for stage in ("SCSetup", "WorkflowSim", "SCStarter", "SCCore",
                      "Provenance"):
            assert stage in text


class TestAblations:
    def test_reward_ablation(self):
        rows = run_reward_ablation(
            workflow=montage(25, seed=3),
            mus=(0.0, 1.0), rhos=(0.5,), episodes=3, seed=1,
        )
        assert len(rows) == 2
        assert all(r.simulated_makespan > 0 for r in rows)
        assert all(-1 <= r.mean_final_reward <= 1 for r in rows)

    def test_rule_ablation(self):
        out = run_rule_ablation(
            workflow=montage(25, seed=3), episodes=3, seeds=(1,)
        )
        assert set(out) == {"qlearning", "sarsa", "doubleq",
                            "random-exploration-only"}

    def test_workload_ablation(self):
        rows = run_workload_ablation(
            episodes=3, seed=1,
            workloads=(("montage", 25), ("sipht", 30)),
        )
        assert len(rows) == 2
        for name, heft_mk, rl_mk in rows:
            assert heft_mk > 0 and rl_mk > 0

    def test_episode_ablation(self):
        rows = run_episode_ablation(
            workflow=montage(25, seed=3), budgets=(2, 5), seed=1
        )
        assert [r[0] for r in rows] == [2, 5]


class TestDefaultEpisodes:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_EPISODES", "7")
        assert default_episodes() == 7

    def test_paper_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_EPISODES", raising=False)
        assert default_episodes() == 100

    def test_invalid_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_EPISODES", "0")
        with pytest.raises(ValueError):
            default_episodes()


class TestSensitivity:
    def test_rows_and_render(self):
        from repro.experiments.sensitivity import (
            render_sensitivity,
            run_seed_sensitivity,
        )
        from repro.workflows import montage

        rows = run_seed_sensitivity(
            workflow=montage(25, seed=3),
            vcpu_fleets=(16,),
            seeds=(1, 2),
            episodes=3,
        )
        assert len(rows) == 1
        row = rows[0]
        assert row.vcpus == 16 and row.n_seeds == 2
        assert 0 <= row.reassign_wins <= 2
        assert 0.0 <= row.win_fraction <= 1.0
        assert row.heft_mean > 0 and row.reassign_mean > 0
        text = render_sensitivity(rows)
        assert "Seed sensitivity" in text and "±" in text
