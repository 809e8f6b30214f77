"""Tests for repro.cli — the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.schedulers import SchedulingPlan


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_workflow_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["workflow", "--workflow", "nope"])

    def test_vcpus_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--vcpus", "48"])


class TestWorkflowCommand:
    def test_profile_printed(self, capsys):
        assert main(["workflow", "--workflow", "montage", "--size", "25"]) == 0
        out = capsys.readouterr().out
        assert "montage-25" in out and "critical path" in out

    def test_dax_export(self, tmp_path, capsys):
        path = tmp_path / "wf.dax"
        assert main(["workflow", "--size", "25", "--dax", str(path)]) == 0
        from repro.dag import parse_dax_file

        assert len(parse_dax_file(path)) == 25

    def test_xml_export(self, tmp_path):
        path = tmp_path / "wf.xml"
        assert main(["workflow", "--size", "25", "--xml", str(path)]) == 0
        from repro.scicumulus import workflow_from_xml

        assert len(workflow_from_xml(path.read_text())) == 25


class TestSimulateCommand:
    @pytest.mark.parametrize("scheduler", ["heft", "minmin", "fcfs", "greedy"])
    def test_schedulers_run(self, scheduler, capsys):
        rc = main(["simulate", "--scheduler", scheduler, "--size", "25"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "successfully finished" in out

    def test_gantt_flag(self, capsys):
        main(["simulate", "--size", "25", "--gantt"])
        assert "vm0" in capsys.readouterr().out


class TestLearnCommand:
    def test_learn_and_save_plan(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        rc = main([
            "learn", "--size", "25", "--episodes", "3",
            "--plan-out", str(plan_path),
        ])
        assert rc == 0
        plan = SchedulingPlan.from_json(plan_path.read_text())
        assert len(plan.assignment) == 25
        assert "plan makespan" in capsys.readouterr().out


class TestPipelineCommand:
    def test_reassign_pipeline(self, capsys):
        rc = main(["pipeline", "--size", "25", "--episodes", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "execution time" in out and "ReASSIgN" in out

    def test_heft_pipeline_with_provenance(self, tmp_path, capsys):
        db = tmp_path / "prov.db"
        rc = main([
            "pipeline", "--size", "25", "--scheduler", "heft",
            "--provenance", str(db),
        ])
        assert rc == 0
        from repro.scicumulus import ProvenanceStore

        with ProvenanceStore(db) as store:
            assert len(store.executions()) == 1


class TestTableCommand:
    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_table5_small(self, capsys):
        assert main(["table", "5", "--episodes", "2"]) == 0
        assert "Table V" in capsys.readouterr().out


class TestReproduceCommand:
    def test_reproduce_writes_artifacts(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EPISODES", "2")
        rc = main(["reproduce", "--out", str(tmp_path), "--episodes", "2"])
        assert rc == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert "REPORT.md" in names
        for artifact in ("table1.txt", "tables2_3.txt", "table4.txt",
                         "table5.txt", "figure1.txt",
                         "characterization.txt", "ablations.txt"):
            assert artifact in names
        out = capsys.readouterr().out
        assert "reproduction report" in out
