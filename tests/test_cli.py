"""Tests for repro.cli — the command-line interface."""

import pytest

from repro.cli import _task_failure, build_parser, main
from repro.runner.parallel import RunnerError, TaskResult
from repro.schedulers import SchedulingPlan
from repro.service.timeline import FleetTimeline
from repro.sim.kernel import SimulationError
from repro.util.validate import ValidationError


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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["serve", "--replicas", "0"], "replicas must be >= 1, got 0"),
            (["serve", "--replicas", "-3"], "replicas must be >= 1, got -3"),
            (["learn", "--size", "5"], "at least 11 activations, got 5"),
            (["serve", "--rate", "nan"], "rate must be finite, got nan"),
            (
                ["table", "2", "--episodes", "0"],
                "episodes must be an integer >= 1, got 0",
            ),
            (
                ["sweep", "--grid", "0.1", "0.1"],
                "grid values must be distinct, got [0.1, 0.1]",
            ),
        ],
    )
    def test_bad_input_is_a_clean_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro")
        assert ": error: " in err
        assert message in err
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "trace, message",
        [
            ("{not json", "malformed arrival trace JSON"),
            ('{"jobs": [{"job_id": 0}]}', "job 0: missing field 'tenant'"),
            # UTF-16 text with its byte-order mark: not UTF-8
            (b"\xff\xfe" + '{"jobs": []}'.encode("utf-16-le"),
             "malformed arrival trace (not UTF-8 text)"),
        ],
    )
    def test_malformed_trace_is_a_clean_error(
        self, trace, message, tmp_path, capsys
    ):
        path = tmp_path / "trace.json"
        if isinstance(trace, bytes):
            path.write_bytes(trace)
        else:
            path.write_text(trace, encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--trace", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


class TestPathErrors:
    """A path that cannot be read or written fails like a bad argument."""

    @pytest.mark.parametrize(
        "argv, option, path",
        [
            (["serve", "--trace", "{tmp}/missing.json"], "--trace",
             "{tmp}/missing.json"),
            (["serve", "--jobs", "2", "--trace-out", "{tmp}/no/t.json"],
             "--trace-out", "{tmp}/no/t.json"),
            (["serve", "--jobs", "2", "--metrics-out", "{tmp}"],
             "--metrics-out", "{tmp}"),
            (["learn", "--size", "25", "--episodes", "1",
              "--plan-out", "{tmp}"], "--plan-out", "{tmp}"),
            (["workflow", "--size", "25", "--dax", "{tmp}/no/wf.dax"],
             "--dax", "{tmp}/no/wf.dax"),
            (["workflow", "--size", "25", "--xml", "{tmp}"], "--xml",
             "{tmp}"),
            (["pipeline", "--size", "25", "--scheduler", "heft",
              "--provenance", "{tmp}/no/prov.db"], "--provenance",
             "{tmp}/no/prov.db"),
        ],
        ids=["trace", "trace-out", "metrics-out", "plan-out", "dax", "xml",
             "provenance"],
    )
    def test_is_a_clean_error(self, argv, option, path, tmp_path, capsys):
        def fill(text):
            return text.format(tmp=tmp_path)

        with pytest.raises(SystemExit) as exc:
            main([fill(arg) for arg in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro")
        assert "Traceback" not in err
        message = err.strip().splitlines()[-1]
        assert message.startswith(f"repro: error: argument {option}: ")
        assert repr(fill(path)) in message


class TestHorizonOverrun:
    """``serve`` past its ``--horizon``: one line, exit 2."""

    @pytest.mark.parametrize("replicas", [[], ["--replicas", "2"]])
    def test_is_a_one_line_error(self, replicas, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--horizon", "1", "--jobs", "3", *replicas])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(
            "repro: error: service exceeded horizon 1.0 with 3 jobs "
            "unfinished"
        )

    @pytest.mark.parametrize(
        "replicas, raised",
        [([], SimulationError), (["--replicas", "2"], RunnerError)],
    )
    def test_a_deadlock_keeps_its_traceback(
        self, replicas, raised, monkeypatch
    ):
        def deadlock(self, *args, **kwargs):
            raise SimulationError("service deadlocked at t=0.000")

        monkeypatch.setattr(FleetTimeline, "run", deadlock)
        with pytest.raises(raised, match="deadlocked"):
            main(["serve", "--jobs", "2", *replicas])


class TestRunnerTaskFailures:
    """Runner tasks that all failed one clean way fail the command so."""

    @pytest.mark.parametrize("argv", [
        ["ensemble", "--instances", "2", "--size", "10", "--episodes", "1",
         "--workers", "2"],
        ["serve", "--jobs", "3", "--size", "10", "--replicas", "2"],
    ])
    def test_bad_input_is_a_clean_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro")
        assert err.strip().splitlines()[-1] == (
            "repro: error: MontageRecipe needs at least 11 activations, "
            "got 10"
        )

    def test_mixed_failures_keep_their_traceback(self):
        def failure(index, line):
            return TaskResult(key=index, index=index,
                              error=f"Traceback ...\n{line}\n")

        exc = RunnerError([
            failure(0, "repro.util.validate.ValidationError: bad size"),
            failure(1, "repro.sim.kernel.HorizonExceeded: overran"),
        ])
        assert _task_failure(exc) is None
        exc = RunnerError([
            failure(0, "repro.util.validate.ValidationError: bad size"),
            failure(1, "repro.util.validate.ValidationError: worse size"),
        ])
        clean = _task_failure(exc)
        assert type(clean) is ValidationError
        assert str(clean) == "bad size"


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
