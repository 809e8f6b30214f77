"""Every CLI subcommand, once, in a fresh interpreter.

The CLI imports each command's modules inside its handler, so a process
loads only the command it runs.  ``tests/test_cli.py`` runs the commands
in-process, after other tests have imported the whole package, where a
handler missing one of its imports still passes; here each command
starts from a new ``python -m repro`` at tiny scale (one episode,
Montage-25) and must exit as it would for a user.  The error paths that
import lazily (a horizon overrun, a replica overrun, bad input inside
runner tasks, an unopenable provenance database) run here too.
"""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: (argv, exit code, text the output must contain)
COMMANDS = [
    (["workflow", "--size", "25", "--dax", "w.dax", "--xml", "w.xml"], 0,
     "wrote SciCumulus XML to w.xml"),
    (["simulate", "--size", "25", "--scheduler", "heft", "--gantt"], 0,
     "scheduler=heft"),
    (["simulate", "--size", "25", "--scheduler", "random", "--seed", "3"], 0,
     "scheduler=random"),
    (["learn", "--size", "25", "--episodes", "1", "--plan-out", "plan.json"], 0,
     "wrote plan to plan.json"),
    (["pipeline", "--size", "25", "--episodes", "1", "--provenance", "p.db"], 0,
     "scheduler        = ReASSIgN"),
    (["pipeline", "--size", "25", "--scheduler", "minmin"], 0,
     "scheduler        = Min-Min"),
    (["table", "1"], 0, "Table I"),
    (["table", "2", "--episodes", "1"], 0, "Table II"),
    (["table", "4", "--episodes", "1"], 0, "Table IV"),
    (["table", "5", "--episodes", "1"], 0, "Table V"),
    (["sweep", "--episodes", "1", "--vcpus", "16", "--grid", "0.1",
      "--timing", "simulated"], 0, "[1/1] cells complete"),
    (["ensemble", "--instances", "2", "--size", "25", "--episodes", "1"], 0,
     "Ensemble campaign"),
    (["serve", "--jobs", "3", "--size", "20", "--metrics-out", "m.json",
      "--trace-out", "t.json"], 0, "wrote metrics to m.json"),
    (["serve", "--jobs", "3", "--size", "20", "--replicas", "2"], 0,
     "Service replicas"),
    (["reproduce", "--episodes", "1", "--out", "report"], 0,
     "artifacts written to report/"),
    (["serve", "--jobs", "3", "--size", "20", "--horizon", "10"], 2,
     "repro: error: service exceeded horizon 10.0"),
    (["serve", "--jobs", "3", "--size", "20", "--horizon", "10",
      "--replicas", "2"], 2, "(2 replica(s) overran)"),
    (["pipeline", "--size", "25", "--scheduler", "heft", "--provenance",
      "missing/p.db"], 2, "argument --provenance: cannot open 'missing/p.db'"),
    # bad input inside runner tasks is a usage error too
    (["ensemble", "--instances", "2", "--size", "10", "--episodes", "1"], 2,
     "repro: error: MontageRecipe needs at least 11 activations, got 10"),
    (["serve", "--jobs", "3", "--size", "10", "--replicas", "2"], 2,
     "repro: error: MontageRecipe needs at least 11 activations, got 10"),
]


@pytest.mark.parametrize(
    "argv, code, text", COMMANDS,
    ids=[" ".join(argv[:2]) + f" [{i}]" for i, (argv, _c, _t) in enumerate(COMMANDS)],
)
def test_command_in_a_fresh_interpreter(argv, code, text, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == code, proc.stderr[-2000:]
    assert text in proc.stdout + proc.stderr
    if code == 2:
        # a clean error: one message, no traceback
        assert "Traceback" not in proc.stderr
