"""Smoke tests: every example script must run end-to-end.

Examples are executed in a subprocess (they are user-facing entry
points, so they must work as scripts, not just as importable modules)
with tiny episode counts.
"""

import pathlib
import subprocess
import sys

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=120):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "3")
        assert "HEFT makespan" in out
        assert "ReASSIgN learned over 3 episodes" in out
        assert "Gantt" in out

    def test_montage_on_aws(self):
        out = run_example("montage_on_aws.py", "3")
        assert "HEFT" in out and "provenance-warm" in out
        assert "Provenance database contents" in out
        assert "execution #3" in out  # three runs recorded

    def test_parameter_study(self):
        out = run_example("parameter_study.py", "2", "0.1,1.0")
        assert "Table II" in out and "Table III" in out
        assert "Best cell" in out

    def test_fault_tolerant_cloud(self):
        out = run_example("fault_tolerant_cloud.py")
        assert "finished with failure" in out  # scenario 4's terminal
        assert "needed retries" in out

    def test_scheduler_shootout(self):
        out = run_example("scheduler_shootout.py", "2")
        for name in ("HEFT", "Min-Min", "OLB", "ReASSIgN", "Random"):
            assert name in out
        for workflow in ("montage", "cybershake", "sipht"):
            assert workflow in out

    def test_cost_aware_and_online(self):
        out = run_example("cost_aware_and_online.py", "3")
        assert "cost weight" in out
        assert "plan-based replay" in out
        assert "online, learning on the cloud" in out


class TestCliAsSubprocess:
    """The `python -m repro` entry point must work from a fresh process."""

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "table", "1"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "Table I" in proc.stdout

    def test_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        for cmd in ("workflow", "simulate", "learn", "pipeline", "table"):
            assert cmd in proc.stdout


class TestEnsembleExample:
    def test_ensemble_campaign(self):
        out = run_example("ensemble_campaign.py", "3")
        assert "montage-ensemble-4x25" in out
        assert "Scheduler comparison" in out
        assert "per-VM performance history" in out


class TestClusteringHostsExample:
    def test_clustering_and_hosts(self):
        out = run_example("clustering_and_hosts.py")
        assert "clustering under a 2s dispatch overhead" in out
        assert "vertical" in out and "horizontal(3)" in out
        assert "failing host" in out
        assert "completed on surviving VMs" in out
