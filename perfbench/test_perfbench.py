"""Smoke tests of the benchmark itself, at reduced scale.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

WORKLOADS = ("paper_grid", "montage_pipeline", "serve_stream")


def bench(*args, cwd=ROOT):
    """Run the benchmark at smoke scale; return (exit code, info, result)."""
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--scale", "smoke",
         "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        return proc.returncode, None, None
    return proc.returncode, json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_prints_every_declared_metric_with_its_unit(workload, trace, kind):
    code, info, result = bench("--workload", workload, "--trace", trace)
    assert code == 0, info
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared(kind)
    assert info["host"]["usable_cores"] >= 1 and info["input_digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_digests_repeat_per_seed_and_differ_across_seeds(workload):
    runs = [bench("--workload", workload, "--trace", "1", "--seed", s) for s in ("3", "3", "4")]
    assert all(code == 0 for code, _, _ in runs)
    (_, first, a), (_, second, b), (_, other, c) = runs
    counts = [n for n, unit in declared("per_layer").items() if unit in ("count", "bytes")]
    assert {n: a["metrics"][n]["value"] for n in counts} == {
        n: b["metrics"][n]["value"] for n in counts
    }
    assert first["digest"] == second["digest"]
    assert first["input_digest"] == second["input_digest"]
    assert other["digest"] != first["digest"]
    assert other["input_digest"] != first["input_digest"]


def test_swapped_plan_assignment_trips_the_gate():
    grid = workloads.PaperGrid("smoke")
    inputs = grid.build_inputs(0)
    sweep = grid.run(inputs, workers=1)
    clean = grid.evaluate(inputs, sweep, None)
    assert clean.failed == 0 and not clean.problems
    assert grid.evaluate(inputs, sweep, clean.digest).failed == 0

    plan = sweep.records[16][0].result.plan
    first = min(plan.assignment)
    other = next(a for a in sorted(plan.assignment) if plan.assignment[a] != plan.assignment[first])
    plan.assignment[first], plan.assignment[other] = plan.assignment[other], plan.assignment[first]
    swapped = grid.evaluate(inputs, sweep, clean.digest)
    assert swapped.failed == swapped.ops
    assert any("digest" in p for p in swapped.problems)


def test_structural_invariants_hold_without_a_recorded_digest():
    grid = workloads.PaperGrid("smoke")
    inputs = grid.build_inputs(0)
    sweep = grid.run(inputs, workers=1)
    plan = sweep.records[16][0].result.plan
    plan.assignment[min(plan.assignment)] = 999  # no such VM
    checked = grid.evaluate(inputs, sweep, None)
    assert checked.failed == 1
    assert any("place every activation" in p for p in checked.problems)


def test_unknown_vm_is_caught_in_the_montage_pipeline():
    pipeline = workloads.MontagePipeline("smoke")
    inputs = pipeline.build_inputs(0)
    assert pipeline.evaluate(inputs, pipeline.run(inputs, workers=1), None).failed == 0
    inputs["fleet_vms"] = {label: set() for label in inputs["fleet_vms"]}
    checked = pipeline.evaluate(inputs, pipeline.run(inputs, workers=1), None)
    assert checked.failed == checked.ops
    assert any("outside the fleet" in p for p in checked.problems)


def test_precedence_violation_is_caught_in_the_serve_stream(monkeypatch):
    serve = workloads.ServeStream("smoke")
    inputs = serve.build_inputs(0)
    assert serve.evaluate(inputs, serve.run(inputs, workers=1), None).failed == 0
    check = workloads.job_problems
    perturbed = []

    def late_parent(job, workflow, records, vm_ids):
        # the first retiring job with an edge reports a parent that
        # finished after its child started
        if workflow.edges and not perturbed:
            parent, child = workflow.edges[0]
            late = next(r.start_time for r in records if r.activation_id == child) + 1.0
            records = [dataclasses.replace(r, finish_time=late) if r.activation_id == parent
                       else r for r in records]
            perturbed.append(job.job_id)
        return check(job, workflow, records, vm_ids)

    monkeypatch.setattr(workloads, "job_problems", late_parent)
    checked = serve.evaluate(inputs, serve.run(inputs, workers=1), None)
    assert perturbed and checked.failed == 1
    assert any("started before parent" in p for p in checked.problems)


def test_exits_non_zero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, info, result = bench("--workload", "serve_stream", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert result is None
