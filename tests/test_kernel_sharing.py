"""Learning runs share kernels only through the runner's per-process cache.

Every campaign submits one runner task per learning run, and a task
that declares its kernel fingerprint gets its learner's kernel from
the process's ``shared_kernel`` cache.  Sharing is pure performance
work, so the contract is byte-equality against the object-path
reference (``tests/reference_learner.py``), which shares no code with
the fused stepper the runs take:

- a Hypothesis property learns random layered DAGs as serial runner
  tasks that share their fingerprint's cached kernel, and demands
  identical ``LearningResult.to_json()`` and scheduler state
  (``tests/reference_learner.scheduler_state``);
- directed tests vary the number of tasks over {1, 2, 7, 32}, cover
  ineligible-lane fallbacks (SARSA / Double-Q / bucketed states) among
  the tasks, and hold the paper sweep's records across worker counts
  and chunk sizes;
- a task whose declared fingerprint does not match its learner's
  configuration builds its own kernel and never gets the declared one;
- the CLI has no ``--batch`` and counts sweep progress in cells.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batch import BatchSpec, learn_batch
from repro.core.lane import fast_lane_eligible
from repro.core.reassign import ReassignLearner, ReassignParams
from repro.dag.activation import Activation
from repro.dag.graph import Workflow
from repro.experiments.environments import fleet_for
from repro.runner.parallel import (
    ParallelRunner,
    Task,
    clear_kernel_cache,
    kernel_cache_stats,
    shared_kernel,
)
from repro.util.validate import ValidationError
from repro.workflows.montage import montage

from tests.reference_learner import (
    batch_learners,
    reference_learn,
    scheduler_state,
    spec_learner,
)


def random_dag(seed: int, n_min: int = 4, n_max: int = 10) -> Workflow:
    """A random layered DAG — deterministic in ``seed``."""
    rng = random.Random(seed)
    n = rng.randint(n_min, n_max)
    wf = Workflow(f"random-{seed}-{n}")
    for i in range(n):
        wf.add_activation(
            Activation(id=i, activity=f"a{i}",
                       runtime=round(rng.uniform(1.0, 60.0), 3))
        )
    for child in range(1, n):
        for parent in range(child):
            if rng.random() < 0.3:
                wf.add_dependency(parent, child)
    wf.validate()
    return wf


def _spec(wf, seed, **params):
    return BatchSpec(
        workflow=wf,
        vms=fleet_for(16),
        params=ReassignParams(episodes=params.pop("episodes", 3), **params),
        seed=seed,
    )


def _reference(spec: BatchSpec, **learner_kw):
    """The object-path reference run for one spec, and its learner."""
    learner = spec_learner(spec, **learner_kw)
    return reference_learn(learner), learner


def _assert_tasks_match_reference(specs):
    """Runner-task results and scheduler states equal the reference's."""
    results, learners = batch_learners(specs)
    assert len(results) == len(learners) == len(specs)
    kernels = {}
    for spec, got, fused in zip(specs, results, learners):
        # one kernel per fingerprint, from the runner's cache
        fingerprint = fused.kernel_fingerprint()
        assert kernels.setdefault(fingerprint, fused.kernel) is fused.kernel
        want, reference = _reference(spec)
        assert _fp(got) == _fp(want)
        assert scheduler_state(fused.scheduler) == scheduler_state(
            reference.scheduler
        )


def _fp(result):
    """Everything in ``to_json()`` except the wall-clock learning time,
    plus each episode's assignment in completion order (``to_json()``
    sorts its keys)."""
    data = json.loads(result.to_json())
    data.pop("learning_time", None)
    data["assignment_order"] = [
        list(e.assignment.items()) for e in result.episodes
    ]
    return data


class TestRunnerTasksVsReference:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_dags_bitwise_equal(self, seed):
        wf = random_dag(seed)
        specs = [
            _spec(wf, seed, alpha=0.5, epsilon=0.1),
            _spec(wf, seed + 1, alpha=0.9, epsilon=0.5),
            _spec(random_dag(seed + 7), seed, alpha=0.1, epsilon=0.1),
        ]
        _assert_tasks_match_reference(specs)

    @pytest.mark.parametrize("width", [1, 2, 7, 32])
    def test_widths_bitwise_equal(self, width):
        pool = [random_dag(100 + k, n_min=4, n_max=7) for k in range(4)]
        grid = [(0.1, 0.1), (0.5, 0.1), (0.9, 0.5), (1.0, 0.9)]
        specs = [
            _spec(pool[k % 4], seed=k % 3, episodes=2,
                  alpha=grid[k % 4][0], epsilon=grid[k % 4][1])
            for k in range(width)
        ]
        _assert_tasks_match_reference(specs)

    def test_ineligible_lanes_fall_back_and_still_match(self):
        wf = random_dag(42, n_min=5, n_max=8)
        specs = [
            _spec(wf, 1),  # fast lane
            _spec(wf, 1, rule="sarsa"),
            _spec(wf, 1, rule="doubleq"),
            _spec(wf, 1, state_buckets=4),
        ]
        assert fast_lane_eligible(specs[0].params)
        for spec in specs[1:]:
            assert not fast_lane_eligible(spec.params)
        _assert_tasks_match_reference(specs)


class TestLearnBatch:
    """The plain loop: one fresh learner per spec."""

    def test_simulated_timing_matches_serial_clock(self):
        from repro.core.reassign import SimulatedLearningClock

        spec = _spec(montage(25, seed=3), 9)
        looped = learn_batch([spec], timing="simulated")[0]
        serial = _reference(spec, clock=SimulatedLearningClock())[0]
        assert looped.to_json() == serial.to_json()
        assert looped.learning_time == looped.simulated_learning_time

    def test_invalid_timing_rejected(self):
        with pytest.raises(ValidationError, match="timing"):
            learn_batch([_spec(montage(25, seed=0), 0)], timing="cpu")

    def test_empty_batch_is_empty(self):
        assert learn_batch([]) == []


class TestPaperSweep:
    def _sweep(self, workers, batch):
        from repro.experiments.sweeps import run_paper_sweep

        return run_paper_sweep(
            montage(25, seed=1),
            vcpu_fleets=(16,),
            episodes=2,
            seed=1,
            grid=(0.1, 1.0),
            workers=workers,
            timing="simulated",
            batch=batch,
        )

    def test_records_equal_for_workers_and_chunk_sizes(self):
        def fingerprint(sweep):
            return [
                (r.params, r.learning_time, r.simulated_makespan,
                 r.result.qtable_json, r.result.plan.to_json())
                for r in sweep.records[16]
            ]

        base = fingerprint(self._sweep(workers=1, batch=1))
        assert len(base) == 8
        for workers in (1, 2):
            for batch in (1, 3, 8):
                assert fingerprint(self._sweep(workers, batch)) == base


def _learn_plan(payload, seed):
    """Learn ``(workflow, fleet)`` for one episode; the plan's JSON."""
    wf, fleet = payload
    learner = ReassignLearner(wf, fleet, ReassignParams(episodes=1), seed=seed)
    return learner.learn().plan.to_json()


@pytest.fixture
def empty_cache():
    clear_kernel_cache()
    yield
    clear_kernel_cache()


class TestDeclaredFingerprintGuard:
    """A declaration that does not match the learner is ignored."""

    def _task(self, fleet):
        wf = montage(25, seed=0)
        declared = ReassignLearner(wf, fleet_for(16)).kernel_fingerprint()
        return wf, Task(key="cell", fn=_learn_plan, payload=(wf, fleet),
                        seed=5, kernel_fingerprint=declared)

    def test_mismatched_declaration_builds_its_own_kernel(self, empty_cache):
        wf, task = self._task(fleet_for(32))
        [result] = ParallelRunner(workers=1).run([task])
        assert kernel_cache_stats() == {"size": 0, "builds": 0, "hits": 0}
        assert result.value == _learn_plan((wf, fleet_for(32)), 5)

    def test_declared_kernel_is_never_handed_over(self, empty_cache):
        wf, task = self._task(fleet_for(32))
        # the cache already holds the 16-vCPU kernel the task declares
        shared_kernel(
            task.kernel_fingerprint,
            ReassignLearner(wf, fleet_for(16))._build_kernel,
        )
        [result] = ParallelRunner(workers=1).run([task])
        assert kernel_cache_stats()["hits"] == 0
        assert result.value == _learn_plan((wf, fleet_for(32)), 5)
        # learning on the declared kernel would have changed the plan
        assert result.value != _learn_plan((wf, fleet_for(16)), 5)


class TestFingerprintOnce:
    """Each learner hashes its kernel configuration once."""

    @pytest.fixture
    def hashes(self, monkeypatch):
        import repro.sim.kernel

        calls = []
        original = repro.sim.kernel.kernel_fingerprint

        def counting(*args, **kwargs):
            calls.append(args[0].name)
            return original(*args, **kwargs)

        monkeypatch.setattr(repro.sim.kernel, "kernel_fingerprint", counting)
        return calls

    def test_runner_task_hashes_its_learner_once(self, hashes, empty_cache):
        wf = montage(25, seed=0)
        fingerprint = ReassignLearner(wf, fleet_for(16)).kernel_fingerprint()
        del hashes[:]
        task = Task(key="fp", fn=_learn_plan, payload=(wf, fleet_for(16)),
                    kernel_fingerprint=fingerprint)
        ParallelRunner(workers=1).run([task])
        # the learner checks the declaration in its ``kernel`` property
        assert len(hashes) == 1
        assert kernel_cache_stats()["builds"] == 1


class TestCliHasNoBatchFlag:
    @pytest.mark.parametrize("command", ["sweep", "ensemble"])
    def test_batch_is_rejected(self, command, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main([command, "--batch", "8"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --batch 8" in capsys.readouterr().err

    def test_sweep_progress_counts_cells(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--vcpus", "16", "--grid", "0.1", "1.0",
                     "--episodes", "1", "--timing", "simulated"]) == 0
        progress = capsys.readouterr().out.split("\n", 1)[0]
        assert progress.split("\r")[-1] == "[8/8] cells complete"
