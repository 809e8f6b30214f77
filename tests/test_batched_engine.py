"""Batched learning: bit-identical to the object-path decision loop.

``repro.core.batch.learn_batch`` runs B learning runs one after another
over one shared simulation kernel — pure performance work, so the
contract is byte-equality against the object-path reference
(``tests/reference_learner.py``), which shares no code with the fused
stepper the runs take:

- a Hypothesis property learns random layered DAGs batched and serial
  and demands identical ``LearningResult.to_json()`` and scheduler
  state (``tests/reference_learner.scheduler_state``);
- directed tests sweep the batch width over B ∈ {1, 2, 7, 32}, cover
  ineligible-lane fallbacks (SARSA / Double-Q / bucketed states) mixed
  into one batch, and the sweep fingerprint across worker counts and
  batch sizes;
- ``adopt_kernel``'s safety rails reject double adoption and
  mismatched kernel configurations.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batch import BatchSpec, fast_lane_eligible, learn_batch
from repro.core.reassign import ReassignLearner, ReassignParams
from repro.dag.activation import Activation
from repro.dag.graph import Workflow
from repro.experiments.environments import fleet_for
from repro.util.validate import ValidationError
from repro.workflows.montage import montage

from tests.reference_learner import (
    batch_learners,
    reference_learn,
    scheduler_state,
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
    learner = ReassignLearner(
        spec.workflow,
        spec.vms,
        spec.params,
        seed=spec.seed,
        max_attempts=spec.max_attempts,
        single_slot_learning=spec.single_slot_learning,
        **learner_kw,
    )
    return reference_learn(learner), learner


def _serial(spec: BatchSpec, **learner_kw):
    """The object-path reference for one spec."""
    return _reference(spec, **learner_kw)[0]


def _assert_batch_matches_serial(specs):
    """Batched results and scheduler states equal the reference's."""
    results, learners = batch_learners(specs)
    assert len(results) == len(learners) == len(specs)
    for spec, got, fused in zip(specs, results, learners):
        want, reference = _reference(spec)
        assert _fp(got) == _fp(want)
        assert scheduler_state(fused.scheduler) == scheduler_state(
            reference.scheduler
        )


def _fp(result):
    """Everything in ``to_json()`` except the wall-clock learning time."""
    import json

    data = json.loads(result.to_json())
    data.pop("learning_time", None)
    return data


class TestBatchedVsSerial:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_dags_bitwise_equal(self, seed):
        wf = random_dag(seed)
        specs = [
            _spec(wf, seed, alpha=0.5, epsilon=0.1),
            _spec(wf, seed + 1, alpha=0.9, epsilon=0.5),
            _spec(random_dag(seed + 7), seed, alpha=0.1, epsilon=0.1),
        ]
        _assert_batch_matches_serial(specs)

    @pytest.mark.parametrize("width", [1, 2, 7, 32])
    def test_batch_widths_bitwise_equal(self, width):
        pool = [random_dag(100 + k, n_min=4, n_max=7) for k in range(4)]
        grid = [(0.1, 0.1), (0.5, 0.1), (0.9, 0.5), (1.0, 0.9)]
        specs = [
            _spec(pool[k % 4], seed=k % 3, episodes=2,
                  alpha=grid[k % 4][0], epsilon=grid[k % 4][1])
            for k in range(width)
        ]
        _assert_batch_matches_serial(specs)

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
        _assert_batch_matches_serial(specs)

    def test_simulated_timing_matches_serial_clock(self):
        from repro.core.reassign import SimulatedLearningClock

        wf = montage(25, seed=3)
        spec = _spec(wf, 9)
        batched = learn_batch([spec], timing="simulated")[0]
        serial = _serial(spec, clock=SimulatedLearningClock())
        assert batched.to_json() == serial.to_json()
        assert batched.learning_time == batched.simulated_learning_time

    def test_invalid_timing_rejected(self):
        with pytest.raises(ValidationError, match="timing"):
            learn_batch([_spec(montage(25, seed=0), 0)], timing="cpu")

    def test_empty_batch_is_empty(self):
        assert learn_batch([]) == []


class TestSweepFingerprints:
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

    def test_workers_and_batch_invariant(self):
        def fingerprint(sweep):
            return [
                (r.params, r.learning_time, r.simulated_makespan,
                 r.result.qtable_json, r.result.plan.to_json())
                for r in sweep.records[16]
            ]

        base = fingerprint(self._sweep(workers=1, batch=1))
        assert fingerprint(self._sweep(workers=1, batch=8)) == base
        assert fingerprint(self._sweep(workers=4, batch=8)) == base
        assert fingerprint(self._sweep(workers=4, batch=3)) == base


class TestAdoptKernel:
    def test_adopting_over_a_built_kernel_is_rejected(self):
        wf = montage(25, seed=0)
        donor = ReassignLearner(wf, fleet_for(16))
        recipient = ReassignLearner(wf, fleet_for(16))
        recipient.kernel  # builds
        with pytest.raises(ValidationError, match="already has a kernel"):
            recipient.adopt_kernel(donor.kernel, donor.kernel_fingerprint())

    def test_fingerprint_mismatch_is_rejected(self):
        donor = ReassignLearner(montage(25, seed=0), fleet_for(16))
        other = ReassignLearner(montage(25, seed=0), fleet_for(32))
        with pytest.raises(ValidationError, match="fingerprint mismatch"):
            other.adopt_kernel(donor.kernel, donor.kernel_fingerprint())

    def test_adopted_kernel_is_shared(self):
        wf = montage(25, seed=0)
        donor = ReassignLearner(wf, fleet_for(16))
        recipient = ReassignLearner(wf, fleet_for(16))
        recipient.adopt_kernel(donor.kernel, donor.kernel_fingerprint())
        assert recipient.kernel is donor.kernel


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

    def test_learn_batch_hashes_each_run_once(self, hashes):
        # five runs share one kernel: the first builds it, four adopt it
        specs = [_spec(montage(25, seed=0), seed, episodes=1) for seed in range(5)]
        learn_batch(specs)
        assert len(hashes) == len(specs)

    def test_runner_task_hashes_its_learner_once(self, hashes):
        from repro.runner.parallel import ParallelRunner, Task, clear_kernel_cache

        wf = montage(25, seed=0)
        fingerprint = ReassignLearner(wf, fleet_for(16)).kernel_fingerprint()
        del hashes[:]
        task = Task(key="fp", fn=_learn_member, payload=wf,
                    kernel_fingerprint=fingerprint)
        try:
            ParallelRunner(workers=1).run([task])
        finally:
            clear_kernel_cache()
        assert len(hashes) == 1


def _learn_member(wf, seed):
    # learn_batch inside a task whose kernel fingerprint was declared:
    # the first learner checks the declaration in its ``kernel`` property
    spec = BatchSpec(workflow=wf, vms=fleet_for(16),
                     params=ReassignParams(episodes=1), seed=seed)
    return learn_batch([spec])[0].plan.to_json()


class TestBatchSpecValidation:
    def test_pack_payloads_rejects_zero(self):
        from repro.runner import pack_payloads

        with pytest.raises(ValidationError, match="batch size"):
            pack_payloads([1, 2, 3], 0)

    def test_pack_payloads_chunks_consecutively(self):
        from repro.runner import pack_payloads

        assert pack_payloads([1, 2, 3, 4, 5], 2) == [(1, 2), (3, 4), (5,)]
        assert pack_payloads([], 3) == []


class TestCliBatchFlag:
    def test_batch_zero_is_a_clean_parser_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--batch", "0"])
        assert exc.value.code == 2
        assert "batch must be >= 1" in capsys.readouterr().err

    def test_batch_non_integer_is_a_clean_parser_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["ensemble", "--batch", "many"])
        assert exc.value.code == 2
        assert "batch must be an integer" in capsys.readouterr().err

    def test_help_describes_batched_execution(self, capsys):
        from repro.cli import build_parser

        for command in ("sweep", "ensemble"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--help"])
            out = " ".join(capsys.readouterr().out.split())
            assert "--batch" in out
            assert "share one simulation kernel" in out
            assert "learned one after another" in out
            assert "default 8" in out
            assert "lane" not in out
