"""Unit tests for the parallel experiment runner (repro.runner)."""

import multiprocessing
import os

import pytest

from repro.runner import (
    ParallelRunner,
    RunnerError,
    Task,
    canonical_key,
    resolve_workers,
    task_seed,
)
from repro.runner.parallel import host_cores
from repro.util.validate import ValidationError


def echo(payload, seed):
    """Module-level task fn (picklable) returning its inputs."""
    return (payload, seed)


def failing(payload, seed):
    if payload == "boom":
        raise ValueError("intentional failure")
    return payload


def die_on(payload, seed):
    """Kill the worker process outright on the marked payload."""
    if payload == "die":
        os._exit(1)
    return payload


def slow_square(payload, seed):
    return payload * payload


def tasks_of(n, fn=echo):
    return [Task(key=("t", i), fn=fn, payload=i) for i in range(n)]


def kernel_probe(payload, seed):
    """Build-or-hit a worker-cached kernel; report this process's view.

    ``payload`` is the kernel fingerprint, so tests can use distinct
    cache keys and not see each other's builds.
    """
    from repro.runner.parallel import kernel_cache_stats, shared_kernel

    shared_kernel(payload, object)
    stats = kernel_cache_stats()
    return (os.getpid(), stats["builds"], stats["hits"])


class TestCanonicalKey:
    def test_scalars_and_tuples(self):
        assert canonical_key(("cell", 0.1, 2)) == "(cell,0.1,2)"
        assert canonical_key("x") == "x"
        assert canonical_key(3) == "3"
        assert canonical_key(None) == "None"

    def test_nested(self):
        assert canonical_key((1, (2, 3))) == "(1,(2,3))"

    def test_floats_use_repr(self):
        # 0.1 + 0.2 != 0.3 — distinct floats must get distinct labels
        assert canonical_key(0.1 + 0.2) != canonical_key(0.3)

    def test_rejects_unhashable_types(self):
        with pytest.raises(ValidationError):
            canonical_key({"a": 1})


class TestTaskSeed:
    def test_stable(self):
        assert task_seed(7, "run", ("a", 1)) == task_seed(7, "run", ("a", 1))

    def test_varies_with_every_component(self):
        base = task_seed(7, "run", ("a", 1))
        assert task_seed(8, "run", ("a", 1)) != base
        assert task_seed(7, "other", ("a", 1)) != base
        assert task_seed(7, "run", ("a", 2)) != base

    def test_runner_seed_for_matches(self):
        runner = ParallelRunner(workers=1, run_id="r", seed=5)
        assert runner.seed_for(("k", 3)) == task_seed(5, "r", ("k", 3))


class TestResolveWorkers:
    def test_explicit(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(1) == 1

    def test_zero_means_all_cores(self):
        assert resolve_workers(0) == host_cores()
        assert resolve_workers(-1) == host_cores()

    def test_zero_honours_the_affinity_mask(self, monkeypatch):
        # a container whose cpuset is smaller than the host
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_workers(0) == 1

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        monkeypatch.setenv("REPRO_WORKERS", "6")
        assert resolve_workers(None) == 6


class TestSerialRunner:
    def test_ordered_results(self):
        runner = ParallelRunner(workers=1, run_id="s", seed=0)
        results = runner.run(tasks_of(8))
        assert [r.index for r in results] == list(range(8))
        assert [r.value[0] for r in results] == list(range(8))
        assert all(r.ok for r in results)
        assert all(r.duration >= 0.0 for r in results)

    def test_derived_seeds_recorded(self):
        runner = ParallelRunner(workers=1, run_id="s", seed=0)
        results = runner.run(tasks_of(4))
        for r in results:
            assert r.seed == runner.seed_for(r.key)
        assert len({r.seed for r in results}) == 4  # distinct per key

    def test_explicit_seed_wins(self):
        runner = ParallelRunner(workers=1, run_id="s", seed=0)
        [r] = runner.run([Task(key="k", fn=echo, payload=1, seed=42)])
        assert r.seed == 42
        assert r.value == (1, 42)

    def test_duplicate_keys_rejected(self):
        runner = ParallelRunner(workers=1)
        with pytest.raises(ValidationError, match="duplicate"):
            runner.run([Task(key="k", fn=echo), Task(key="k", fn=echo)])

    def test_empty_batch(self):
        assert ParallelRunner(workers=1).run([]) == []

    def test_failure_capture(self):
        runner = ParallelRunner(workers=1)
        tasks = [
            Task(key="ok", fn=failing, payload="fine"),
            Task(key="bad", fn=failing, payload="boom"),
        ]
        with pytest.raises(RunnerError, match="1 task"):
            runner.run(tasks)
        results = runner.run(tasks, raise_on_error=False)
        assert results[0].ok and results[0].value == "fine"
        assert not results[1].ok
        assert "intentional failure" in results[1].error

    def test_progress_callback(self):
        calls = []
        runner = ParallelRunner(
            workers=1, progress=lambda d, t, r: calls.append((d, t, r.key))
        )
        runner.run(tasks_of(5))
        assert [c[0] for c in calls] == [1, 2, 3, 4, 5]
        assert all(c[1] == 5 for c in calls)

    def test_map_values(self):
        runner = ParallelRunner(workers=1)
        assert runner.map_values(slow_square, [1, 2, 3]) == [1, 4, 9]


class TestPoolRunner:
    def test_matches_serial_bitwise(self):
        tasks = tasks_of(12)
        serial = ParallelRunner(workers=1, run_id="p", seed=3).run(tasks)
        pooled = ParallelRunner(workers=3, run_id="p", seed=3).run(tasks)
        assert [(r.key, r.index, r.value, r.seed) for r in serial] == [
            (r.key, r.index, r.value, r.seed) for r in pooled
        ]

    def test_chunked_imap_preserves_order(self):
        tasks = tasks_of(11)
        runner = ParallelRunner(workers=2, chunk_size=3, run_id="p", seed=0)
        streamed = list(runner.imap(tasks))
        assert [r.index for r in streamed] == list(range(11))

    def test_pool_failure_capture(self):
        runner = ParallelRunner(workers=2)
        tasks = [Task(key=i, fn=failing, payload=i) for i in range(3)]
        tasks.append(Task(key="bad", fn=failing, payload="boom"))
        results = runner.run(tasks, raise_on_error=False)
        assert [r.ok for r in results] == [True, True, True, False]
        assert "ValueError" in results[-1].error

    def test_pool_progress_counts(self):
        calls = []
        runner = ParallelRunner(
            workers=2, progress=lambda d, t, r: calls.append(d)
        )
        runner.run(tasks_of(6))
        assert sorted(calls) == [1, 2, 3, 4, 5, 6]

    def test_worker_pids_differ_from_parent(self):
        runner = ParallelRunner(workers=2)
        results = runner.run(tasks_of(4))
        assert any(r.worker != os.getpid() for r in results)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_killed_worker_fails_tasks_by_key(self):
        """A worker that dies mid-run fails its tasks as TaskResults
        naming their keys, instead of a bare BrokenProcessPool.  Which
        other tasks finished first depends on timing, so only the killed
        task's failure and the correctness of every result that did come
        back are pinned."""
        tasks = [Task(key=i, fn=die_on, payload=i) for i in range(8)]
        tasks[2] = Task(key="killed", fn=die_on, payload="die")
        runner = ParallelRunner(workers=2, mp_context="fork")
        with pytest.raises(RunnerError) as info:
            runner.run(tasks)
        assert "killed" in {f.key for f in info.value.failures}

        results = runner.run(tasks, raise_on_error=False)
        assert [r.index for r in results] == list(range(8))
        assert not results[2].ok
        assert "worker process died" in results[2].error
        for task, result in zip(tasks, results):
            if result.ok:
                assert result.value == task.payload

    def test_chunk_size_validation(self):
        with pytest.raises(ValidationError):
            ParallelRunner(workers=1, chunk_size=0)

    def test_ephemeral_pool_forgets_between_runs(self):
        """Each run starts fresh workers, so each run rebuilds.

        (``workers=1`` is the in-process serial path, where the
        parent's cache trivially survives — the contrast needs a real
        throwaway pool.)
        """
        fp = "pool-probe-forget"
        runner = ParallelRunner(workers=2, run_id="pe", seed=0)
        first = runner.run(
            [Task(key="k0", fn=kernel_probe, payload=fp)]
        )[0].value
        second = runner.run(
            [Task(key="k1", fn=kernel_probe, payload=fp)]
        )[0].value
        # both runs start workers from the same parent image: identical
        # counters, no accumulated hits
        assert first[1:] == second[1:]
