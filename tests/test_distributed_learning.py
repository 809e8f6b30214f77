"""Distributed actor/learner engine: bit-identical to serial learning.

``repro.core.distributed.learn_distributed`` runs speculative rollout
actors against versioned Q-table snapshots and replays their decision
traces through one ordered learner — pure performance work, so the
PR-level contract is byte-equality against the object-path reference
(``tests/reference_learner.py``: the scheduler-object episode loop,
written independently of the fused stepper the engine runs) at **any**
actor count:

- directed tests sweep actor counts over N ∈ {1, 2, 4, 7} in inline
  mode, the full (N, B) ∈ {1, 2, 4} × {1, 2, 8} actor × wave-chunk
  grid, and N ∈ {2, 3} through the real process pool (batched and
  not);
- the generic (non-fused) replay path is covered for SARSA, Double-Q,
  bucketed states and the dict backend, and the fused path for the
  array and shard backends;
- failures + retries, ``validate_exact`` auditing and the stats
  side-channel each get a test;
- a Hypothesis property learns random layered DAGs distributed and
  serial and demands identical ``LearningResult.to_json()``;
- the versioned-snapshot primitives the engine rides on
  (``QTable.snapshot``/``restore``/``version``/pickling) are pinned
  directly, including init-stream fidelity across a restore, and the
  delta-snapshot transport (``snapshot(since=...)`` + patch-in-place
  restore) gets golden round-trip vectors — including the shard
  backend with memmap spill — plus a Hypothesis property demanding
  ``restore(full)`` ≡ ``restore(base) + patch(delta)``.

Everything runs ``timing="simulated"`` so the learning time is the
deterministic simulated clock and ``to_json()`` equality is exact.
"""

import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distributed import host_cores, learn_distributed
from repro.core.reassign import (
    ReassignLearner,
    ReassignParams,
    SimulatedLearningClock,
)
from repro.experiments.environments import fleet_for
from repro.rl import QTable
from repro.sim.failures import BernoulliFailures
from repro.util.validate import ValidationError
from repro.workflows.montage import montage

from tests.reference_learner import reference_learn
from tests.test_batched_engine import random_dag


def _serial(wf, fleet, params, seed=0, **kw):
    """The reference: the object-path learner on the simulated clock."""
    return reference_learn(ReassignLearner(
        wf, fleet, params, seed=seed, clock=SimulatedLearningClock(), **kw
    ))


def _distributed(wf, fleet, params, seed=0, learner_kw=None, **kw):
    kw.setdefault("timing", "simulated")
    return learn_distributed(
        wf, fleet, params, seed=seed, **(learner_kw or {}), **kw
    )


def _params(**kw):
    kw.setdefault("alpha", 0.5)
    kw.setdefault("gamma", 1.0)
    kw.setdefault("epsilon", 0.1)
    kw.setdefault("episodes", 8)
    return ReassignParams(**kw)


class TestDistributedVsSerial:
    @pytest.mark.parametrize("n_actors", [1, 2, 4, 7])
    def test_actor_counts_bitwise_identical(self, n_actors):
        wf = montage(20, seed=1)
        fleet = fleet_for(16)
        params = _params(episodes=10)
        expected = _serial(wf, fleet, params, seed=7).to_json()
        stats = {}
        got = _distributed(
            wf, fleet, params, seed=7, n_actors=n_actors, mode="inline",
            stats_out=stats,
        )
        assert got.to_json() == expected
        assert stats["n_actors"] == n_actors
        assert stats["episodes"] == 10

    @pytest.mark.parametrize("batch", [1, 2, 8])
    @pytest.mark.parametrize("n_actors", [1, 2, 4])
    def test_actor_batch_grid_bitwise_identical(self, n_actors, batch):
        """The full (N, B) wave-geometry grid, inline engine."""
        wf = montage(20, seed=1)
        fleet = fleet_for(16)
        params = _params(episodes=10)
        expected = _serial(wf, fleet, params, seed=7).to_json()
        stats = {}
        got = _distributed(
            wf, fleet, params, seed=7, n_actors=n_actors, batch=batch,
            mode="inline", stats_out=stats,
        )
        assert got.to_json() == expected
        assert stats["batch"] == batch

    @pytest.mark.parametrize("batch", [1, 2, 8])
    @pytest.mark.parametrize("n_actors", [1, 2, 4])
    def test_actor_batch_grid_validate_exact(self, n_actors, batch):
        """Same grid through the audited speculation machinery."""
        wf = montage(15, seed=1)
        fleet = fleet_for(16)
        params = _params(episodes=9)
        expected = _serial(wf, fleet, params, seed=4).to_json()
        got = _distributed(
            wf, fleet, params, seed=4, n_actors=n_actors, batch=batch,
            mode="inline", validate_exact=True,
        )
        assert got.to_json() == expected

    @pytest.mark.parametrize("n_actors", [2, 3])
    def test_pool_mode_bitwise_identical(self, n_actors):
        wf = montage(15, seed=1)
        fleet = fleet_for(16)
        params = _params(episodes=6)
        expected = _serial(wf, fleet, params, seed=3).to_json()
        stats = {}
        got = _distributed(
            wf, fleet, params, seed=3, n_actors=n_actors, mode="pool",
            stats_out=stats,
        )
        assert got.to_json() == expected
        assert stats["mode"] == "pool"

    @pytest.mark.parametrize("batch", [2, 8])
    def test_pool_mode_batched_bitwise_identical(self, batch):
        """Chunked waves through the real process pool (delta bases)."""
        wf = montage(15, seed=1)
        fleet = fleet_for(16)
        params = _params(episodes=6)
        expected = _serial(wf, fleet, params, seed=3).to_json()
        got = _distributed(
            wf, fleet, params, seed=3, n_actors=2, batch=batch,
            mode="pool",
        )
        assert got.to_json() == expected

    @pytest.mark.parametrize(
        "extra",
        [
            {"rule": "sarsa"},
            {"rule": "doubleq"},
            {"state_buckets": 3},
            {"qtable_backend": "dict"},
        ],
        ids=["sarsa", "doubleq", "buckets", "dict-backend"],
    )
    def test_generic_replay_paths_bitwise_identical(self, extra):
        wf = montage(15, seed=2)
        fleet = fleet_for(16)
        params = _params(episodes=6, **extra)
        expected = _serial(wf, fleet, params, seed=5).to_json()
        got = _distributed(
            wf, fleet, params, seed=5, n_actors=2, mode="inline"
        )
        assert got.to_json() == expected

    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("mode", ["inline", "pool"])
    def test_shard_backend_bitwise_identical(self, mode, batch):
        wf = montage(15, seed=2)
        fleet = fleet_for(16)
        params = _params(episodes=5, qtable_backend="shard")
        expected = _serial(wf, fleet, params, seed=5).to_json()
        got = _distributed(
            wf, fleet, params, seed=5, n_actors=2, batch=batch, mode=mode
        )
        assert got.to_json() == expected

    @pytest.mark.parametrize("batch", [1, 3])
    def test_failures_and_retries_bitwise_identical(self, batch):
        wf = montage(15, seed=3)
        fleet = fleet_for(16)
        params = _params(episodes=6)
        failures = BernoulliFailures(0.05)
        expected = _serial(
            wf, fleet, params, seed=11, failures=failures, max_attempts=2
        ).to_json()
        got = _distributed(
            wf, fleet, params, seed=11, n_actors=3, batch=batch,
            mode="inline", failures=failures, max_attempts=2,
        )
        assert got.to_json() == expected

    def test_validate_exact_audits_and_matches(self):
        wf = montage(15, seed=1)
        fleet = fleet_for(16)
        params = _params(episodes=6)
        expected = _serial(wf, fleet, params, seed=3).to_json()
        stats = {}
        got = _distributed(
            wf, fleet, params, seed=3, n_actors=2, mode="inline",
            validate_exact=True, stats_out=stats,
        )
        assert got.to_json() == expected
        # with auditing on, even exact-base episodes go through replay,
        # so nothing is adopted wholesale
        assert stats["exact_commits"] + stats["resims"] == stats["episodes"]

    def test_validate_exact_exercises_inline_speculation(self):
        """validate_exact keeps the AIMD width alive inline.

        Plain inline mode pins the wave width to 1 (speculation can
        never pay without overlap), so this audit mode is what
        exercises the speculative dispatch + throttle machinery
        in-process: the width starts at n_actors and the controller
        adapts it, while results stay bit-identical.
        """
        wf = montage(20, seed=1)
        fleet = fleet_for(16)
        params = _params(episodes=12)
        expected = _serial(wf, fleet, params, seed=9).to_json()
        stats = {}
        got = _distributed(
            wf, fleet, params, seed=9, n_actors=4, mode="inline",
            validate_exact=True, stats_out=stats,
        )
        assert got.to_json() == expected
        # speculation actually happened: beyond-head episodes were
        # dispatched, so the hit-rate is a measured number, not None
        assert stats["speculative_hits"] + stats["speculative_misses"] > 0
        assert stats["speculative_hit_rate"] is not None
        assert 1 <= stats["final_width"] <= 4

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        batch=st.sampled_from([1, 2, 5]),
    )
    def test_random_dags_bitwise_identical(self, seed, batch):
        wf = random_dag(seed, n_min=4, n_max=8)
        fleet = fleet_for(16)
        params = _params(episodes=3, alpha=0.5, epsilon=0.3)
        expected = _serial(wf, fleet, params, seed=seed).to_json()
        got = _distributed(
            wf, fleet, params, seed=seed, n_actors=3, batch=batch,
            mode="inline",
        )
        assert got.to_json() == expected


class TestStatsAndValidation:
    def test_stats_out_schema(self):
        wf = montage(15, seed=1)
        stats = {}
        _distributed(
            wf, fleet_for(16), _params(episodes=5), seed=1, n_actors=2,
            mode="inline", stats_out=stats,
        )
        for key in (
            "n_actors", "mode", "episodes", "waves", "exact_commits",
            "speculative_hits", "speculative_misses", "resims",
            "speculative_hit_rate", "final_width", "host_cores",
        ):
            assert key in stats, key
        assert stats["mode"] == "inline"
        assert stats["waves"] >= 1
        assert (
            stats["exact_commits"]
            + stats["speculative_hits"]
            + stats["resims"]
            == stats["episodes"]
        )
        assert stats["resims"] == stats["speculative_misses"]
        rate = stats["speculative_hit_rate"]
        assert rate is None or 0.0 <= rate <= 1.0
        assert stats["host_cores"] == host_cores()

    def test_auto_mode_resolves(self):
        wf = montage(15, seed=1)
        stats = {}
        _distributed(
            wf, fleet_for(16), _params(episodes=2), seed=1, n_actors=2,
            mode="auto", stats_out=stats,
        )
        assert stats["mode"] in ("inline", "pool")
        if host_cores() == 1:
            assert stats["mode"] == "inline"

    def test_rejects_bad_arguments(self):
        wf = montage(15, seed=1)
        fleet = fleet_for(16)
        params = _params(episodes=1)
        with pytest.raises(ValidationError):
            learn_distributed(wf, fleet, params, n_actors=0)
        with pytest.raises(ValidationError):
            learn_distributed(wf, fleet, params, n_actors=2, mode="bogus")
        with pytest.raises(ValidationError):
            learn_distributed(wf, fleet, params, n_actors=2, timing="bogus")

    def test_wall_timing_runs(self):
        wf = montage(15, seed=1)
        result = learn_distributed(
            wf, fleet_for(16), _params(episodes=2), seed=1, n_actors=2,
            mode="inline", timing="wall",
        )
        assert result.n_episodes == 2
        assert result.learning_time >= 0.0


class TestQTableSnapshots:
    @pytest.mark.parametrize("backend", ["array", "shard", "dict"])
    def test_snapshot_restore_roundtrip(self, backend):
        table = QTable(seed=3, backend=backend)
        table.set("s0", (0, 1), 1.5)
        table.set("s1", (2, 0), -0.5)
        snap = table.snapshot()
        before = table.to_json()
        table.set("s0", (0, 1), 99.0)
        table.set("s2", (1, 1), 7.0)
        table.bump_version()
        assert table.to_json() != before
        table.restore(snap)
        assert table.to_json() == before
        assert table.version == snap.version

    def test_version_counter_is_explicit(self):
        table = QTable(seed=0)
        assert table.version == 0
        table.set("s", (0, 0), 1.0)
        assert table.version == 0  # writes do not bump
        assert table.bump_version() == 1
        assert table.version == 1

    def test_restore_reenters_version_era(self):
        table = QTable(seed=0)
        table.bump_version()
        snap = table.snapshot()
        table.bump_version()
        table.bump_version()
        assert table.version == 3
        table.restore(snap)
        assert table.version == 1

    def test_restore_rejects_backend_mismatch(self):
        array = QTable(seed=0, backend="array")
        other = QTable(seed=0, backend="dict")
        with pytest.raises(ValidationError):
            array.restore(other.snapshot())

    def test_snapshot_preserves_init_stream(self):
        """Restored tables draw identical first-touch init values."""
        table = QTable(seed=9, init_scale=1e-3)
        table.value("s0", (0, 0))  # consume some of the init stream
        snap = table.snapshot()
        expected = [table.value(f"s{i}", (i, 0)) for i in range(1, 5)]
        table.restore(snap)
        got = [table.value(f"s{i}", (i, 0)) for i in range(1, 5)]
        assert got == expected

    @pytest.mark.parametrize("backend", ["array", "shard"])
    def test_pickle_roundtrip_drops_id_memo(self, backend):
        table = QTable(seed=1, backend=backend)
        table.set("s0", (0, 1), 2.0)
        table.bump_version()
        clone = pickle.loads(pickle.dumps(table))
        assert clone.to_json() == table.to_json()
        assert clone.version == table.version
        assert clone._id_memo == {}
        # the clone's init stream continues where the original's would
        assert clone.value("sX", (5, 5)) == table.value("sX", (5, 5))


class TestDeltaSnapshots:
    """``snapshot(since=K)`` + patch-in-place ``restore``.

    The transport the pool-mode engine ships wave bases and post-chunk
    states over: only rows whose write-era is >= K travel, and a patch
    only applies to a table sitting exactly at version K.
    """

    @staticmethod
    def _seeded(backend, **kw):
        """A table with two version eras of hand-pinned writes."""
        table = QTable(seed=13, init_scale=0.0, backend=backend, **kw)
        table.set("s0", (0, 1), 1.25)
        table.set("s1", (1, 0), -2.5)
        table.set("s2", (0, 0), 0.75)
        table.bump_version()
        return table

    @staticmethod
    def _advance(table):
        """Era-2 writes: one row updated, one row brand new."""
        table.set("s1", (1, 0), 4.5)
        table.set("s3", (2, 1), 9.0)
        table.bump_version()

    @pytest.mark.parametrize("backend", ["array", "shard"])
    def test_golden_roundtrip_vectors(self, backend):
        table = self._seeded(backend)
        base = table.snapshot()
        self._advance(table)
        full = table.snapshot()
        delta = table.snapshot(since=base.version)
        assert delta.base_version == base.version == 1
        assert full.base_version is None

        via_full = QTable(seed=13, init_scale=0.0, backend=backend)
        via_full.restore(full)
        via_patch = QTable(seed=13, init_scale=0.0, backend=backend)
        via_patch.restore(base)
        via_patch.restore(delta)
        assert via_patch.to_json() == via_full.to_json() == table.to_json()
        assert via_patch.version == table.version == 2
        # the hand-pinned vectors survive the patch byte for byte
        assert via_patch.value("s0", (0, 1)) == 1.25
        assert via_patch.value("s1", (1, 0)) == 4.5
        assert via_patch.value("s2", (0, 0)) == 0.75
        assert via_patch.value("s3", (2, 1)) == 9.0

    def test_golden_roundtrip_shard_memmap_spill(self, tmp_path):
        """Same vectors with 2-row shards spilled to numpy.memmap."""
        table = self._seeded(
            "shard", shard_rows=2, shard_dir=tmp_path / "shards"
        )
        base = table.snapshot()
        self._advance(table)
        expected = table.to_json()
        delta = table.snapshot(since=base.version)

        clone = QTable(
            seed=13, init_scale=0.0, backend="shard", shard_rows=2,
            shard_dir=tmp_path / "clone-shards",
        )
        clone.restore(base)
        clone.restore(delta)
        assert clone.to_json() == expected
        assert clone.value("s1", (1, 0)) == 4.5
        assert clone.value("s3", (2, 1)) == 9.0
        # the source table's spill actually happened (a full restore
        # rehydrates the clone's store in memory — snapshot payloads
        # are plain arrays — so only the source side stays mapped)
        assert table._store.memmapped

    def test_delta_ships_only_touched_rows(self):
        table = self._seeded("array")
        self._advance(table)
        delta = table.snapshot(since=1)
        rows = delta.payload[0]
        # era-2 touched s1 (id 1) and s3 (id 3); s0/s2 stay home
        assert list(rows) == [1, 3]

    def test_patch_refuses_wrong_base(self):
        table = self._seeded("array")
        self._advance(table)
        delta = table.snapshot(since=2)
        fresh = QTable(seed=13, init_scale=0.0, backend="array")
        with pytest.raises(ValidationError):
            fresh.restore(delta)  # fresh is at version 0, not 2

    def test_since_validates_range(self):
        table = self._seeded("array")
        with pytest.raises(ValidationError):
            table.snapshot(since=-1)
        with pytest.raises(ValidationError):
            table.snapshot(since=table.version + 1)

    def test_dict_backend_falls_back_to_full(self):
        table = QTable(seed=2, backend="dict")
        table.set("s", (0, 0), 3.0)
        table.bump_version()
        snap = table.snapshot(since=1)
        assert snap.base_version is None  # a full snapshot
        fresh = QTable(seed=2, backend="dict")
        fresh.restore(snap)
        assert fresh.to_json() == table.to_json()

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        backend=st.sampled_from(["array", "shard"]),
    )
    def test_restore_full_equals_base_plus_patch(self, data, backend):
        """restore(full) ≡ restore(base) + patch(delta), any history."""
        write = st.tuples(
            st.integers(min_value=0, max_value=5),   # state index
            st.integers(min_value=0, max_value=3),   # action index
            st.floats(
                min_value=-10, max_value=10,
                allow_nan=False, allow_subnormal=False,
            ),
        )
        era1 = data.draw(st.lists(write, max_size=8), label="era1")
        era2 = data.draw(st.lists(write, max_size=8), label="era2")
        actions = [(a, a + 1) for a in range(4)]

        table = QTable(seed=5, init_scale=1e-3, backend=backend)
        for s, a, v in era1:
            table.set(f"s{s}", actions[a], v)
        table.bump_version()
        base = table.snapshot()
        for s, a, v in era2:
            table.set(f"s{s}", actions[a], v)
        table.bump_version()
        full = table.snapshot()
        delta = table.snapshot(since=base.version)

        via_full = QTable(seed=5, init_scale=1e-3, backend=backend)
        via_full.restore(full)
        via_patch = QTable(seed=5, init_scale=1e-3, backend=backend)
        via_patch.restore(base)
        via_patch.restore(delta)
        assert via_patch.to_json() == via_full.to_json()
        assert via_patch.version == via_full.version
        # the init stream continues identically after either route
        assert via_patch.value("sX", (9, 9)) == via_full.value("sX", (9, 9))


def test_stats_are_json_serializable():
    wf = montage(15, seed=1)
    stats = {}
    _distributed(
        wf, fleet_for(16), _params(episodes=3), seed=2, n_actors=2,
        mode="inline", stats_out=stats,
    )
    json.dumps(stats)  # must not raise
