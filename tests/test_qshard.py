"""Shard-backend equivalence suite: array == shard, bitwise.

The sharded dense Q-storage (``backend="shard"``, optionally
``numpy.memmap``-backed) is pure storage work — PR-level contract:
**no float ever differs** from the monolithic ``array`` backend.
Evidence:

- a Hypothesis property drives both backends through the same random
  interleaving of scalar ops, batched reductions, and full persist
  round-trips (``save_shards``/``load_shards`` vs ``to_json``/
  ``from_json``) and demands identical returns plus byte-identical
  ``to_json()`` at every persist point and at the end;
- a full learning run must match across backends on the Q-table JSON,
  every per-episode record, and the emitted plan — memmap-backed too;
- directed tests pin the shard geometry (append-only row growth, view
  stability), the canonical manifest format, and its failure modes.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.reassign import ReassignLearner, ReassignParams
from repro.experiments.environments import fleet_for
from repro.rl import QTable
from repro.rl.qshard import MANIFEST_NAME, ShardStore
from repro.util.rng import RngService
from repro.util.validate import ValidationError
from repro.workflows.montage import montage

from tests.reference_learner import reference_learn

# (op, state index, action index, value) — indices keep the key space
# small enough that interleavings collide on rows and shard boundaries.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["value", "add", "set", "max_value", "best_action",
             "persist"]
        ),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=6),
        st.floats(min_value=-8.0, max_value=8.0,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=60,
)


def _apply(table, rng, op, state_idx, action_idx, value):
    state = f"s{state_idx}"
    action = (action_idx, action_idx + 1)
    actions = [(k, k + 1) for k in range(action_idx + 1)]
    if op == "value":
        return table.value(state, action)
    if op == "add":
        return table.add(state, action, value)
    if op == "set":
        table.set(state, action, value)
        return None
    if op == "max_value":
        return table.max_value(state, actions)
    return table.best_action(state, actions, rng)


class TestShardBackendEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1), ops=_OPS)
    def test_interleaved_ops_and_persistence_bit_identical(self, seed, ops):
        # 3 rows per shard so ten states span four shards
        shard = QTable(init_scale=1e-3, seed=seed, backend="shard",
                       shard_rows=3)
        array = QTable(init_scale=1e-3, seed=seed, backend="array")
        rng_s = RngService(seed).stream("tie")
        rng_a = RngService(seed).stream("tie")
        n_persists = 0
        with tempfile.TemporaryDirectory() as tmp:
            for op, state_idx, action_idx, value in ops:
                if op == "persist":
                    # full round trip for BOTH tables: each restored
                    # table re-derives the same fresh init stream, so
                    # the interleaving continues in lockstep
                    n_persists += 1
                    fresh = seed + n_persists
                    shard.save_shards(Path(tmp) / f"p{n_persists}")
                    shard = QTable.load_shards(
                        Path(tmp) / f"p{n_persists}", seed=fresh
                    )
                    array = QTable.from_json(
                        array.to_json(), seed=fresh, backend="array"
                    )
                    assert shard.to_json() == array.to_json()
                    continue
                got_s = _apply(shard, rng_s, op, state_idx, action_idx, value)
                got_a = _apply(array, rng_a, op, state_idx, action_idx, value)
                assert got_s == got_a, (op, state_idx, action_idx, value)
        assert shard.items() == array.items()
        assert shard.to_json() == array.to_json()
        assert len(shard) == len(array)

    def test_learning_run_bit_identical(self):
        # both backends run the fused stepper: pin each to the
        # object-path reference
        base = reference_learn(ReassignLearner(
            montage(25, seed=1), fleet_for(16),
            ReassignParams(episodes=4), seed=7,
        ))
        for backend in ("array", "shard"):
            params = ReassignParams(episodes=4, qtable_backend=backend)
            got = ReassignLearner(
                montage(25, seed=1), fleet_for(16), params, seed=7
            ).learn()
            assert got.qtable_json == base.qtable_json
            assert [e.to_dict() for e in got.episodes] == [
                e.to_dict() for e in base.episodes
            ]
            assert got.plan.to_json() == base.plan.to_json()

    def test_memmap_backed_table_bit_identical(self, tmp_path):
        mm = QTable(init_scale=1e-3, seed=4, backend="shard",
                    shard_rows=2, shard_dir=tmp_path / "mm")
        ram = QTable(init_scale=1e-3, seed=4, backend="array")
        rng_m = RngService(4).stream("tie")
        rng_r = RngService(4).stream("tie")
        actions = [(k, k + 1) for k in range(5)]
        for i in range(9):
            state = f"s{i % 5}"
            assert mm.add(state, actions[i % 5], 0.5 * i) == ram.add(
                state, actions[i % 5], 0.5 * i
            )
            assert mm.best_action(state, actions, rng_m) == ram.best_action(
                state, actions, rng_r
            )
        assert mm.stats()["memmapped"] is True
        assert mm.to_json() == ram.to_json()


class TestShardStoreGeometry:
    def test_row_growth_is_append_only(self):
        store = ShardStore(shard_rows=4)
        store.ensure_rows(1)
        store.ensure_cols(3)
        row = store.q_row(2)
        row[1] = 5.0
        store.ensure_rows(40)  # appends shards, never copies
        assert store.n_shards == 10
        assert store.q_row(2)[1] == 5.0
        assert store.rows == 40

    def test_column_growth_preserves_values(self):
        store = ShardStore(shard_rows=2)
        store.ensure_rows(5)
        store.q_row(4)[0] = 2.5
        store.known_row(4)[0] = True
        store.ensure_cols(100)
        assert store.cols >= 100
        assert store.q_row(4)[0] == 2.5
        assert bool(store.known_row(4)[0])

    def test_invalid_shard_rows(self):
        with pytest.raises(ValidationError, match="shard_rows"):
            ShardStore(shard_rows=0)

    def test_memmap_backing(self, tmp_path):
        store = ShardStore(shard_rows=2, directory=tmp_path / "mm")
        store.ensure_rows(3)
        assert store.memmapped
        assert (tmp_path / "mm" / "shard-00000.dat").exists()
        store.q_row(2)[0] = 1.25
        assert store.q_row(2)[0] == 1.25


class TestShardManifest:
    def _saved(self, tmp_path):
        table = QTable(init_scale=1e-3, seed=5, backend="shard",
                       shard_rows=2)
        for i in range(5):
            table.set(f"s{i}", (i, i + 1), float(i))
        manifest_path = table.save_shards(tmp_path / "save")
        return table, manifest_path

    def test_manifest_is_canonical_json(self, tmp_path):
        table, manifest_path = self._saved(tmp_path)
        assert manifest_path.name == MANIFEST_NAME
        text = manifest_path.read_text(encoding="utf-8")
        data = json.loads(text)
        assert data["format"] == "qtable-shard-v1"
        assert data["n_states"] == 5
        assert len(data["shards"]) == 3  # ceil(5 / 2) shards written
        # canonical: sorted keys, trailing newline
        assert text == json.dumps(data, indent=1, sort_keys=True) + "\n"

    def test_round_trip_restores_intern_order(self, tmp_path):
        table, _ = self._saved(tmp_path)
        back = QTable.load_shards(tmp_path / "save", seed=5)
        assert back.to_json() == table.to_json()
        assert back.stats()["n_states"] == table.stats()["n_states"]
        assert len(back) == len(table)

    def test_missing_manifest_is_a_validation_error(self, tmp_path):
        with pytest.raises(ValidationError, match="manifest"):
            QTable.load_shards(tmp_path / "nope")

    def test_unsupported_format_is_rejected(self, tmp_path):
        target = tmp_path / "bad"
        target.mkdir()
        (target / MANIFEST_NAME).write_text(
            json.dumps({"format": "qtable-shard-v999"}), encoding="utf-8"
        )
        with pytest.raises(ValidationError, match="unsupported"):
            QTable.load_shards(target)

    def test_save_shards_requires_shard_backend(self, tmp_path):
        with pytest.raises(ValidationError, match="shard"):
            QTable(backend="array").save_shards(tmp_path)


class TestBackendValidationAndStats:
    def test_unknown_backend_lists_allowed_sorted(self):
        with pytest.raises(
            ValidationError,
            match=r"backend must be one of 'array', 'dict', 'shard', "
                  r"got 'rocksdb'",
        ):
            QTable(backend="rocksdb")

    def test_shard_dir_requires_shard_backend(self, tmp_path):
        with pytest.raises(ValidationError, match="shard_dir"):
            QTable(backend="array", shard_dir=tmp_path)

    def test_stats_counts_and_bytes(self):
        table = QTable(backend="array")
        table.set("s0", (0, 1), 1.0)
        table.set("s0", (1, 2), 2.0)
        table.set("s1", (0, 1), 3.0)
        stats = table.stats()
        assert stats["backend"] == "array"
        assert stats["n_states"] == 2
        assert stats["n_actions"] == 2
        assert stats["n_known"] == 3
        assert stats["nbytes"] > 0

    def test_stats_shard_geometry(self):
        table = QTable(backend="shard", shard_rows=2)
        for i in range(5):
            table.set(f"s{i}", (0, 1), float(i))
        stats = table.stats()
        assert stats["backend"] == "shard"
        assert stats["n_shards"] == 3
        assert stats["shard_rows"] == 2
        assert stats["memmapped"] is False
        assert stats["nbytes"] > 0

    def test_stats_dict_backend_has_no_dense_bytes(self):
        table = QTable(backend="dict")
        table.set("s", (0, 1), 1.0)
        assert table.stats()["nbytes"] is None
