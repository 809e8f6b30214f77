"""Tests for repro.rl.qtable."""

import copy
import pickle

import pytest

from repro.rl import QTable
from repro.util.rng import RngService
from repro.util.validate import ValidationError


class TestInitialization:
    def test_lazy_random_init(self):
        t = QTable(init_scale=1e-3, seed=1)
        v = t.value("s", ("a", 1))
        assert 0.0 <= v < 1e-3
        # stable on re-read
        assert t.value("s", ("a", 1)) == v

    def test_deterministic_given_seed(self):
        a = QTable(seed=5).value("s", "a")
        b = QTable(seed=5).value("s", "a")
        assert a == b

    def test_zero_scale_inits_zero(self):
        assert QTable(init_scale=0.0).value("s", "a") == 0.0

    def test_negative_scale_rejected(self):
        with pytest.raises(ValidationError):
            QTable(init_scale=-1.0)

    def test_peek_does_not_initialize(self):
        t = QTable()
        assert t.peek("s", "a") is None
        assert len(t) == 0


class TestUpdates:
    def test_set_and_add(self):
        t = QTable(init_scale=0.0)
        t.set("s", "a", 2.0)
        assert t.add("s", "a", 0.5) == 2.5
        assert t.value("s", "a") == 2.5

    def test_max_value(self):
        t = QTable(init_scale=0.0)
        t.set("s", "a", 1.0)
        t.set("s", "b", 3.0)
        assert t.max_value("s", ["a", "b"]) == 3.0

    def test_max_value_empty_actions_is_zero(self):
        # terminal-state convention
        t = QTable(init_scale=0.0)
        assert t.max_value("terminal", []) == 0.0

    def test_best_action(self):
        t = QTable(init_scale=0.0)
        t.set("s", "a", 1.0)
        t.set("s", "b", 3.0)
        assert t.best_action("s", ["a", "b"]) == "b"

    def test_best_action_tie_break_with_rng(self):
        t = QTable(init_scale=0.0)
        t.set("s", "a", 1.0)
        t.set("s", "b", 1.0)
        rng = RngService(0).stream("x")
        picks = {t.best_action("s", ["a", "b"], rng) for _ in range(50)}
        assert picks == {"a", "b"}

    def test_best_action_empty_rejected(self):
        with pytest.raises(ValidationError):
            QTable().best_action("s", [])


class TestPersistence:
    def test_json_round_trip(self):
        t = QTable(init_scale=0.0)
        t.set("available", (3, 8), 1.5)
        t.set("available", (0, 2), -0.5)
        back = QTable.from_json(t.to_json())
        assert back.value("available", (3, 8)) == 1.5
        assert back.value("available", (0, 2)) == -0.5

    def test_tuple_keys_survive(self):
        t = QTable(init_scale=0.0)
        t.set("s", (1, 2), 9.0)
        back = QTable.from_json(t.to_json())
        assert back.peek("s", (1, 2)) == 9.0  # lists decoded back to tuples

    def test_malformed_json(self):
        with pytest.raises(ValidationError):
            QTable.from_json("][")

    @pytest.mark.parametrize("backend", ["array", "dict", "shard"])
    @pytest.mark.parametrize(
        "text, match",
        [
            ("[]", "expected an object"),
            ('{"entries": 5}', "entries must be a list"),
            ('{"entries": [["available"]]}', r"expected \[state, action, value\]"),
            ('{"init_scale": "abc"}', "init_scale must be a number"),
            ('{"init_scale": -1}', "init_scale must be >= 0"),
            ('{"entries": [["available", [0, 1], NaN]]}', "finite number"),
            ('{"entries": [["available", [0, 1], -Infinity]]}', "finite number"),
            ('{"entries": [["available", [0, 1], "1.5"]]}', "finite number"),
            ('{"entries": [[{}, [0, 1], 1.0]]}', "scalar or a list of scalars"),
            ('{"entries": [["s", [[0], 1], 1.0]]}', "scalar or a list of scalars"),
        ],
    )
    def test_bad_input_is_a_validation_error(self, text, match, backend):
        # prior tables come from provenance: reject at the edge
        with pytest.raises(ValidationError, match=match):
            QTable.from_json(text, backend=backend)

    def test_scalar_keys_stay_legal(self):
        back = QTable.from_json(
            '{"entries": [["s", 3, 1.5], [7, [0, 1], -2]], "init_scale": 0}'
        )
        assert back.items() == [("s", 3, 1.5), (7, (0, 1), -2.0)]

    def test_items_sorted(self):
        t = QTable(init_scale=0.0)
        t.set("b", "y", 1.0)
        t.set("a", "x", 2.0)
        items = t.items()
        assert items[0][0] == "a"

    def test_copy_independent(self):
        t = QTable(init_scale=0.0)
        t.set("s", "a", 1.0)
        c = t.copy()
        c.set("s", "a", 5.0)
        assert t.value("s", "a") == 1.0

    @pytest.mark.parametrize("clone", ["pickle", "deepcopy"])
    @pytest.mark.parametrize("backend", ["array", "dict", "shard"])
    def test_pickle_roundtrip_drops_id_memo(self, backend, clone):
        table = QTable(seed=1, backend=backend)
        table.set("s0", (0, 1), 2.0)
        actions = ((0, 1), (2, 3))
        table.best_action("s0", actions)  # warms the id-keyed memo
        if backend != "dict":
            assert table._id_memo
        if clone == "pickle":
            twin = pickle.loads(pickle.dumps(table))
        else:
            twin = copy.deepcopy(table)
        assert twin.to_json() == table.to_json()
        # object ids do not survive the copy, so neither may the memo
        assert twin.__dict__.get("_id_memo", {}) == {}
        # the twin's init stream continues where the original's would
        assert twin.value("sX", (5, 5)) == table.value("sX", (5, 5))
        assert twin.best_action("s0", actions) == table.best_action(
            "s0", actions
        )
