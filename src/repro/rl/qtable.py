"""Tabular action-value storage.

The paper's evaluation table "Q: S x A" maps (workflow state, schedule
action) to a value.  :class:`QTable` stores that table behind one of
three interchangeable backends:

- ``backend="array"`` (the default) interns states and actions to
  contiguous integer ids and keeps the Q-values in a growable dense
  ``numpy`` array with an explicit lazy-init mask.  ``max_value`` /
  ``best_action`` become masked vector reductions over precomputed
  action-id slices, which is what makes the ReASSIgN decision loop fast
  (see ``docs/performance.md``).
- ``backend="shard"`` keeps the same interned dense layout but
  partitions the state-id axis into fixed-size numpy shards
  (:mod:`repro.rl.qshard`): state-axis growth appends shards instead of
  copying the whole table, shards can be ``numpy.memmap``-backed, and
  the table saves/loads shard-by-shard via a canonical-JSON manifest
  (:meth:`QTable.save_shards` / :meth:`QTable.load_shards`).
- ``backend="dict"`` is the legacy sparse dict-backed table, kept as an
  escape hatch and as the reference the equivalence suite compares the
  dense backends against.

Both backends are **bit-identical**: unseen entries are initialized *at
random* on first touch — "Start Q(s, a) for all s, a at random"
(Algorithm 1) — from a dedicated stream, and the array backend draws in
exactly the same first-touch order as the dict backend, so every float,
every tie-break and the serialized JSON agree byte for byte.  States and
actions may be any hashable, JSON-encodable values; ReASSIgN uses string
states and ``(activation_id, vm_id)`` tuples.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.rl.qshard import DEFAULT_SHARD_ROWS, ShardStore
from repro.util.rng import RngService
from repro.util.validate import ValidationError, check_non_negative

__all__ = ["QTable"]

State = Hashable
Action = Hashable

#: Backends accepted by :class:`QTable`.
_BACKENDS = ("array", "dict", "shard")

#: Action-id slices memoized per actions-tuple identity (see
#: ``QTable._action_slice``).  Sized to cover the working set of
#: interned cross-product tuples a learning run cycles through
#: (``EpisodeState.action_pairs`` hands out ~one distinct tuple per
#: (ready, idle) configuration, a few thousand per run on mid-size
#: workflows); each entry is just an id array plus an ensured-state
#: set, so memory stays negligible.
_ID_MEMO_LIMIT = 4096

#: Below this many actions the batched reductions use a plain Python
#: loop over the dense row instead of a numpy reduction: the median
#: ReASSIgN action set is ~3 pairs, where interpreter arithmetic beats
#: numpy's per-call overhead.  ``max`` and the ``>= top - 1e-15`` tie
#: band are order-independent IEEE float64 comparisons, so both code
#: paths produce bit-identical results.
_SCALAR_REDUCTION_LIMIT = 32


def _encode_key(key) -> list:
    """Tuple keys become lists for JSON; scalars pass through."""
    if isinstance(key, tuple):
        return list(key)
    return key


def _decode_key(key):
    """Invert :func:`_encode_key` (lists back to tuples).

    Keys read from JSON are outside input, so anything that is neither
    a scalar nor a flat list of scalars is a :class:`ValidationError`.
    """
    parts = key if isinstance(key, list) else [key]
    if not all(isinstance(k, (str, int, float, type(None))) for k in parts):
        raise ValidationError(
            f"Q-table key must be a scalar or a list of scalars, got {key!r}"
        )
    return tuple(key) if isinstance(key, list) else key


class QTable:
    """Q(s, a) table with random lazy initialization.

    Parameters
    ----------
    init_scale:
        Unseen entries are drawn uniformly from ``[0, init_scale)``.  A
        small positive scale implements the paper's random initialization
        while keeping initial values near-neutral.
    seed:
        Seed for the initialization stream.
    backend:
        ``"array"`` (default) for the interned dense storage,
        ``"shard"`` for the sharded, optionally memmap-backed dense
        storage, ``"dict"`` for the legacy sparse table.  Results are
        bit-identical in all three.
    shard_rows / shard_dir:
        ``"shard"`` backend only: rows per shard and an optional
        directory for ``numpy.memmap``-backed shards
        (see :mod:`repro.rl.qshard`).
    """

    def __init__(
        self,
        init_scale: float = 1e-3,
        seed: int = 0,
        backend: str = "array",
        shard_rows: int = DEFAULT_SHARD_ROWS,
        shard_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if init_scale < 0:
            raise ValidationError("init_scale must be >= 0")
        if backend not in _BACKENDS:
            allowed = ", ".join(repr(b) for b in sorted(_BACKENDS))
            raise ValidationError(
                f"backend must be one of {allowed}, got {backend!r}"
            )
        if shard_dir is not None and backend != "shard":
            raise ValidationError(
                f"shard_dir is only valid with backend='shard', "
                f"got backend={backend!r}"
            )
        self._backend = backend
        self._init_scale = float(init_scale)
        self._rng: np.random.Generator = RngService(seed).stream("qtable-init")
        if backend == "dict":
            self._values: Dict[Tuple[State, Action], float] = {}
        else:
            # interning maps: state/action -> contiguous int id
            self._state_ids: Dict[State, int] = {}
            self._states: List[State] = []
            self._action_ids: Dict[Action, int] = {}
            self._actions: List[Action] = []
            # dense storage: Q-values + "has been touched" mask.  The
            # shard backend swaps the monolithic arrays for a
            # ShardStore; everything above the row level is shared.
            if backend == "shard":
                self._store = ShardStore(
                    shard_rows=shard_rows, directory=shard_dir
                )
            else:
                self._q = np.zeros((0, 0), dtype=np.float64)
                self._known = np.zeros((0, 0), dtype=bool)
            self._n_known = 0
            # id(actions-tuple) -> (strong ref, action-id array, action
            # ids as a plain int list, set of state ids already
            # lazy-initialized against it); the strong ref keeps the id
            # stable, so the identity check below can never confuse two
            # tuples, and the ensured-set check is sound because
            # known-ness is monotone (entries never un-initialize)
            self._id_memo: Dict[
                int, Tuple[Tuple[Action, ...], np.ndarray, List[int], set]
            ] = {}

    @property
    def backend(self) -> str:
        """The storage backend (``array``/``dict``/``shard``)."""
        return self._backend

    def stats(self) -> Dict[str, Any]:
        """Size counters for sweep logs: interned ids, entries, bytes.

        ``nbytes`` is the dense storage footprint (Q-values + lazy-init
        mask); the dict backend has no dense storage and reports
        ``None``.  The shard backend adds its shard geometry so memmap
        growth is observable.
        """
        if self._backend == "dict":
            return {
                "backend": self._backend,
                "n_states": len({s for (s, _a) in self._values}),
                "n_actions": len({a for (_s, a) in self._values}),
                "n_known": len(self._values),
                "nbytes": None,
            }
        out: Dict[str, Any] = {
            "backend": self._backend,
            "n_states": len(self._states),
            "n_actions": len(self._actions),
            "n_known": self._n_known,
        }
        if self._backend == "shard":
            out["nbytes"] = self._store.nbytes
            out["n_shards"] = self._store.n_shards
            out["shard_rows"] = self._store.shard_rows
            out["memmapped"] = self._store.memmapped
        else:
            out["nbytes"] = int(self._q.nbytes + self._known.nbytes)
        return out

    def __len__(self) -> int:
        if self._backend == "dict":
            return len(self._values)
        return self._n_known

    # -- interning (array backend) -------------------------------------------

    def _grow(self, rows: int, cols: int) -> None:
        """Grow the dense storage to at least (rows, cols), geometrically."""
        old_r, old_c = self._q.shape
        new_r = max(rows, old_r, 4)
        new_c = max(cols, old_c, 16)
        if new_r > old_r:
            new_r = max(new_r, 2 * old_r)
        if new_c > old_c:
            new_c = max(new_c, 2 * old_c)
        q = np.zeros((new_r, new_c), dtype=np.float64)
        known = np.zeros((new_r, new_c), dtype=bool)
        if old_r and old_c:
            q[:old_r, :old_c] = self._q
            known[:old_r, :old_c] = self._known
        self._q = q
        self._known = known

    def _state_id(self, state: State) -> int:
        sid = self._state_ids.get(state)
        if sid is None:
            sid = len(self._states)
            self._state_ids[state] = sid
            self._states.append(state)
            if self._backend == "shard":
                self._store.ensure_rows(sid + 1)
            elif sid >= self._q.shape[0]:
                self._grow(sid + 1, self._q.shape[1])
        return sid

    def _action_id(self, action: Action) -> int:
        aid = self._action_ids.get(action)
        if aid is None:
            aid = len(self._actions)
            self._action_ids[action] = aid
            self._actions.append(action)
            if self._backend == "shard":
                self._store.ensure_cols(aid + 1)
            elif aid >= self._q.shape[1]:
                self._grow(self._q.shape[0], aid + 1)
        return aid

    def _action_slice(
        self, actions: Sequence[Action]
    ) -> Tuple[Tuple[Action, ...], np.ndarray, List[int], set]:
        """Memo entry for an actions batch, keyed on tuple identity.

        The simulator hands schedulers a *cached* cross-product tuple
        that stays the same object until the ready/idle sets change
        (``SimulationContext.action_pairs``), so successive ``select`` /
        Q-update calls hit the memo instead of re-interning every pair.
        Interning never draws from the init stream, so warming the memo
        cannot perturb lazy initialization.
        """
        is_tuple = type(actions) is tuple
        if is_tuple:
            memo = self._id_memo.get(id(actions))
            if memo is not None and memo[0] is actions:
                return memo
        act_get = self._action_ids.get
        id_list = [
            aid if (aid := act_get(a)) is not None else self._action_id(a)
            for a in actions
        ]
        ids = np.array(id_list, dtype=np.intp)
        entry = (tuple(actions), ids, id_list, set())
        if is_tuple:
            if len(self._id_memo) >= _ID_MEMO_LIMIT:
                self._id_memo.pop(next(iter(self._id_memo)))
            self._id_memo[id(actions)] = entry
        return entry

    def _ensure_known(self, sid: int, aids: np.ndarray) -> None:
        """Lazy-init any untouched (sid, aid) entries, in slice order.

        One ``uniform`` call per fresh entry, in the order the actions
        appear — the exact draw sequence of the dict backend's per-entry
        first touch (duplicates are re-checked so they draw only once).
        Storage-agnostic: the draw order depends only on the visit
        order, so array and shard backends stay bit-identical.
        """
        if self._backend == "shard":
            known = self._store.known_row(sid)
        else:
            known = self._known[sid]
        fresh = np.flatnonzero(~known[aids])
        if fresh.size:
            q = (
                self._store.q_row(sid)
                if self._backend == "shard"
                else self._q[sid]
            )
            scale = self._init_scale
            rng = self._rng
            for pos in fresh:
                aid = aids[pos]
                if not known[aid]:
                    q[aid] = rng.uniform(0.0, scale)
                    known[aid] = True
                    self._n_known += 1

    # -- point access ---------------------------------------------------------

    def value(self, state: State, action: Action) -> float:
        """Q(s, a); initializes the entry randomly on first access."""
        if self._backend == "dict":
            key = (state, action)
            v = self._values.get(key)
            if v is None:
                v = float(self._rng.uniform(0.0, self._init_scale))
                self._values[key] = v
            return v
        sid = self._state_id(state)
        aid = self._action_id(action)
        if self._backend == "shard":
            qrow = self._store.q_row(sid)
            krow = self._store.known_row(sid)
            if krow[aid]:
                return float(qrow[aid])
            v = float(self._rng.uniform(0.0, self._init_scale))
            qrow[aid] = v
            krow[aid] = True
            self._n_known += 1
            return v
        if self._known[sid, aid]:
            return float(self._q[sid, aid])
        v = float(self._rng.uniform(0.0, self._init_scale))
        self._q[sid, aid] = v
        self._known[sid, aid] = True
        self._n_known += 1
        return v

    def peek(self, state: State, action: Action) -> Optional[float]:
        """Q(s, a) without initializing (None if unseen)."""
        if self._backend == "dict":
            return self._values.get((state, action))
        sid = self._state_ids.get(state)
        aid = self._action_ids.get(action)
        if sid is None or aid is None:
            return None
        if self._backend == "shard":
            if not self._store.known_row(sid)[aid]:
                return None
            return float(self._store.q_row(sid)[aid])
        if not self._known[sid, aid]:
            return None
        return float(self._q[sid, aid])

    def set(self, state: State, action: Action, value: float) -> None:
        """Overwrite Q(s, a)."""
        if self._backend == "dict":
            self._values[(state, action)] = float(value)
            return
        sid = self._state_id(state)
        aid = self._action_id(action)
        if self._backend == "shard":
            krow = self._store.known_row(sid)
            if not krow[aid]:
                krow[aid] = True
                self._n_known += 1
            self._store.q_row(sid)[aid] = float(value)
            return
        if not self._known[sid, aid]:
            self._known[sid, aid] = True
            self._n_known += 1
        self._q[sid, aid] = float(value)

    def add(self, state: State, action: Action, delta: float) -> float:
        """Q(s, a) += delta; returns the new value."""
        new = self.value(state, action) + float(delta)
        if self._backend == "dict":
            self._values[(state, action)] = new
        elif self._backend == "shard":
            sid = self._state_ids[state]
            self._store.q_row(sid)[self._action_ids[action]] = new
        else:
            sid = self._state_ids[state]
            self._q[sid, self._action_ids[action]] = new
        return new

    # -- batched reductions ----------------------------------------------------

    def max_value(self, state: State, actions: Iterable[Action]) -> float:
        """max_a Q(s, a) over the given actions (0.0 for an empty set).

        An empty action set corresponds to a terminal/unavailable state,
        whose future value is zero by convention.
        """
        if self._backend == "dict":
            best = None
            for action in actions:
                v = self.value(state, action)
                if best is None or v > best:
                    best = v
            return best if best is not None else 0.0
        if not isinstance(actions, (tuple, list)):
            actions = list(actions)
        if not actions:
            return 0.0
        sid = self._state_id(state)
        _, aids, id_list, ensured = self._action_slice(actions)
        if sid not in ensured:
            self._ensure_known(sid, aids)
            ensured.add(sid)
        row = (
            self._store.q_row(sid)
            if self._backend == "shard"
            else self._q[sid]
        )
        if len(id_list) < _SCALAR_REDUCTION_LIMIT:
            # scalar loop beats numpy call overhead on tiny slices; the
            # result is the same float either way (a max is a max)
            best = row[id_list[0]]
            for aid in id_list[1:]:
                v = row[aid]
                if v > best:
                    best = v
            return float(best)
        return float(row.take(aids).max())

    def best_action(
        self,
        state: State,
        actions: Iterable[Action],
        rng: Optional[np.random.Generator] = None,
    ) -> Action:
        """argmax_a Q(s, a); ties broken randomly (or by sort order)."""
        if self._backend == "dict":
            actions = list(actions)
            if not actions:
                raise ValidationError("best_action needs a non-empty action set")
            values = [self.value(state, a) for a in actions]
            top = max(values)
            ties = [a for a, v in zip(actions, values) if v >= top - 1e-15]
            if len(ties) == 1 or rng is None:
                return ties[0]
            return ties[int(rng.integers(len(ties)))]
        if not isinstance(actions, (tuple, list)):
            actions = list(actions)
        if not actions:
            raise ValidationError("best_action needs a non-empty action set")
        sid = self._state_id(state)
        _, aids, id_list, ensured = self._action_slice(actions)
        if sid not in ensured:
            self._ensure_known(sid, aids)
            ensured.add(sid)
        row = (
            self._store.q_row(sid)
            if self._backend == "shard"
            else self._q[sid]
        )
        # same float comparisons as the dict path: max, then the
        # >= top - 1e-15 tie band, then one draw over the tie count
        if len(id_list) < _SCALAR_REDUCTION_LIMIT:
            values_list = [row[aid] for aid in id_list]
            cut = max(values_list) - 1e-15
            tie_list = [i for i, v in enumerate(values_list) if v >= cut]
            if len(tie_list) == 1 or rng is None:
                return actions[tie_list[0]]
            return actions[tie_list[int(rng.integers(len(tie_list)))]]
        values = row.take(aids)
        ties = np.flatnonzero(values >= values.max() - 1e-15)
        if ties.size == 1 or rng is None:
            return actions[int(ties[0])]
        return actions[int(ties[int(rng.integers(ties.size))])]

    def items(self) -> List[Tuple[State, Action, float]]:
        """All (state, action, value) triples, deterministically ordered."""
        if self._backend == "dict":
            triples = ((s, a, v) for (s, a), v in self._values.items())
        elif self._backend == "shard":
            n_actions = len(self._actions)
            triples = (
                (
                    self._states[sid],
                    self._actions[aid],
                    float(self._store.q_row(sid)[aid]),
                )
                for sid in range(len(self._states))
                for aid in np.flatnonzero(
                    self._store.known_row(sid)[:n_actions]
                )
            )
        else:
            sids, aids = np.nonzero(
                self._known[: len(self._states), : len(self._actions)]
            )
            triples = (
                (
                    self._states[sid],
                    self._actions[aid],
                    float(self._q[sid, aid]),
                )
                for sid, aid in zip(sids, aids)
            )
        return sorted(triples, key=lambda t: (repr(t[0]), repr(t[1])))

    # -- persistence ---------------------------------------------------------

    def to_json(self) -> str:
        """Serialize all entries (states/actions must be JSON-encodable)."""
        entries = [
            [_encode_key(s), _encode_key(a), v] for s, a, v in self.items()
        ]
        return json.dumps(
            {"init_scale": self._init_scale, "entries": entries},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str, seed: int = 0, backend: str = "array") -> "QTable":
        """Restore a table serialized by :meth:`to_json`.

        The text usually comes from a provenance database, so every
        malformed part — not an object, a non-list ``entries``, an entry
        that is not ``[state, action, value]``, a bad key, a non-finite
        or non-numeric value or ``init_scale`` — raises
        :class:`ValidationError` here rather than failing later.
        """
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed QTable JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValidationError(
                f"malformed QTable JSON: expected an object, got {data!r:.60}"
            )
        entries = data.get("entries", [])
        if not isinstance(entries, list):
            raise ValidationError(
                f"malformed QTable JSON: entries must be a list, "
                f"got {entries!r:.60}"
            )
        table = cls(
            init_scale=check_non_negative(
                "init_scale", data.get("init_scale", 1e-3)
            ),
            seed=seed,
            backend=backend,
        )
        for entry in entries:
            if not (isinstance(entry, list) and len(entry) == 3):
                raise ValidationError(
                    f"malformed QTable entry {entry!r:.60}: "
                    f"expected [state, action, value]"
                )
            s, a, v = entry
            if (
                isinstance(v, bool)
                or not isinstance(v, (int, float))
                or not math.isfinite(v)
            ):
                raise ValidationError(
                    f"Q-value must be a finite number, got {v!r}"
                )
            table.set(_decode_key(s), _decode_key(a), float(v))
        return table

    def save_shards(self, directory: Union[str, Path]) -> Path:
        """Persist a shard-backed table shard-by-shard (+ manifest).

        Writes one ``.npz`` per used shard and a canonical-JSON
        ``manifest.json`` carrying the shard layout plus this table's
        interning maps in id order, so :meth:`load_shards` restores the
        exact intern order (unlike :meth:`from_json`, which re-interns
        in sorted-entry order).  Returns the manifest path.
        """
        if self._backend != "shard":
            raise ValidationError(
                f"save_shards requires backend='shard', "
                f"got {self._backend!r}"
            )
        return self._store.save(
            directory,
            rows_used=len(self._states),
            cols_used=len(self._actions),
            extra={
                "init_scale": self._init_scale,
                "states": [_encode_key(s) for s in self._states],
                "actions": [_encode_key(a) for a in self._actions],
            },
        )

    @classmethod
    def load_shards(
        cls,
        directory: Union[str, Path],
        seed: int = 0,
        shard_dir: Optional[Union[str, Path]] = None,
    ) -> "QTable":
        """Restore a table saved by :meth:`save_shards`.

        ``seed`` re-derives a fresh init stream (same convention as
        :meth:`from_json`); ``shard_dir`` re-memmaps the restored
        values there instead of loading them into RAM.
        """
        store, manifest = ShardStore.load(directory, shard_dir)
        table = cls(
            init_scale=float(manifest.get("init_scale", 1e-3)),
            seed=seed,
            backend="shard",
            shard_rows=store.shard_rows,
        )
        table._store = store
        table._states = [_decode_key(s) for s in manifest["states"]]
        table._state_ids = {s: i for i, s in enumerate(table._states)}
        table._actions = [_decode_key(a) for a in manifest["actions"]]
        table._action_ids = {a: i for i, a in enumerate(table._actions)}
        table._n_known = int(
            sum(
                int(store.known_row(sid)[: len(table._actions)].sum())
                for sid in range(len(table._states))
            )
        )
        return table

    def copy(self) -> "QTable":
        """Independent copy (shares no state, fresh init stream)."""
        if self._backend == "shard":
            out = QTable(
                init_scale=self._init_scale,
                backend="shard",
                shard_rows=self._store.shard_rows,
            )
        else:
            out = QTable(init_scale=self._init_scale, backend=self._backend)
        if self._backend == "dict":
            out._values = dict(self._values)
        else:
            out._state_ids = dict(self._state_ids)
            out._states = list(self._states)
            out._action_ids = dict(self._action_ids)
            out._actions = list(self._actions)
            if self._backend == "shard":
                out._store = self._store.copy()
            else:
                out._q = self._q.copy()
                out._known = self._known.copy()
            out._n_known = self._n_known
        return out

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        """Drop the id-keyed memo: object ids do not survive a pickle."""
        state = self.__dict__.copy()
        state.pop("_id_memo", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        if self._backend != "dict":
            self._id_memo = {}
