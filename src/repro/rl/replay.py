"""Replay-apply kernels: re-run traced decisions against the true Q-table.

The distributed learner (`repro.core.distributed`) consumes rollout
actors' decision traces in strict episode order and must advance the
*true* Q-table exactly as the fused serial loop
(``repro.core.lane._drive_episode``) would have.  :class:`ReplayKernel`
packages that loop's three RL table operations — ε-greedy selection,
next-state max, and the Eq.-3 write — as standalone kernels that mirror
the fused loop **op for op**: the same exploit coin, the same
action-slice identity memo, the same full-row ``_ensure_known``
shortcut, the same scalar-vs-numpy reduction split with the same
``1e-15`` tie band, the same first-touch lazy-init draw, and the same
``float()`` coercion points.  They are the per-step form of the
gather/scatter arithmetic behind ``QLearningAgent.update_batch``
(PR 8): one gather of ``Q(s, a)`` and the next-state slice, one fused
``r + γ·max − Q`` delta, one scatter of the new value.

A validated replay step is therefore bit-identical to live execution;
any divergence between a traced action and the kernel's choice proves
the actor's snapshot was stale at that step, which is the trigger for
the learner's in-place episode re-simulation.

**Lifetime contract.**  A kernel caches identity-keyed structures from
its table (the action-slice memo entry, the shard-store reference, the
interned state id).  ``QTable.restore()`` invalidates all of them, so
construct a fresh ``ReplayKernel`` after any restore and never reuse
one across a rollback.  Construction is a few dict lookups — per-episode
construction is free compared to one replayed step.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.rl.environment import AVAILABLE
from repro.rl.qtable import _SCALAR_REDUCTION_LIMIT, QTable
from repro.util.validate import ValidationError

if TYPE_CHECKING:
    from repro.sim.trace import EpisodeTrace

__all__ = ["ReplayKernel"]

Action = Tuple[int, int]

#: Per-pool-entry resolution for the columnar fast path:
#: ``[id_list, ids_array|None]`` — the numpy gather array is built
#: lazily, only for entries wide enough to leave the scalar reduction.
_TraceEntries = List[List[Any]]


class ReplayKernel:
    """Bit-exact mirror of the fused decision loop's Q-table operations.

    Operates on the single-bucket ``AVAILABLE`` state (the fused fast
    path's eligibility domain: plain Q-learning, one state bucket,
    dense ``array``/``shard`` backend).  The RNG callables are passed
    per call so the kernel itself holds no stream state — the caller
    owns the ``reassign-policy`` stream exactly as ``_FastLane`` does.
    """

    __slots__ = ("table", "store", "exploit_p", "alpha", "sid", "_sm_entry")

    def __init__(self, table: QTable, exploit_p: float, alpha: float) -> None:
        if table.backend == "dict":
            raise ValidationError(
                "ReplayKernel requires a dense (array/shard) Q-table"
            )
        self.table = table
        self.store = table._store if table.backend == "shard" else None
        self.exploit_p = float(exploit_p)
        self.alpha = float(alpha)
        self.sid = table._state_id(AVAILABLE)
        # every kernel write lands in this row: mark its era once so
        # delta snapshots (QTable.snapshot(since=...)) stay a superset
        table.mark_row_dirty(self.sid)
        # one-entry identity cache over the action-slice memo, primed
        # with the empty tuple exactly as the fused loop primes it
        # (draws nothing, interns nothing)
        self._sm_entry = table._action_slice(())

    def choose(
        self,
        pairs: Tuple[Action, ...],
        rng_random: Callable[[], float],
        rng_integers: Callable[[int], np.integer],
    ) -> Tuple[Action, Optional[int]]:
        """One ε-greedy selection; returns ``(action, sel_aid)``.

        ``sel_aid`` is ``None`` on exploration (the fused loop interns
        the chosen action's id lazily at update time in that case, and
        the draw order depends on it — so the replay must too).
        """
        table = self.table
        store = self.store
        sid = self.sid
        if rng_random() < self.exploit_p:
            entry = self._sm_entry
            if entry[0] is not pairs:
                entry = table._action_slice(pairs)
                self._sm_entry = entry
            aids, id_list, ensured = entry[1], entry[2], entry[3]
            if sid not in ensured:
                # full-row shortcut: with the single bucket row fully
                # initialized, _ensure_known has nothing left to draw
                if (
                    table._n_known != len(table._actions)
                    or len(table._states) != 1
                ):
                    table._ensure_known(sid, aids)
                ensured.add(sid)
            row = store.q_row(sid) if store is not None else table._q[sid]
            if len(id_list) < _SCALAR_REDUCTION_LIMIT:
                values_list = [row[a] for a in id_list]
                cut = max(values_list) - 1e-15
                tie_list = [
                    i for i, v in enumerate(values_list) if v >= cut
                ]
                if len(tie_list) == 1:
                    i = tie_list[0]
                else:
                    i = tie_list[int(rng_integers(len(tie_list)))]
            else:
                values = row.take(aids)
                i = int(values.argmax())
                band = values >= values[i] - 1e-15
                cnt = int(band.sum())
                if cnt > 1:
                    ties = np.flatnonzero(band)
                    i = int(ties[int(rng_integers(cnt))])
            return pairs[i], id_list[i]
        return pairs[int(rng_integers(len(pairs)))], None

    def future(self, next_pairs: Tuple[Action, ...]) -> float:
        """Next-state max over the post-dispatch action space (gather)."""
        if not next_pairs:
            return 0.0
        table = self.table
        store = self.store
        sid = self.sid
        entry = self._sm_entry
        if entry[0] is not next_pairs:
            entry = table._action_slice(next_pairs)
            self._sm_entry = entry
        aids, id_list, ensured = entry[1], entry[2], entry[3]
        if sid not in ensured:
            if (
                table._n_known != len(table._actions)
                or len(table._states) != 1
            ):
                table._ensure_known(sid, aids)
            ensured.add(sid)
        row = store.q_row(sid) if store is not None else table._q[sid]
        if len(id_list) < _SCALAR_REDUCTION_LIMIT:
            best = row[id_list[0]]
            for a in id_list[1:]:
                v = row[a]
                if v > best:
                    best = v
            return float(best)
        return float(row.take(aids).max())

    def apply(
        self,
        action: Action,
        sel_aid: Optional[int],
        r_t: float,
        gamma_t: float,
        future: float,
    ) -> float:
        """The Eq.-3 write (gather → fused delta → scatter); returns Q'."""
        table = self.table
        store = self.store
        sid = self.sid
        if sel_aid is None:
            sel_aid = table._action_id(action)
        if store is not None:
            known_row = store.known_row(sid)
            qrow = store.q_row(sid)
        else:
            known_row = table._known[sid]
            qrow = table._q[sid]
        if known_row[sel_aid]:
            q_sa = float(qrow[sel_aid])
        else:
            q_sa = float(table._rng.uniform(0.0, table._init_scale))
            qrow[sel_aid] = q_sa
            known_row[sel_aid] = True
            table._n_known += 1
        delta = r_t + gamma_t * future - q_sa
        q_new = q_sa + float(self.alpha * delta)
        qrow[sel_aid] = q_new
        return q_new

    def begin_trace(self, trace: "EpisodeTrace") -> Optional[_TraceEntries]:
        """Resolve a trace's action-pair pool for :meth:`validate_trace`.

        One pass over the (small) pool of distinct pairs tuples replaces
        the per-step ``_action_slice`` / ``_ensure_known`` machinery: it
        maps every pool entry to its interned column ids up front, so the
        per-step work of the columnar pass is a pure gather/argmax over
        those ids.

        Returns ``None`` — caller must use the step-wise kernels — when
        the batched pass cannot be bit-exact:

        - the single ``AVAILABLE`` row is not fully initialized (cold
          cells draw their init value lazily *in access order*, which a
          pooled resolution cannot reproduce), or
        - the trace references an action the table has never interned
          (first-touch registration order is observable through the
          serialized table).
        """
        table = self.table
        if (
            len(table._states) != 1
            or table._n_known != len(table._actions)
        ):
            return None
        aget = table._action_ids.get
        entries: _TraceEntries = []
        for pairs in trace.pool:
            id_list: List[int] = []
            for a in pairs:
                aid = aget(a)
                if aid is None:
                    return None
                id_list.append(aid)
            entries.append([id_list, None])
        return entries

    def validate_trace(
        self,
        trace: "EpisodeTrace",
        entries: _TraceEntries,
        rewards: Sequence[float],
        gammas: Sequence[float],
        rng_random: Callable[[], float],
        rng_integers: Callable[[int], np.integer],
    ) -> Tuple[bool, int]:
        """Validate-and-apply a whole trace against the columnar arrays.

        The fused per-step loop's table operations, hoisted: the Q-row is
        gathered into a Python-float mirror **once**, every pool entry's
        column ids come precomputed from :meth:`begin_trace`, and each
        step reduces over those ids directly — same ε-coin, same tie
        band and tie enumeration order, same draw sequence, same Eq.-3
        float ops as :meth:`choose`/:meth:`future`/:meth:`apply`, so the
        table and the policy stream end bit-identical to a step-wise
        replay.  ``rewards``/``gammas`` are the precomputed per-step
        §III-B rewards and discount factors (reward math never draws and
        divergence rolls the learner back wholesale, so computing them
        ahead of the scan is unobservable).

        Returns ``(ok, divergence_step)`` exactly like the step-wise
        path: on the first step whose true selection differs from the
        traced action the scan stops and the caller restores its
        checkpoint and re-simulates.
        """
        table = self.table
        store = self.store
        sid = self.sid
        exploit_p = self.exploit_p
        alpha = self.alpha
        qrow = store.q_row(sid) if store is not None else table._q[sid]
        row_list: List[float] = qrow.tolist()
        row_get = row_list.__getitem__
        pool = trace.pool
        pairs_idx = trace.pairs_idx
        next_idx = trace.next_idx
        act_pos = trace.act_pos
        act_a = trace.act_a
        act_v = trace.act_v
        n = int(pairs_idx.shape[0])
        for i in range(n):  # reprolint: disable=RL015  (draws are sequential)
            pi = int(pairs_idx[i])
            ent = entries[pi]
            id_list = ent[0]
            if rng_random() < exploit_p:
                if len(id_list) < _SCALAR_REDUCTION_LIMIT:
                    values_list = list(map(row_get, id_list))
                    cut = max(values_list) - 1e-15
                    tie_list = [
                        j for j, v in enumerate(values_list) if v >= cut
                    ]
                    if len(tie_list) == 1:
                        j = tie_list[0]
                    else:
                        j = tie_list[int(rng_integers(len(tie_list)))]
                else:
                    ids = ent[1]
                    if ids is None:
                        ids = ent[1] = np.array(id_list, dtype=np.intp)
                    values = qrow.take(ids)
                    j = int(values.argmax())
                    band = values >= values[j] - 1e-15
                    cnt = int(band.sum())
                    if cnt > 1:
                        ties = np.flatnonzero(band)
                        j = int(ties[int(rng_integers(cnt))])
            else:
                j = int(rng_integers(len(id_list)))
            pos = int(act_pos[i])
            if pos >= 0:
                if j != pos:  # pairs are distinct: position ⇔ action
                    return False, i
            elif pool[pi][j] != (int(act_a[i]), int(act_v[i])):
                return False, i
            ni = int(next_idx[i])
            nid_list = entries[ni][0]
            if not nid_list:
                future = 0.0
            elif len(nid_list) < _SCALAR_REDUCTION_LIMIT:
                # max over the same floats in the same compare order as
                # the explicit scan in future() — identical result
                future = max(map(row_get, nid_list))
            else:
                nids = entries[ni][1]
                if nids is None:
                    nids = entries[ni][1] = np.array(
                        nid_list, dtype=np.intp
                    )
                future = float(qrow.take(nids).max())
            # full row ⇒ every cell known ⇒ no lazy-init draw in apply
            sel_aid = id_list[j]
            q_sa = row_get(sel_aid)
            delta = rewards[i] + gammas[i] * future - q_sa
            q_new = q_sa + alpha * delta
            qrow[sel_aid] = q_new
            row_list[sel_aid] = q_new
        return True, n
