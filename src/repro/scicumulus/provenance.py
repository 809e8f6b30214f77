"""The SciCumulus provenance database (SQLite).

"All data associated with the workflow execution is stored in a
provenance database.  Such information can be used in future executions
of ReASSIgN."  The store records executions (one row per run), their
per-activation records, and learning runs (hyper-parameters, Q-table,
episode log).  :meth:`ProvenanceStore.execution_history` exposes past
``(vm_id, te, tf)`` observations in exactly the shape
:meth:`~repro.rl.reward.PerformanceReward.bootstrap` consumes, and
:meth:`latest_qtable` lets a new learning run resume from a previous one.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

from repro.core.episode import LearningResult
from repro.sim.metrics import SimulationResult
from repro.util.validate import ValidationError

__all__ = ["ProvenanceStore", "ExecutionRow", "LogicalClock"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS executions (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    workflow TEXT NOT NULL,
    scheduler TEXT NOT NULL,
    fleet TEXT NOT NULL,
    makespan REAL NOT NULL,
    final_state TEXT NOT NULL,
    cost REAL NOT NULL,
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS activations (
    execution_id INTEGER NOT NULL REFERENCES executions(id),
    activation_id INTEGER NOT NULL,
    activity TEXT NOT NULL,
    vm_id INTEGER NOT NULL,
    ready_time REAL NOT NULL,
    start_time REAL NOT NULL,
    finish_time REAL NOT NULL,
    attempts INTEGER NOT NULL,
    failed INTEGER NOT NULL,
    PRIMARY KEY (execution_id, activation_id)
);
CREATE TABLE IF NOT EXISTS learning_runs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    workflow TEXT NOT NULL,
    fleet TEXT NOT NULL,
    params TEXT NOT NULL,
    episodes INTEGER NOT NULL,
    learning_time REAL NOT NULL,
    simulated_makespan REAL NOT NULL,
    payload TEXT NOT NULL,
    created_at REAL NOT NULL
);
"""


@dataclass(frozen=True)
class ExecutionRow:
    """Summary row of one recorded execution."""

    id: int
    workflow: str
    scheduler: str
    fleet: str
    makespan: float
    final_state: str
    cost: float


class LogicalClock:
    """Deterministic fallback clock: 0.0, 1.0, 2.0, … per instance.

    ``created_at`` only needs to order records within one store, so the
    default clock is a logical counter rather than the wall clock — two
    same-seed runs then produce byte-identical provenance databases
    (rule RL002; see ``docs/analysis.md``).
    """

    def __init__(self, start: float = 0.0, step: float = 1.0) -> None:
        self._next = float(start)
        self._step = float(step)

    def __call__(self) -> float:
        value = self._next
        self._next += self._step
        return value


class ProvenanceStore:
    """SQLite-backed provenance store.

    Parameters
    ----------
    path:
        Database file, or ``":memory:"`` (default) for an ephemeral store.
    clock:
        Zero-argument callable supplying ``created_at`` stamps.  Defaults
        to a :class:`LogicalClock` so records are deterministic; callers
        that *execute* workflows pass simulated completion times instead
        (see :class:`repro.scicumulus.swfms.SciCumulusRL`).  Injecting a
        wall clock is possible but forfeits byte-identical replays.
    """

    def __init__(
        self,
        path: Union[str, Path] = ":memory:",
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._conn = sqlite3.connect(str(path))
        self._conn.executescript(_SCHEMA)
        self._conn.commit()
        self._clock: Callable[[], float] = (
            clock if clock is not None else LogicalClock()
        )

    def close(self) -> None:
        self._conn.close()

    def dump(self) -> str:
        """Full SQL dump of the store (the byte-identity test surface)."""
        return "\n".join(self._conn.iterdump())

    def __enter__(self) -> "ProvenanceStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- recording ----------------------------------------------------------

    def record_execution(
        self,
        result: SimulationResult,
        scheduler: str,
        fleet: str,
        cost: float = 0.0,
        timestamp: Optional[float] = None,
    ) -> int:
        """Store one execution + its activation records; returns its id.

        ``timestamp`` overrides the injected clock — SWfMS callers pass
        the simulated completion time, keeping ``created_at`` meaningful
        *and* deterministic.
        """
        cur = self._conn.execute(
            "INSERT INTO executions (workflow, scheduler, fleet, makespan,"
            " final_state, cost, created_at) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                result.workflow_name,
                scheduler,
                fleet,
                result.makespan,
                result.final_state,
                cost,
                timestamp if timestamp is not None else self._clock(),
            ),
        )
        execution_id = int(cur.lastrowid)
        self._conn.executemany(
            "INSERT INTO activations VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [
                (
                    execution_id,
                    r.activation_id,
                    r.activity,
                    r.vm_id,
                    r.ready_time,
                    r.start_time,
                    r.finish_time,
                    r.attempts,
                    int(r.failed),
                )
                for r in result.records
            ],
        )
        self._conn.commit()
        return execution_id

    def record_learning_run(
        self,
        workflow: str,
        fleet: str,
        params_label: str,
        result: LearningResult,
        timestamp: Optional[float] = None,
    ) -> int:
        """Store a full learning run (episodes + Q-table); returns its id."""
        cur = self._conn.execute(
            "INSERT INTO learning_runs (workflow, fleet, params, episodes,"
            " learning_time, simulated_makespan, payload, created_at)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (
                workflow,
                fleet,
                params_label,
                result.n_episodes,
                result.learning_time,
                result.simulated_makespan,
                result.to_json(),
                timestamp if timestamp is not None else self._clock(),
            ),
        )
        self._conn.commit()
        return int(cur.lastrowid)

    # -- queries ------------------------------------------------------------

    def executions(self, workflow: Optional[str] = None) -> List[ExecutionRow]:
        """All recorded executions, newest last."""
        sql = (
            "SELECT id, workflow, scheduler, fleet, makespan, final_state, cost"
            " FROM executions"
        )
        args: tuple = ()
        if workflow is not None:
            sql += " WHERE workflow = ?"
            args = (workflow,)
        sql += " ORDER BY id"
        return [ExecutionRow(*row) for row in self._conn.execute(sql, args)]

    def execution_history(
        self, workflow: Optional[str] = None, fleet: Optional[str] = None
    ) -> List[Tuple[int, float, float]]:
        """Past ``(vm_id, te, tf)`` observations for reward bootstrapping."""
        sql = (
            "SELECT a.vm_id, a.finish_time - a.start_time,"
            " a.start_time - a.ready_time"
            " FROM activations a JOIN executions e ON a.execution_id = e.id"
            " WHERE a.failed = 0"
        )
        args: list = []
        if workflow is not None:
            sql += " AND e.workflow = ?"
            args.append(workflow)
        if fleet is not None:
            sql += " AND e.fleet = ?"
            args.append(fleet)
        sql += " ORDER BY a.execution_id, a.finish_time"
        return [
            (int(vm), float(te), float(tf))
            for vm, te, tf in self._conn.execute(sql, args)
        ]

    def latest_qtable(
        self, workflow: str, fleet: str, params_label: Optional[str] = None
    ) -> Optional[str]:
        """The most recent learning run's Q-table JSON, or None."""
        sql = (
            "SELECT payload FROM learning_runs WHERE workflow = ? AND fleet = ?"
        )
        args: list = [workflow, fleet]
        if params_label is not None:
            sql += " AND params = ?"
            args.append(params_label)
        sql += " ORDER BY id DESC LIMIT 1"
        row = self._conn.execute(sql, args).fetchone()
        if row is None:
            return None
        payload = json.loads(row[0])
        return json.dumps(payload["qtable"])

    def learning_runs(self, workflow: Optional[str] = None) -> List[Tuple[int, str, str, str, int, float, float]]:
        """(id, workflow, fleet, params, episodes, learning_time, makespan)."""
        sql = (
            "SELECT id, workflow, fleet, params, episodes, learning_time,"
            " simulated_makespan FROM learning_runs"
        )
        args: tuple = ()
        if workflow is not None:
            sql += " WHERE workflow = ?"
            args = (workflow,)
        sql += " ORDER BY id"
        return list(self._conn.execute(sql, args))

    def learning_result(self, run_id: int) -> LearningResult:
        """The stored :class:`LearningResult` of learning run ``run_id``.

        The payload goes through :meth:`LearningResult.from_json`, so a
        malformed one raises :class:`ValidationError`, as an unknown id
        does.
        """
        row = self._conn.execute(
            "SELECT payload FROM learning_runs WHERE id = ?", (run_id,)
        ).fetchone()
        if row is None:
            raise ValidationError(f"unknown learning run {run_id}")
        return LearningResult.from_json(row[0])

    def activation_rows(self, execution_id: int) -> List[tuple]:
        """Raw activation rows of one execution (for inspection/tests)."""
        rows = list(
            self._conn.execute(
                "SELECT * FROM activations WHERE execution_id = ?"
                " ORDER BY activation_id",
                (execution_id,),
            )
        )
        if not rows:
            raise ValidationError(f"unknown execution {execution_id}")
        return rows
