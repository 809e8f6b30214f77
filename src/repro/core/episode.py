"""Episode bookkeeping and learning results.

Algorithm 2 "records all data associated to this episode [so] they can be
used in the next episode".  :class:`EpisodeRecord` is that record;
:class:`LearningResult` bundles a whole run — the learned plan, the final
Q-table, the per-episode history (learning curves) and the wall-clock
learning time that the paper's Table II reports.

A run keeps one record per episode, and a sweep ships every run's
records back to its parent process, so a record stores its assignment
packed: one flat ``array`` of (activation id, VM id) pairs in the
narrowest of the typecodes ``B``, ``H`` and ``q`` that holds every id.
A Montage-50 record then holds about 0.34 KB, where one holding its
``{activation id: VM id}`` dict took 2.6 KB.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.schedulers.base import SchedulingPlan
from repro.util.decode import check_index, decode_id_map, json_field, unique_keys
from repro.util.validate import ValidationError, check_finite, check_non_negative

__all__ = ["EpisodeRecord", "LearningResult"]


def _pack(assignment: Mapping[int, int]) -> array[int]:
    """``assignment``'s pairs, flattened in iteration order."""
    flat = list(chain.from_iterable(assignment.items()))
    for typecode in "BH":
        try:
            return array(typecode, flat)
        except OverflowError:  # an id below 0 or above the typecode's range
            continue
    return array("q", flat)


class EpisodeRecord:
    """Outcome of one learning episode (one simulated workflow run).

    ``assignment`` maps activation id → VM id in completion order.  The
    record keeps it packed (see the module docstring): reading it builds
    a fresh dict, so mutating that dict changes nothing in the record.
    Records compare equal when their fields do, the assignment compared
    as a mapping, and are unhashable.
    """

    __slots__ = (
        "episode",
        "makespan",
        "final_state",
        "steps",
        "mean_reward",
        "final_reward",
        "_pairs",
    )

    episode: int
    makespan: float
    final_state: str
    steps: int  #: schedule actions taken
    mean_reward: float
    final_reward: float  #: r^t at episode end

    def __init__(
        self,
        episode: int,
        makespan: float,
        final_state: str,
        steps: int,
        mean_reward: float,
        final_reward: float,
        assignment: Optional[Mapping[int, int]] = None,
    ) -> None:
        self.episode = episode
        self.makespan = makespan
        self.final_state = final_state
        self.steps = steps
        self.mean_reward = mean_reward
        self.final_reward = final_reward
        self._pairs = _pack(assignment or {})

    @property
    def assignment(self) -> Dict[int, int]:
        """A fresh ``{activation id: VM id}`` dict in completion order."""
        pairs = iter(self._pairs)
        return dict(zip(pairs, pairs))

    def _values(self) -> Tuple[int, float, str, int, float, float]:
        return (
            self.episode,
            self.makespan,
            self.final_state,
            self.steps,
            self.mean_reward,
            self.final_reward,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EpisodeRecord):
            return NotImplemented
        return self._values() == other._values() and (
            self._pairs == other._pairs or self.assignment == other.assignment
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        names = self.__slots__[:-1]
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(names, self._values())
        )
        return f"EpisodeRecord({fields}, assignment={self.assignment!r})"

    def __reduce__(self) -> Tuple[Any, ...]:
        # the seven values, with no per-record slot names in the pickle
        return (_unpickle_record, (*self._values(), self._pairs))

    def to_dict(self) -> Dict[str, Any]:
        pairs = iter(self._pairs)
        return {
            "episode": self.episode,
            "makespan": self.makespan,
            "final_state": self.final_state,
            "steps": self.steps,
            "mean_reward": self.mean_reward,
            "final_reward": self.final_reward,
            "assignment": {str(k): v for k, v in zip(pairs, pairs)},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EpisodeRecord":
        """Inverse of :meth:`to_dict`.

        The dict usually comes from a provenance payload, so it is
        checked rather than coerced: a non-object, a missing field, an
        ``episode`` or ``steps`` that is not a non-negative integer, a
        makespan that is negative or not finite, a reward that is not
        finite, a ``final_state`` that is not a string, or an
        ``assignment`` that :func:`~repro.util.decode.decode_id_map`
        rejects raises :class:`ValidationError` naming the field.
        """
        if not isinstance(data, Mapping):
            raise ValidationError(
                f"episode record must be an object, got {data!r:.60}"
            )
        final_state = json_field(data, "final_state")
        if not isinstance(final_state, str):
            raise ValidationError(
                f"final_state must be a string, got {final_state!r:.60}"
            )
        return cls(
            episode=check_index("episode", json_field(data, "episode")),
            makespan=check_non_negative("makespan", json_field(data, "makespan")),
            final_state=final_state,
            steps=check_index("steps", json_field(data, "steps")),
            mean_reward=check_finite("mean_reward", json_field(data, "mean_reward")),
            final_reward=check_finite(
                "final_reward", json_field(data, "final_reward")
            ),
            assignment=decode_id_map("assignment", data.get("assignment", {})),
        )


def _unpickle_record(
    episode: int,
    makespan: float,
    final_state: str,
    steps: int,
    mean_reward: float,
    final_reward: float,
    pairs: array[int],
) -> EpisodeRecord:
    record = EpisodeRecord.__new__(EpisodeRecord)
    record.episode = episode
    record.makespan = makespan
    record.final_state = final_state
    record.steps = steps
    record.mean_reward = mean_reward
    record.final_reward = final_reward
    record._pairs = pairs
    return record


@dataclass
class LearningResult:
    """Everything a ReASSIgN learning run produced."""

    plan: SchedulingPlan  #: the plan handed to the SWfMS
    episodes: List[EpisodeRecord]
    learning_time: float  #: wall-clock seconds of the episode loop (Table II)
    simulated_makespan: float  #: makespan of the final plan replay (Table III)
    qtable_json: str  #: serialized Q-table (for provenance / resumption)

    def __post_init__(self) -> None:
        if not self.episodes:
            raise ValidationError("a learning result needs at least one episode")

    @property
    def n_episodes(self) -> int:
        return len(self.episodes)

    @property
    def simulated_learning_time(self) -> float:
        """Total *simulated* seconds spent learning (sum of episode makespans).

        A deterministic stand-in for the wall-clock ``learning_time``:
        it depends only on seeds and parameters, never on machine load,
        so parallel and serial campaigns agree on it bit-for-bit.  The
        determinism test harness renders Table II from this metric.
        """
        return sum(e.makespan for e in self.episodes)

    @property
    def best_episode(self) -> EpisodeRecord:
        """The episode with the smallest makespan (successful ones preferred)."""
        ok = [e for e in self.episodes if e.final_state == "successfully finished"]
        pool = ok if ok else self.episodes
        return min(pool, key=lambda e: (e.makespan, e.episode))

    def makespan_curve(self) -> List[float]:
        """Per-episode makespans (the learning curve of ablation A4)."""
        return [e.makespan for e in self.episodes]

    def reward_curve(self) -> List[float]:
        """Per-episode mean rewards."""
        return [e.mean_reward for e in self.episodes]

    def to_json(self) -> str:
        """Serialize for the provenance store (canonical JSON, RL009)."""
        return json.dumps(
            {
                "plan": json.loads(self.plan.to_json()),
                "episodes": [e.to_dict() for e in self.episodes],
                "learning_time": self.learning_time,
                "simulated_makespan": self.simulated_makespan,
                "qtable": json.loads(self.qtable_json),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "LearningResult":
        """Inverse of :meth:`to_json`.

        The text usually comes from a provenance store, so malformed
        JSON, a non-object, a missing or ill-typed field, a negative or
        non-finite time, and any plan or episode record their own
        parsers reject raise :class:`ValidationError` naming the field
        (an episode's error also names its index in ``episodes``).
        """
        try:
            data = json.loads(text, object_pairs_hook=unique_keys)
        except ValueError as exc:  # JSONDecodeError, or an oversized int
            raise ValidationError(f"malformed LearningResult JSON: {exc}") from exc
        try:
            if not isinstance(data, dict):
                raise ValidationError(f"expected an object, got {data!r:.60}")
            plan = SchedulingPlan.from_json(json.dumps(json_field(data, "plan")))
            entries = json_field(data, "episodes")
            if not isinstance(entries, list):
                raise ValidationError(
                    f"episodes must be a list, got {entries!r:.60}"
                )
            episodes = []
            for index, entry in enumerate(entries):
                try:
                    episodes.append(EpisodeRecord.from_dict(entry))
                except ValidationError as exc:
                    raise ValidationError(f"episodes[{index}]: {exc}") from exc
            qtable = json_field(data, "qtable")
            if not isinstance(qtable, dict):
                raise ValidationError(
                    f"qtable must be an object, got {qtable!r:.60}"
                )
            return cls(
                plan=plan,
                episodes=episodes,
                learning_time=check_non_negative(
                    "learning_time", json_field(data, "learning_time")
                ),
                simulated_makespan=check_non_negative(
                    "simulated_makespan", json_field(data, "simulated_makespan")
                ),
                qtable_json=json.dumps(qtable),
            )
        except ValidationError as exc:
            raise ValidationError(f"malformed LearningResult JSON: {exc}") from exc
