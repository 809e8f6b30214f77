"""The TD update rules ReASSIgN learns with: Eq. 3 and its A2 variants.

One Eq.-3 step, :func:`eq3_update`, applies

    Q(s, a) += alpha * (r + gamma_t * future - Q(s, a))

and the three rules differ only in ``future``, the value they bootstrap
from:

- Q-learning (the paper's Algorithm 1): ``max_a' Q(s', a')``
  (:func:`qlearning_future`);
- SARSA: ``Q(s', a')`` for the action the policy actually takes next
  (:func:`sarsa_future`);
- Double Q-learning (van Hasselt, 2010): a coin picks which of two
  tables learns (:func:`doubleq_roles`); that table picks the argmax
  and the other one values it (:func:`doubleq_future`).

``gamma_t`` is the paper's per-step discount, γ^t (:func:`discount`).
An empty next action set is a terminal/unavailable state whose future
is 0.

Every function reads and writes the table in a fixed order, because the
first touch of an entry draws its random initial value from the table's
init stream: the order is part of the result.
:class:`~repro.core.reassign.ReassignScheduler` calls these functions;
the fused lane stepper (:mod:`repro.core.lane`) inlines the Q-learning
rule and is pinned to them by the lane-vs-reference suites.
"""

from __future__ import annotations

from typing import Hashable, Sequence, Tuple

import numpy as np

from repro.rl.qtable import QTable

__all__ = [
    "discount",
    "doubleq_future",
    "doubleq_roles",
    "eq3_update",
    "qlearning_future",
    "sarsa_future",
]


def discount(gamma: float, t: int, power: bool = True) -> float:
    """The discount at within-episode step ``t``: γ^t, or γ if not ``power``."""
    return gamma ** t if power else gamma


def eq3_update(
    table: QTable,
    state: Hashable,
    action: Hashable,
    reward: float,
    gamma_t: float,
    future: float,
    alpha: float,
) -> float:
    """One Eq.-3 step on ``table``; returns the TD error δ.

    ``future`` must be computed before this call: the rules read the
    next state's entries before ``Q(s, a)``.
    """
    delta = reward + gamma_t * future - table.value(state, action)
    table.add(state, action, alpha * delta)
    return delta


def qlearning_future(
    table: QTable, next_state: Hashable, next_actions: Sequence[Hashable]
) -> float:
    """Q-learning's bootstrap: ``max_a' Q(s', a')`` (0 if terminal)."""
    return table.max_value(next_state, next_actions)


def sarsa_future(
    table: QTable, next_state: Hashable, next_action: Hashable
) -> float:
    """SARSA's on-policy bootstrap: ``Q(s', a')`` of the chosen action."""
    return table.value(next_state, next_action)


def doubleq_roles(
    coin: np.random.Generator, qtable_a: QTable, qtable_b: QTable
) -> Tuple[QTable, QTable]:
    """Flip the update coin: ``(table that learns, table that evaluates)``."""
    if coin.random() < 0.5:
        return qtable_a, qtable_b
    return qtable_b, qtable_a


def doubleq_future(
    learn: QTable,
    evaluate: QTable,
    next_state: Hashable,
    next_actions: Sequence[Hashable],
) -> float:
    """Double Q's bootstrap: ``evaluate`` values ``learn``'s argmax."""
    if not next_actions:
        return 0.0
    best = learn.best_action(next_state, next_actions)
    return evaluate.value(next_state, best)
