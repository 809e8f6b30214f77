"""The action-selection policy.

**Important convention.** The paper states (twice — §II and §III-C) that
"with probability ε the best action is taken ... otherwise an action is
selected at random".  That is the *inverse* of the textbook ε-greedy
(where ε is the exploration probability): there ε is the **exploitation
probability**.  :class:`EpsilonGreedyPolicy` defaults to that literal
text; pass ``epsilon_is_exploration=True`` for the textbook convention.
The paper's evaluation contradicts its text — Table III degrades
monotonically as ε grows, which only fits ε = exploration — so
:class:`~repro.core.reassign.ReassignParams` defaults to the textbook
convention (``epsilon_is_exploration=True``) and passes it here.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from repro.rl.qtable import QTable
from repro.util.validate import ValidationError, check_probability

__all__ = ["EpsilonGreedyPolicy"]


class EpsilonGreedyPolicy:
    """The paper's ε-greedy: exploit with probability ε, else random.

    Parameters
    ----------
    epsilon:
        Probability in [0, 1].
    epsilon_is_exploration:
        When True, use the textbook convention instead (explore with
        probability ε).
    """

    def __init__(self, epsilon: float, epsilon_is_exploration: bool = False) -> None:
        self.epsilon = check_probability("epsilon", epsilon)
        self.epsilon_is_exploration = bool(epsilon_is_exploration)

    def _exploit_probability(self) -> float:
        if self.epsilon_is_exploration:
            return 1.0 - self.epsilon
        return self.epsilon

    def choose(
        self,
        qtable: QTable,
        state: Hashable,
        actions: Sequence[Hashable],
        rng: np.random.Generator,
    ) -> Hashable:
        """One of ``actions``: the best (ties drawn from ``rng``), else uniform."""
        if not actions:
            raise ValidationError("cannot choose from an empty action set")
        if rng.random() < self._exploit_probability():
            return qtable.best_action(state, actions, rng)
        return actions[int(rng.integers(len(actions)))]
