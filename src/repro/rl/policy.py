"""Action-selection policies.

**Important convention.** The paper states (twice — §II and §III-C) that
"with probability ε the best action is taken ... otherwise an action is
selected at random".  That is the *inverse* of the textbook ε-greedy
(where ε is the exploration probability): here ε is the **exploitation
probability**.  Its evaluation is consistent with that reading — the best
Table III/IV results use ε = 0.1, i.e. heavy exploration across the 100
learning episodes.  :class:`EpsilonGreedyPolicy` implements the paper's
convention by default; pass ``epsilon_is_exploration=True`` for the
textbook one.
"""

from __future__ import annotations

import abc
import math
from typing import Hashable, List

import numpy as np

from repro.rl.qtable import QTable
from repro.util.validate import ValidationError, check_probability

__all__ = [
    "ActionPolicy",
    "EpsilonGreedyPolicy",
    "DecayingEpsilonPolicy",
    "SoftmaxPolicy",
]


class ActionPolicy(abc.ABC):
    """Chooses an action given a Q-table, a state and the legal actions."""

    @abc.abstractmethod
    def choose(
        self,
        qtable: QTable,
        state: Hashable,
        actions: List[Hashable],
        rng: np.random.Generator,
    ) -> Hashable:
        """Return one of ``actions``."""

    def episode_finished(self) -> None:
        """Hook for per-episode schedules (decay); default no-op."""


class EpsilonGreedyPolicy(ActionPolicy):
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

    def choose(self, qtable, state, actions, rng):
        if not actions:
            raise ValidationError("cannot choose from an empty action set")
        if rng.random() < self._exploit_probability():
            return qtable.best_action(state, actions, rng)
        return actions[int(rng.integers(len(actions)))]


class DecayingEpsilonPolicy(EpsilonGreedyPolicy):
    """Exploitation probability that anneals toward 1.0 across episodes.

    Starts at ``epsilon`` and approaches ``epsilon_final`` geometrically
    with per-episode factor ``decay`` — an extension the paper's future
    work hints at ("more episodes" should shift from exploring to
    exploiting).
    """

    def __init__(
        self,
        epsilon: float = 0.1,
        epsilon_final: float = 0.95,
        decay: float = 0.97,
    ) -> None:
        super().__init__(epsilon)
        self.epsilon_final = check_probability("epsilon_final", epsilon_final)
        self.decay = check_probability("decay", decay)

    def episode_finished(self) -> None:
        # move epsilon a (1-decay) fraction of the way to its target
        self.epsilon = self.epsilon_final + (self.epsilon - self.epsilon_final) * self.decay


class SoftmaxPolicy(ActionPolicy):
    """Boltzmann exploration: P(a) ∝ exp(Q(s, a) / temperature)."""

    def __init__(self, temperature: float = 1.0) -> None:
        if temperature <= 0:
            raise ValidationError("temperature must be > 0")
        self.temperature = float(temperature)

    def choose(self, qtable, state, actions, rng):
        if not actions:
            raise ValidationError("cannot choose from an empty action set")
        values = np.array([qtable.value(state, a) for a in actions])
        logits = values / self.temperature
        logits -= logits.max()  # numerical stability
        probs = np.exp(logits)
        total = probs.sum()
        if not math.isfinite(total) or total <= 0:
            return actions[int(rng.integers(len(actions)))]
        probs /= total
        return actions[int(rng.choice(len(actions), p=probs))]
