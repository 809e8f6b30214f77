"""Double Q-learning (van Hasselt, 2010) — ablation A2.

Keeps two tables Q_A and Q_B; each update flips a coin, uses one table to
pick the argmax and the *other* to value it, removing the positive
maximization bias of plain Q-learning.  Relevant here because ReASSIgN's
reward is noisy early on (few observations per VM), exactly the regime
where single-estimator Q-learning over-commits.
"""

from __future__ import annotations

from typing import Hashable, List, Optional

from repro.rl.policy import ActionPolicy
from repro.rl.qlearning import QLearningAgent
from repro.rl.qtable import QTable
from repro.util.rng import RngService

__all__ = ["DoubleQAgent"]


class _SumView(QTable):
    """Read view exposing Q_A + Q_B to the action policy.

    Runs on the dict backend on purpose: its reductions
    (``max_value``/``best_action``) go through per-action ``value()``
    calls, which is the seam this view overrides.  The array backend's
    vectorized reductions read their own dense storage and would bypass
    the override.
    """

    def __init__(self, a: QTable, b: QTable) -> None:
        super().__init__(init_scale=0.0, backend="dict")
        self._a = a
        self._b = b

    def value(self, state, action):  # type: ignore[override]
        return self._a.value(state, action) + self._b.value(state, action)


class DoubleQAgent(QLearningAgent):
    """Tabular Double Q-learning agent.

    The inherited ``qtable`` attribute is a live view of Q_A + Q_B (the
    quantity the behaviour policy uses); the two underlying tables are
    ``qtable_a`` / ``qtable_b``.
    """

    def __init__(
        self,
        alpha: float = 0.5,
        gamma: float = 1.0,
        policy: Optional[ActionPolicy] = None,
        seed: int = 0,
        discount_power: bool = True,
        max_steps: int = 100_000,
    ) -> None:
        super().__init__(
            alpha=alpha,
            gamma=gamma,
            policy=policy,
            qtable=None,
            seed=seed,
            discount_power=discount_power,
            max_steps=max_steps,
        )
        self.qtable_a = QTable(seed=RngService(seed).spawn_seed("qa"))
        self.qtable_b = QTable(seed=RngService(seed).spawn_seed("qb"))
        self.qtable = _SumView(self.qtable_a, self.qtable_b)
        self._coin = RngService(seed).stream("doubleq-coin")

    def update(
        self,
        state: Hashable,
        action: Hashable,
        reward: float,
        next_state: Hashable,
        next_actions: List[Hashable],
        t: int,
    ) -> float:
        """One double-estimator update; returns the TD error δ."""
        if self._coin.random() < 0.5:
            learn, evaluate = self.qtable_a, self.qtable_b
        else:
            learn, evaluate = self.qtable_b, self.qtable_a
        if next_actions:
            best = learn.best_action(next_state, next_actions)
            future = evaluate.value(next_state, best)
        else:
            future = 0.0
        delta = (
            reward
            + self.effective_gamma(t) * future
            - learn.value(state, action)
        )
        learn.add(state, action, self.alpha * delta)
        return delta
