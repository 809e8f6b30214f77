"""Q-learning (the paper's Algorithm 1) over :class:`DiscreteEnv`.

The update follows Eq. 3::

    Q(s, a) += alpha * (r + gamma_t * max_a' Q(s', a') - Q(s, a))

with one faithful quirk: the paper writes the discount as ``gamma^t``
(raised to the within-episode step index), not the constant ``gamma`` of
textbook Q-learning.  ``discount_power=True`` (default) reproduces that —
and explains the paper's observation that γ = 1.0 rows dominate its
Tables III/IV: with γ < 1 the future term vanishes within a few steps.
Set ``discount_power=False`` for the textbook rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Optional

from repro.rl.environment import DiscreteEnv
from repro.rl.policy import ActionPolicy, EpsilonGreedyPolicy
from repro.rl.qtable import QTable
from repro.util.rng import RngService
from repro.util.validate import ValidationError, check_probability

__all__ = ["EpisodeStats", "QLearningAgent"]


@dataclass
class EpisodeStats:
    """Per-episode learning diagnostics."""

    episode: int
    steps: int
    total_reward: float
    rewards: List[float] = field(default_factory=list)

    @property
    def mean_reward(self) -> float:
        return self.total_reward / self.steps if self.steps else 0.0


class QLearningAgent:
    """Tabular Q-learning agent (off-policy TD control).

    Parameters
    ----------
    alpha:
        Learning rate in (0, 1].
    gamma:
        Discount factor in [0, 1].
    policy:
        Action-selection policy; defaults to the paper's ε-greedy with
        ε = 0.1 (10% exploitation).
    discount_power:
        Use the paper's ``gamma^t`` per-step discount (default) instead of
        a constant ``gamma``.
    max_steps:
        Per-episode step cap (guards against non-terminating MDPs).
    """

    def __init__(
        self,
        alpha: float = 0.5,
        gamma: float = 1.0,
        policy: Optional[ActionPolicy] = None,
        qtable: Optional[QTable] = None,
        seed: int = 0,
        discount_power: bool = True,
        max_steps: int = 100_000,
    ) -> None:
        self.alpha = check_probability("alpha", alpha)
        if self.alpha == 0:
            raise ValidationError("alpha must be > 0")
        self.gamma = check_probability("gamma", gamma)
        self.policy = policy if policy is not None else EpsilonGreedyPolicy(0.1)
        self.qtable = qtable if qtable is not None else QTable(seed=seed)
        self.discount_power = bool(discount_power)
        self.max_steps = int(max_steps)
        self._rng = RngService(seed).stream("qlearning-agent")
        self.history: List[EpisodeStats] = []

    # -- learning rule -------------------------------------------------------

    def effective_gamma(self, t: int) -> float:
        """The discount applied at within-episode step ``t`` (1-based)."""
        return self.gamma ** t if self.discount_power else self.gamma

    def update(
        self,
        state: Hashable,
        action: Hashable,
        reward: float,
        next_state: Hashable,
        next_actions: List[Hashable],
        t: int,
    ) -> float:
        """One Eq.-3 update; returns the TD error δ."""
        future = self.qtable.max_value(next_state, next_actions)
        delta = (
            reward
            + self.effective_gamma(t) * future
            - self.qtable.value(state, action)
        )
        self.qtable.add(state, action, self.alpha * delta)
        return delta

    # -- training loop -------------------------------------------------------

    def run_episode(self, env: DiscreteEnv) -> EpisodeStats:
        """One full episode of acting + learning."""
        state = env.reset()
        stats = EpisodeStats(episode=len(self.history), steps=0, total_reward=0.0)
        for t in range(1, self.max_steps + 1):
            actions = env.actions(state)
            if not actions:
                break  # terminal
            action = self.policy.choose(self.qtable, state, actions, self._rng)
            next_state, reward, done = env.step(action)
            next_actions = [] if done else env.actions(next_state)
            self.update(state, action, reward, next_state, next_actions, t)
            stats.steps += 1
            stats.total_reward += reward
            stats.rewards.append(reward)
            state = next_state
            if done:
                break
        else:
            raise ValidationError(
                f"episode exceeded max_steps={self.max_steps}; "
                "the environment may not terminate"
            )
        self.policy.episode_finished()
        self.history.append(stats)
        return stats

    def train(self, env: DiscreteEnv, episodes: int) -> List[EpisodeStats]:
        """Run ``episodes`` episodes; returns their stats."""
        if episodes < 1:
            raise ValidationError("episodes must be >= 1")
        return [self.run_episode(env) for _ in range(episodes)]

    def greedy_action(self, state: Hashable, actions: List[Hashable]) -> Hashable:
        """Pure-exploitation action (for extracting the learned policy)."""
        return self.qtable.best_action(state, actions)
