"""Reinforcement-learning core: the Q-table, the policy, rewards, TD rules.

Implements the paper's §II machinery — tabular Q-learning (Algorithm 1)
with an ε-greedy policy that supports both ε conventions (the policy
class defaults to the paper's literal text, where ε is the probability
of exploiting; :class:`~repro.core.reassign.ReassignParams` defaults to
the textbook one, where ε explores, which is what the paper's Table III
data supports) — plus the Costa-et-al.-derived reward function of
§III-B, and the SARSA / Double Q-learning update rules
(:mod:`repro.rl.td`) used by the ablation benchmarks.
"""

from typing import TYPE_CHECKING

from repro import lazy_namespace

__getattr__, __dir__ = lazy_namespace(__name__, {
    "qtable": ("QTable",),
    "policy": ("EpsilonGreedyPolicy",),
    "reward": ("PerformanceReward",),
    "cost_reward": ("CostAwarePerformanceReward",),
    "environment": ("WORKFLOW_STATES",),
})

if TYPE_CHECKING:
    from repro.rl.cost_reward import CostAwarePerformanceReward
    from repro.rl.environment import WORKFLOW_STATES
    from repro.rl.policy import EpsilonGreedyPolicy
    from repro.rl.qtable import QTable
    from repro.rl.reward import PerformanceReward

__all__ = [
    "QTable",
    "EpsilonGreedyPolicy",
    "PerformanceReward",
    "CostAwarePerformanceReward",
    "WORKFLOW_STATES",
]
