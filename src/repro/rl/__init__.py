"""Reinforcement-learning core: the Q-table, the policy, rewards, TD rules.

Implements the paper's §II machinery — tabular Q-learning (Algorithm 1)
with the ε-greedy convention *as written in the paper* (ε is the
probability of exploiting, not exploring) — plus the Costa-et-al.-derived
reward function of §III-B, and the SARSA / Double Q-learning update
rules (:mod:`repro.rl.td`) used by the ablation benchmarks.
"""

from repro.rl.qtable import QTable
from repro.rl.policy import EpsilonGreedyPolicy
from repro.rl.reward import PerformanceReward, VmPerformanceTracker
from repro.rl.cost_reward import CostAwarePerformanceReward
from repro.rl.environment import WORKFLOW_STATES

__all__ = [
    "QTable",
    "EpsilonGreedyPolicy",
    "PerformanceReward",
    "CostAwarePerformanceReward",
    "VmPerformanceTracker",
    "WORKFLOW_STATES",
]
