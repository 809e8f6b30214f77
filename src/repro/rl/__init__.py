"""Reinforcement-learning core: Q-tables, policies, rewards and agents.

Implements the paper's §II machinery — tabular Q-learning (Algorithm 1)
with the ε-greedy convention *as written in the paper* (ε is the
probability of exploiting, not exploring) — plus the Costa-et-al.-derived
reward function of §III-B, and SARSA / Double Q-learning variants used by
the ablation benchmarks.
"""

from repro.rl.qtable import QTable
from repro.rl.policy import (
    ActionPolicy,
    EpsilonGreedyPolicy,
    DecayingEpsilonPolicy,
    SoftmaxPolicy,
)
from repro.rl.reward import PerformanceReward, VmPerformanceTracker
from repro.rl.cost_reward import CostAwarePerformanceReward
from repro.rl.qlearning import QLearningAgent, EpisodeStats
from repro.rl.sarsa import SarsaAgent
from repro.rl.qlambda import QLambdaAgent
from repro.rl.double_q import DoubleQAgent
from repro.rl.environment import DiscreteEnv, WORKFLOW_STATES
from repro.rl.toy import ChainEnv, CliffWalk, GridWorld, TwoArmBandit

__all__ = [
    "QTable",
    "ActionPolicy",
    "EpsilonGreedyPolicy",
    "DecayingEpsilonPolicy",
    "SoftmaxPolicy",
    "PerformanceReward",
    "CostAwarePerformanceReward",
    "VmPerformanceTracker",
    "QLearningAgent",
    "EpisodeStats",
    "SarsaAgent",
    "QLambdaAgent",
    "DoubleQAgent",
    "DiscreteEnv",
    "WORKFLOW_STATES",
    "ChainEnv",
    "TwoArmBandit",
    "GridWorld",
    "CliffWalk",
]
