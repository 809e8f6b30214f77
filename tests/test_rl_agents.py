"""The TD rules ReASSIgN learns with (repro.rl.td), checked on toy MDPs:
Q-learning, SARSA, Double-Q."""

import pytest

from repro.core.reassign import ReassignParams, ReassignScheduler
from repro.util.validate import ValidationError

from tests.toy_mdps import ChainEnv, TwoArmBandit, train


def greedy_policy_is_right(agent, n=5):
    return all(
        agent.greedy_action(s, ["left", "right"]) == "right" for s in range(n)
    )


def gamma_at(t, **params):
    scheduler = ReassignScheduler(ReassignParams(**params))
    scheduler._t = t
    return scheduler._gamma_t()


class TestQLearningAgent:
    def test_learns_chain(self):
        agent = train(ChainEnv(), episodes=300, alpha=0.5, gamma=0.9,
                      discount_power=False, epsilon=0.3, seed=1)
        assert greedy_policy_is_right(agent)

    def test_learns_bandit(self):
        agent = train(TwoArmBandit(), episodes=100, alpha=0.5, seed=2)
        assert agent.greedy_action("s", ["good", "bad"]) == "good"
        assert agent.qtable.value("s", "good") == pytest.approx(1.0, abs=0.01)

    def test_bandit_q_converges_to_reward(self):
        agent = train(TwoArmBandit(), episodes=50, alpha=1.0, seed=2)
        # terminal next state has value 0, so Q == immediate reward
        assert agent.qtable.value("s", "good") == pytest.approx(1.0)

    def test_discount_power_kills_future(self):
        # gamma^t with gamma=0.1 -> future term ~0 after a couple of steps
        assert gamma_at(1, gamma=0.1, discount_power=True) == pytest.approx(0.1)
        assert gamma_at(3, gamma=0.1, discount_power=True) == pytest.approx(1e-3)

    def test_constant_discount_flag(self):
        assert gamma_at(10, gamma=0.5, discount_power=False) == 0.5

    def test_nonterminating_env_raises(self):
        class Loop:
            def reset(self):
                return 0

            def actions(self, state):
                return ["spin"]

            def step(self, action):
                return 0, 0.0, False

        with pytest.raises(ValidationError):
            train(Loop(), episodes=1, max_steps=50, seed=1)

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValidationError):
            train(TwoArmBandit(), episodes=1, alpha=0.0)

    def test_zero_episodes_rejected(self):
        with pytest.raises(ValidationError):
            train(TwoArmBandit(), episodes=0)


class TestSarsaAgent:
    def test_learns_chain(self):
        agent = train(ChainEnv(), "sarsa", episodes=400, alpha=0.5, gamma=0.9,
                      discount_power=False, epsilon=0.5, seed=3)
        assert greedy_policy_is_right(agent)

    def test_learns_bandit(self):
        agent = train(TwoArmBandit(), "sarsa", episodes=100, alpha=0.5, seed=4)
        assert agent.greedy_action("s", ["good", "bad"]) == "good"

    def test_on_policy_target_differs_from_q(self):
        """On a stochastic policy, SARSA's Q('s') for the chain's first
        state is pulled down by exploratory 'left' moves relative to
        Q-learning — just verify both learn and the tables differ."""
        kw = dict(episodes=100, alpha=0.3, gamma=0.9, discount_power=False,
                  seed=5)
        q = train(ChainEnv(), "qlearning", **kw)
        s = train(ChainEnv(), "sarsa", **kw)
        assert q.qtable.value(0, "right") != s.qtable.value(0, "right")


class TestDoubleQAgent:
    def test_learns_bandit(self):
        agent = train(TwoArmBandit(), "doubleq", episodes=200, alpha=0.5,
                      seed=6)
        assert agent.greedy_action("s", ["good", "bad"]) == "good"

    def test_learns_chain(self):
        agent = train(ChainEnv(), "doubleq", episodes=500, alpha=0.5,
                      gamma=0.9, discount_power=False, epsilon=0.3, seed=7)
        assert greedy_policy_is_right(agent)

    def test_two_tables_updated(self):
        agent = train(TwoArmBandit(), "doubleq", episodes=50, alpha=0.5,
                      seed=8)
        assert len(agent.qtable) > 0
        assert len(agent.qtable_b) > 0
