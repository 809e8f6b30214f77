"""Tests for the reference environments + classic rule behaviours on them."""

import pytest

from repro.util.validate import ValidationError

from tests.toy_mdps import ChainEnv, CliffWalk, GridWorld, TwoArmBandit, train


class TestGridWorld:
    def test_reachable_goal(self):
        env = GridWorld(3, 3)
        state = env.reset()
        total = 0.0
        for move in ("right", "right", "down", "down"):
            state, r, done = env.step(move)
            total += r
        assert done and state == (2, 2)
        assert total == pytest.approx(20.0 - 3.0)

    def test_walls_clamp(self):
        env = GridWorld(3, 3)
        env.reset()
        state, _, _ = env.step("up")
        assert state == (0, 0)
        state, _, _ = env.step("left")
        assert state == (0, 0)

    def test_goal_is_terminal(self):
        env = GridWorld(2, 2)
        assert env.actions((1, 1)) == []

    def test_q_learning_solves(self):
        env = GridWorld(4, 4)
        agent = train(env, episodes=400, alpha=0.5, gamma=0.95,
                      discount_power=False, epsilon=0.2, seed=3)
        # follow the greedy policy from the start; must reach the goal fast
        state = env.reset()
        for _ in range(12):
            actions = env.actions(state)
            if not actions:
                break
            state, _, done = env.step(agent.greedy_action(state, actions))
            if done:
                break
        assert state == env.goal

    def test_validation(self):
        with pytest.raises(ValidationError):
            GridWorld(1, 5)


class TestCliffWalk:
    def test_cliff_resets_position(self):
        env = CliffWalk(6)
        env.reset()
        state, reward, done = env.step("right")  # walks straight off
        assert reward == -100.0 and not done
        assert state == (0, env.height - 1)

    def test_safe_path_exists(self):
        env = CliffWalk(4)
        env.reset()
        total = 0.0
        for move in ("up", "right", "right", "right", "down"):
            state, r, done = env.step(move)
            total += r
        assert done and state == env.goal
        assert total == pytest.approx(-4.0)

    @pytest.mark.parametrize("rule", ["qlearning", "sarsa"])
    def test_agents_learn_a_safe_route(self, rule):
        """Both rules' greedy policies must reach the goal without ever
        stepping off the cliff."""
        env = CliffWalk(5)
        agent = train(env, rule, episodes=600, alpha=0.4, gamma=0.95,
                      discount_power=False, epsilon=0.15,
                      epsilon_is_exploration=True, seed=11, max_steps=2000)
        state = env.reset()
        steps = 0
        while env.actions(state) and steps < 4 * env.width:
            action = agent.greedy_action(state, env.actions(state))
            state, reward, done = env.step(action)
            assert reward > -100.0, "greedy policy fell off the cliff"
            steps += 1
            if done:
                break
        assert state == env.goal

    def test_qlearning_greedy_path_is_optimal_length(self):
        """Q-learning converges to the shortest (edge-hugging) route:
        up, rights along the row above the cliff, down."""
        env = CliffWalk(5)
        agent = train(env, episodes=600, alpha=0.4, gamma=0.95,
                      discount_power=False, epsilon=0.15,
                      epsilon_is_exploration=True, seed=11, max_steps=2000)
        state = env.reset()
        total = 0.0
        for _ in range(4 * env.width):
            actions = env.actions(state)
            if not actions:
                break
            state, reward, _ = env.step(agent.greedy_action(state, actions))
            total += reward
        assert state == env.goal
        # optimal: (width + 1) moves, last one free -> -(width)
        assert total == pytest.approx(-float(env.width))

    def test_validation(self):
        with pytest.raises(ValidationError):
            CliffWalk(2)


class TestChainAndBandit:
    def test_chain_validation(self):
        with pytest.raises(ValidationError):
            ChainEnv(0)

    def test_bandit_terminal(self):
        env = TwoArmBandit()
        env.reset()
        state, reward, done = env.step("bad")
        assert done and reward == 0.2
        assert env.actions(state) == []

    def test_chain_optimal_return(self):
        env = ChainEnv(4)
        env.reset()
        total = 0.0
        for _ in range(4):
            _, r, done = env.step("right")
            total += r
        assert done
        assert total == pytest.approx(10.0 - 0.3)
