"""Small reference MDPs, and a training loop that runs ReASSIgN's rules on them.

The environments are standard ones from the RL literature, sized so
full convergence takes milliseconds.  Each has ``reset() -> state``,
``actions(state) -> list`` (empty iff terminal) and
``step(action) -> (next_state, reward, done)``.

:func:`train` runs episodes on one of them through the code the
reproduction learns with: :class:`~repro.rl.qtable.QTable`,
:class:`~repro.rl.policy.EpsilonGreedyPolicy`, the update rules of
:mod:`repro.rl.td` and the paper's γ^t discount, with hyper-parameters
validated by :class:`~repro.core.reassign.ReassignParams`.  It follows
``ReassignScheduler``'s structure: SARSA defers each update until the
next action is chosen and flushes the last one with a future of 0, and
Double-Q acts on Q_A alone.  The textbook checks in ``test_rl_agents``
and ``test_rl_toy`` therefore test the rules the scheduler runs.
"""

from dataclasses import dataclass
from typing import Optional

from repro.core.reassign import ReassignParams
from repro.rl.policy import EpsilonGreedyPolicy
from repro.rl.qtable import QTable
from repro.rl.td import (
    discount,
    doubleq_future,
    doubleq_roles,
    eq3_update,
    qlearning_future,
    sarsa_future,
)
from repro.util.rng import RngService
from repro.util.validate import ValidationError


class ChainEnv:
    """States 0..n; 'right' reaches the +10 goal, 'left' retreats.

    Optimal policy: always 'right'.  The per-step −0.1 makes dawdling
    costly, so value must propagate the terminal reward back along the
    chain — the classic credit-assignment benchmark.
    """

    def __init__(self, n=5):
        if n < 1:
            raise ValidationError("chain length must be >= 1")
        self.n = n
        self.state = 0

    def reset(self):
        self.state = 0
        return 0

    def actions(self, state):
        return [] if state >= self.n else ["left", "right"]

    def step(self, action):
        if action == "right":
            self.state += 1
        else:
            self.state = max(0, self.state - 1)
        done = self.state >= self.n
        return self.state, (10.0 if done else -0.1), done


class TwoArmBandit:
    """One state, two deterministic arms (1.0 vs 0.2).

    The smallest possible check that a rule's argmax and update wiring
    agree: after training, Q('s', 'good') must approach 1.0.
    """

    def reset(self):
        return "s"

    def actions(self, state):
        return [] if state == "done" else ["good", "bad"]

    def step(self, action):
        return "done", (1.0 if action == "good" else 0.2), True


class GridWorld:
    """A w×h grid: start at (0, 0), goal at the opposite corner.

    Moves cost −1; reaching the goal pays +20.  Optimal return is
    ``20 - (w + h - 2)``.
    """

    MOVES = {"up": (0, -1), "down": (0, 1), "left": (-1, 0), "right": (1, 0)}

    def __init__(self, width=4, height=4):
        if width < 2 or height < 2:
            raise ValidationError("grid must be at least 2x2")
        self.width = width
        self.height = height
        self.pos = (0, 0)

    @property
    def goal(self):
        return (self.width - 1, self.height - 1)

    def reset(self):
        self.pos = (0, 0)
        return self.pos

    def actions(self, state):
        return [] if state == self.goal else sorted(self.MOVES)

    def step(self, action):
        dx, dy = self.MOVES[action]
        x = min(max(self.pos[0] + dx, 0), self.width - 1)
        y = min(max(self.pos[1] + dy, 0), self.height - 1)
        self.pos = (x, y)
        done = self.pos == self.goal
        return self.pos, (20.0 if done else -1.0), done


class CliffWalk:
    """Sutton & Barto's cliff: the shortest path skirts a −100 drop.

    The canonical environment separating Q-learning (walks the cliff
    edge — optimal but risky under an exploring policy) from SARSA
    (learns the safer detour).  Stepping off the cliff returns to the
    start with −100; reaching the goal ends the episode.
    """

    def __init__(self, width=6):
        if width < 3:
            raise ValidationError("cliff width must be >= 3")
        self.width = width
        self.height = 3
        self.pos = (0, self.height - 1)

    @property
    def goal(self):
        return (self.width - 1, self.height - 1)

    def reset(self):
        self.pos = (0, self.height - 1)
        return self.pos

    def actions(self, state):
        return [] if state == self.goal else ["up", "down", "left", "right"]

    def step(self, action):
        dx, dy = GridWorld.MOVES[action]
        x = min(max(self.pos[0] + dx, 0), self.width - 1)
        y = min(max(self.pos[1] + dy, 0), self.height - 1)
        # the bottom row between start and goal is the cliff
        if y == self.height - 1 and 0 < x < self.width - 1:
            self.pos = (0, self.height - 1)
            return self.pos, -100.0, False
        self.pos = (x, y)
        if self.pos == self.goal:
            return self.pos, 0.0, True
        return self.pos, -1.0, False


@dataclass
class Trained:
    """What :func:`train` learned: Q (Q_A for Double-Q) and Q_B."""

    qtable: QTable
    qtable_b: Optional[QTable] = None

    def greedy_action(self, state, actions):
        """Pure exploitation over the table the behaviour policy reads."""
        return self.qtable.best_action(state, actions)


def train(
    env,
    rule="qlearning",
    *,
    episodes,
    alpha=0.5,
    gamma=1.0,
    epsilon=0.1,
    epsilon_is_exploration=False,
    discount_power=True,
    seed=0,
    max_steps=100_000,
):
    """Learn on ``env`` for ``episodes`` episodes with ``rule``.

    ``epsilon`` follows the paper's text by default (the exploit
    probability); ``discount_power`` applies γ^t at within-episode step
    t.  Raises :class:`ValidationError` for bad hyper-parameters and for
    an episode longer than ``max_steps``.
    """
    params = ReassignParams(
        alpha=alpha,
        gamma=gamma,
        epsilon=epsilon,
        episodes=episodes,
        discount_power=discount_power,
        rule=rule,
        epsilon_is_exploration=epsilon_is_exploration,
    )
    rngs = RngService(seed)
    qtable = QTable(init_scale=params.qtable_init_scale, seed=seed)
    qtable_b = coin = None
    if rule == "doubleq":
        qtable_b = QTable(
            init_scale=params.qtable_init_scale,
            seed=rngs.spawn_seed("qtable-b"),
        )
        coin = rngs.stream("toy-doubleq-coin")
    policy = EpsilonGreedyPolicy(
        params.epsilon, epsilon_is_exploration=params.epsilon_is_exploration
    )
    rng = rngs.stream("toy-policy")
    for _ in range(params.episodes):
        state = env.reset()
        pending = None  # SARSA's deferred (s, a, r, gamma_t)
        for t in range(1, max_steps + 1):
            actions = env.actions(state)
            if not actions:
                break
            action = policy.choose(qtable, state, actions, rng)
            if pending is not None:
                future = sarsa_future(qtable, state, action)
                eq3_update(qtable, *pending, future, params.alpha)
                pending = None
            next_state, reward, done = env.step(action)
            gamma_t = discount(params.gamma, t, params.discount_power)
            if rule == "sarsa":
                pending = (state, action, reward, gamma_t)
            else:
                next_actions = [] if done else env.actions(next_state)
                if rule == "doubleq":
                    learn, evaluate = doubleq_roles(coin, qtable, qtable_b)
                    future = doubleq_future(
                        learn, evaluate, next_state, next_actions
                    )
                else:
                    learn = qtable
                    future = qlearning_future(learn, next_state, next_actions)
                eq3_update(
                    learn, state, action, reward, gamma_t, future, params.alpha
                )
            state = next_state
            if done:
                break
        else:
            raise ValidationError(
                f"episode exceeded max_steps={max_steps}; "
                "the environment may not terminate"
            )
        if pending is not None:
            eq3_update(qtable, *pending, 0.0, params.alpha)
    return Trained(qtable, qtable_b)
