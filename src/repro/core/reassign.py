"""The ReASSIgN algorithm (paper Algorithm 2).

Two pieces:

- :class:`ReassignScheduler` — an
  :class:`~repro.schedulers.base.OnlineScheduler` that makes ε-greedy
  decisions over a Q-table keyed by ``(workflow state, (activation, VM))``
  and performs the Eq.-3 update after every dispatch, using the §III-B
  reward computed from the activation's queue time ``tf`` and execution
  time ``te``;
- :class:`ReassignLearner` — the episode loop: run ``maxIter`` simulated
  executions (episodes) with learning on, carrying the Q-table and the
  per-VM performance history across episodes, then extract the learned
  plan with one pure-exploitation replay.

Faithfulness notes.

1. **ε convention.** The paper's *text* says "with probability ε the
   best action is taken ... otherwise random" (exploit-with-ε).  Its
   *data* says otherwise: Table III degrades monotonically as ε grows
   (259s at ε = 0.1 → 829s at ε = 1.0 for γ = 1.0), which is only
   consistent with the textbook convention (ε = exploration
   probability) — an ε = 1.0 agent behaves uniformly at random and
   produces the bad plans the table shows.  We follow the data:
   ``ReassignParams.epsilon_is_exploration`` defaults to True.  Set it
   False to run the text-literal convention.
2. **The reported plan** is the *final episode's* realized schedule —
   "the generated final scheduling plan" — and the simulated execution
   time (Table III's metric) is that episode's makespan.  A pure-greedy
   replay is additionally available via :meth:`ReassignLearner
   .extract_plan`.
3. **γ^t discounting**: the discount is applied as γ^t with t the
   within-episode decision index, matching Eq. 3 / Algorithm 2 (γ = 1.0
   recovers the standard constant discount; those are the paper's best
   rows).
4. The Q-update happens at dispatch time using the activation's planned
   execution time — possible because the learning environment is a
   simulator that resolves execution time deterministically at dispatch,
   exactly as the paper's sequential Algorithm 2 assumes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.core.episode import EpisodeRecord, LearningResult
from repro.rl.environment import AVAILABLE, UNAVAILABLE
from repro.rl.policy import EpsilonGreedyPolicy
from repro.rl.qtable import QTable
from repro.rl.reward import PerformanceReward
from repro.schedulers.base import Decision, OnlineScheduler, SchedulingPlan
from repro.sim.failures import FailureModel
from repro.sim.fluctuation import BurstThrottleFluctuation, FluctuationModel
from repro.sim.kernel import EpisodeKernel, PendingExecution, kernel_fingerprint
from repro.sim.metrics import SimulationResult
from repro.sim.migration import MigrationModel
from repro.sim.network import NetworkModel
from repro.sim.simulator import SimulationContext
from repro.sim.vm import Vm, as_single_slot
from repro.dag.graph import Workflow
from repro.util.rng import RngService
from repro.util.validate import ValidationError, check_probability

if TYPE_CHECKING:
    from repro.core.lane import EpisodeOutcome

__all__ = [
    "ReassignParams",
    "ReassignScheduler",
    "ReassignLearner",
    "SimulatedLearningClock",
]


class SimulatedLearningClock:
    """Deterministic clock for ``ReassignLearner``'s learning-time metric.

    Starts at 0.0 and advances only when told to (the learner advances it
    by each episode's makespan), so ``learning_time`` becomes the total
    *simulated* seconds spent learning — machine-independent and
    bit-identical across serial/parallel runs, matching
    :attr:`~repro.core.episode.LearningResult.simulated_learning_time`.
    """

    def __init__(self) -> None:
        self._now = 0.0

    def advance(self, seconds: float) -> None:
        """Move the clock forward by ``seconds`` simulated seconds."""
        self._now += float(seconds)

    def __call__(self) -> float:
        return self._now


@dataclass(frozen=True)
class ReassignParams:
    """Hyper-parameters of Algorithm 2.

    ``alpha``, ``gamma``, ``epsilon`` are the swept Q-learning parameters
    (each took values in {0.1, 0.5, 1.0} in the paper); ``mu`` balances
    execution vs queue time in the performance indices (paper: 0.5);
    ``rho`` smooths the crisp reward; ``episodes`` is maxIter (paper: 100).
    """

    alpha: float = 0.5
    gamma: float = 1.0
    epsilon: float = 0.1
    mu: float = 0.5
    rho: float = 0.5
    episodes: int = 100
    discount_power: bool = True
    qtable_init_scale: float = 1e-3
    #: TD update rule: "qlearning" (the paper), "sarsa" or "doubleq"
    #: (ablation A2 variants)
    rule: str = "qlearning"
    #: True (default) = textbook ε-greedy (ε explores) — the reading the
    #: paper's Table III data supports; False = the paper's literal text
    epsilon_is_exploration: bool = True
    #: >1 splits the paper's single "available" state into progress
    #: buckets ("available:p0".."available:p{n-1}" by fraction of
    #: finished activations) — an extension that restores the discount's
    #: role (see docs/rl.md); 1 = the paper's aggregated state
    state_buckets: int = 1
    #: "full" (the paper: per-VM history accumulates over every episode)
    #: or "episode" (statistics reset each episode, keeping the crisp
    #: reward responsive — mitigates the stale-history lock-in that
    #: degrades late episodes on some workloads; see EXPERIMENTS.md)
    reward_memory: str = "full"
    #: Q-table storage backend: "array" (interned dense fast path),
    #: "shard" (sharded, optionally memmap-backed dense storage — see
    #: repro.rl.qshard) or "dict" (legacy sparse table).  Bit-identical
    #: results in all three; "dict" always learns on the scheduler-object
    #: path, the one the equivalence suites take as their reference
    #: (docs/performance.md), while the dense backends learn on the
    #: fused lane stepper.
    qtable_backend: str = "array"

    def __post_init__(self) -> None:
        check_probability("alpha", self.alpha)
        check_probability("gamma", self.gamma)
        check_probability("epsilon", self.epsilon)
        check_probability("mu", self.mu)
        check_probability("rho", self.rho)
        if self.alpha == 0:
            raise ValidationError("alpha must be > 0")
        if self.episodes < 1:
            raise ValidationError("episodes must be >= 1")
        if self.rule not in ("qlearning", "sarsa", "doubleq"):
            raise ValidationError(
                f"rule must be qlearning/sarsa/doubleq, got {self.rule!r}"
            )
        if self.state_buckets < 1:
            raise ValidationError("state_buckets must be >= 1")
        if self.reward_memory not in ("full", "episode"):
            raise ValidationError(
                f"reward_memory must be full/episode, got {self.reward_memory!r}"
            )
        if self.qtable_backend not in ("array", "dict", "shard"):
            raise ValidationError(
                f"qtable_backend must be array/dict/shard, "
                f"got {self.qtable_backend!r}"
            )

    def label(self) -> str:
        """Short table label, e.g. ``a=0.5 g=1.0 e=0.1``."""
        return f"a={self.alpha:g} g={self.gamma:g} e={self.epsilon:g}"


class ReassignScheduler(OnlineScheduler):
    """One episode's decision maker + learner.

    The same instance is reused across episodes so that the Q-table,
    policy RNG and performance history persist (the paper interconnects
    episodes through exactly this state).

    Parameters
    ----------
    params:
        Hyper-parameters.
    qtable / reward:
        Shared learning state; fresh ones are created if omitted.
    learning:
        When False the scheduler is a pure-exploitation replayer (used to
        extract the final plan) — no Q updates, no reward updates.
    """

    def __init__(
        self,
        params: ReassignParams,
        qtable: Optional[QTable] = None,
        reward: Optional[PerformanceReward] = None,
        seed: int = 0,
        learning: bool = True,
    ) -> None:
        self.params = params
        self.qtable = (
            qtable
            if qtable is not None
            else QTable(
                init_scale=params.qtable_init_scale,
                seed=seed,
                backend=params.qtable_backend,
            )
        )
        if params.rule == "doubleq":
            # the behaviour policy reads Q_A + Q_B; updates flip a coin
            self._qtable_b = QTable(
                init_scale=params.qtable_init_scale,
                seed=RngService(seed).spawn_seed("qtable-b"),
                backend=params.qtable_backend,
            )
            # NOT "doubleq-coin": repro.rl.double_q owns that stream name,
            # and sharing it would correlate the two coins under equal
            # root seeds (RL008).
            self._coin = RngService(seed).stream("reassign-doubleq-coin")
        else:
            self._qtable_b = None
            self._coin = None
        self.reward = (
            reward
            if reward is not None
            else PerformanceReward(mu=params.mu, rho=params.rho)
        )
        self.learning = bool(learning)
        if learning:
            self.policy = EpsilonGreedyPolicy(
                params.epsilon,
                epsilon_is_exploration=params.epsilon_is_exploration,
            )
        else:  # pure exploitation (greedy replay)
            self.policy = EpsilonGreedyPolicy(1.0)
        # the fused lane stepper (repro.core.lane) draws from this very
        # generator when it drives this scheduler's learning run
        self._rng = RngService(seed).stream("reassign-policy")
        # per-episode state
        self._t = 1
        self._steps = 0
        self._reward_sum = 0.0
        self._last_state: str = AVAILABLE
        # SARSA carries one pending (s, a, r, gamma_t) between decisions
        self._sarsa_pending: Optional[Tuple[str, Decision, float, float]] = None

    # -- episode lifecycle ---------------------------------------------------

    def on_simulation_start(self, ctx: SimulationContext) -> None:
        """Algorithm 2 per-episode reset: t <- 1, r^t <- 0, s <- available."""
        self._t = 1
        self._steps = 0
        self._reward_sum = 0.0
        self._last_state = AVAILABLE
        self._sarsa_pending = None
        self.reward.start_episode(
            keep_history=(self.params.reward_memory == "full")
        )

    # -- the MDP view ---------------------------------------------------------

    @staticmethod
    def _enumerate_actions(ctx: SimulationContext) -> Sequence[Decision]:
        """The k x m schedule actions available right now.

        The context's cached cross product: the same tuple object comes
        back until the ready or idle set changes, so the Q-table's
        action-id memo hits instead of re-interning every pair.
        """
        return ctx.action_pairs

    def _available_label(self, ctx: SimulationContext) -> str:
        """The (possibly progress-bucketed) available-state label."""
        buckets = self.params.state_buckets
        if buckets <= 1:
            return AVAILABLE
        total = len(ctx.workflow)
        done = ctx.n_finished  # O(1) counter; == non-failed record count
        bucket = min(buckets - 1, int(buckets * done / max(total, 1)))
        return f"{AVAILABLE}:p{bucket}"

    def _observe_state(self, ctx: SimulationContext) -> str:
        """available iff some activation is READY and some VM idle."""
        if ctx.ready_activations and ctx.idle_vms:
            return self._available_label(ctx)
        return UNAVAILABLE

    # -- decisions -----------------------------------------------------------

    def select(self, ctx: SimulationContext) -> Optional[Decision]:
        actions = self._enumerate_actions(ctx)
        if not actions:
            return None  # "do nothing"
        state = self._available_label(ctx)
        self._last_state = state
        action = self.policy.choose(self.qtable, state, actions, self._rng)
        if self.learning and self._sarsa_pending is not None:
            # SARSA's delayed update: we now know the on-policy next action
            s, a, r_t, gamma_t = self._sarsa_pending
            future = self.qtable.value(state, action)
            delta = r_t + gamma_t * future - self.qtable.value(s, a)
            self.qtable.add(s, a, self.params.alpha * delta)
            self._sarsa_pending = None
        return action

    def _gamma_t(self) -> float:
        return (
            self.params.gamma ** self._t
            if self.params.discount_power
            else self.params.gamma
        )

    def _q_update(self, action: Decision, r_t: float, ctx: SimulationContext) -> None:
        """Eq. 3 (Q-learning) or its double-estimator variant."""
        next_state = self._observe_state(ctx)
        next_actions = self._enumerate_actions(ctx)
        gamma_t = self._gamma_t()
        if self.params.rule == "doubleq":
            assert self._qtable_b is not None and self._coin is not None
            if self._coin.random() < 0.5:
                learn, evaluate = self.qtable, self._qtable_b
            else:
                learn, evaluate = self._qtable_b, self.qtable
            if next_actions:
                best = learn.best_action(next_state, next_actions)
                future = evaluate.value(next_state, best)
            else:
                future = 0.0
            delta = r_t + gamma_t * future - learn.value(self._last_state, action)
            learn.add(self._last_state, action, self.params.alpha * delta)
        else:
            future = self.qtable.max_value(next_state, next_actions)
            q_sa = self.qtable.value(self._last_state, action)
            delta = r_t + gamma_t * future - q_sa
            self.qtable.add(self._last_state, action, self.params.alpha * delta)

    def on_dispatched(
        self, ctx: SimulationContext, pending: PendingExecution
    ) -> None:
        """The §III-B/§III-C step: reward + Eq. 3 Q-update for the action."""
        if not self.learning:
            return
        action = (pending.activation_id, pending.vm_id)
        te = pending.planned_execution_time
        tf = pending.queue_time
        r_t = self.reward.step(pending.vm_id, te, tf)
        self._reward_sum += r_t
        if self.params.rule == "sarsa":
            # defer until the next on-policy action is known
            self._sarsa_pending = (self._last_state, action, r_t, self._gamma_t())
        else:
            self._q_update(action, r_t, ctx)
        self._t += 1
        self._steps += 1

    def on_simulation_end(
        self, ctx: SimulationContext, result: SimulationResult
    ) -> None:
        if self.learning and self._sarsa_pending is not None:
            # terminal flush: no next action, future value 0
            s, a, r_t, _ = self._sarsa_pending
            delta = r_t - self.qtable.value(s, a)
            self.qtable.add(s, a, self.params.alpha * delta)
            self._sarsa_pending = None

    def qtable_json(self) -> str:
        """Serialize the learned table (Q_A + Q_B materialized for doubleq)."""
        if self._qtable_b is None:
            return self.qtable.to_json()
        combined = QTable(init_scale=0.0)
        for s, a, v in self.qtable.items():
            combined.set(s, a, v + self._qtable_b.value(s, a))
        return combined.to_json()

    # -- episode summary ------------------------------------------------------

    @property
    def episode_steps(self) -> int:
        return self._steps

    @property
    def episode_mean_reward(self) -> float:
        return self._reward_sum / self._steps if self._steps else 0.0

    @property
    def episode_final_reward(self) -> float:
        return self.reward.reward


class ReassignLearner:
    """Algorithm 2's outer loop: learn over episodes, then emit the plan.

    Parameters
    ----------
    workflow / vms:
        The workload and fleet (the paper: Montage-50 on a Table-I fleet).
    params:
        Hyper-parameters.
    network / fluctuation / failures / migrations:
        Environment models for the *learning* simulator.  The default
        fluctuation is a deterministic burst-throttle model: the paper
        builds its simulation dataset "based on the performance
        requirements of workflows in real executions", and the dominant
        real-execution effect on a t2 fleet is micro-instance credit
        exhaustion.  Being deterministic, it keeps episodes reproducible
        while letting the agent *experience* the dynamic that HEFT's cost
        model cannot express.  Pass
        :class:`~repro.sim.fluctuation.NoFluctuation` for a fully nominal
        environment.
    seed:
        Root seed (policy exploration, Q init, simulator models).
    prior_qtable_json / prior_history:
        Provenance from earlier runs: a serialized Q-table and past
        ``(vm_id, te, tf)`` observations to bootstrap the reward model —
        "all information associated with the previous episodes is loaded
        allowing the progression of learning" (§III-C).
    reward:
        Custom reward model (e.g.
        :class:`~repro.rl.cost_reward.CostAwarePerformanceReward`);
        default is the paper's §III-B reward with the params' µ and ρ.
    clock:
        Zero-argument callable read at the start and end of
        :meth:`learn` to produce ``learning_time``.  Defaults to
        ``time.perf_counter`` (wall clock).  Pass a
        :class:`SimulatedLearningClock` for a deterministic,
        machine-independent metric: the learner advances it by each
        episode's makespan, so ``learning_time`` equals
        ``simulated_learning_time`` (``--timing simulated``).
    """

    def __init__(
        self,
        workflow: Workflow,
        vms: Sequence[Vm],
        params: Optional[ReassignParams] = None,
        *,
        network: Optional[NetworkModel] = None,
        fluctuation: Optional[FluctuationModel] = None,
        failures: Optional[FailureModel] = None,
        migrations: Optional[MigrationModel] = None,
        seed: int = 0,
        max_attempts: int = 1,
        prior_qtable_json: Optional[str] = None,
        prior_history: Optional[List[Tuple[int, float, float]]] = None,
        single_slot_learning: bool = False,
        reward: Optional[PerformanceReward] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.workflow = workflow
        # The default learning fleet is pe-aware (a VM is "idle" while any
        # vCPU slot is free), which is what lets ReASSIgN concentrate work
        # on the 2xlarge as the paper's Table V shows.  Set
        # ``single_slot_learning=True`` for strict one-task-per-VM
        # WorkflowSim processors (the paper's binary idle/busy VM state,
        # taken literally).
        self.vms = as_single_slot(vms) if single_slot_learning else list(vms)
        self.params = params if params is not None else ReassignParams()
        self.seed = int(seed)
        if fluctuation is None:
            # provenance-calibrated default: deterministic micro throttling
            # (a busy micro exhausts its burst credits within an episode)
            fluctuation = BurstThrottleFluctuation(
                credit_seconds=60.0, throttle_factor=2.0
            )
        self._sim_kwargs = dict(
            network=network,
            fluctuation=fluctuation,
            failures=failures,
            migrations=migrations,
            max_attempts=max_attempts,
        )
        # One kernel for the whole learning run: the DAG topology, index
        # maps and nominal estimate caches are built once; each episode
        # only resets the O(n) mutable state (see docs/architecture.md).
        self._kernel: Optional[EpisodeKernel] = None
        self._clock: Callable[[], float] = (
            clock if clock is not None else time.perf_counter
        )
        # duck-typed: only SimulatedLearningClock-style clocks advance
        self._clock_advance: Optional[Callable[[float], None]] = getattr(
            clock, "advance", None
        )
        qtable = (
            QTable.from_json(
                prior_qtable_json,
                seed=seed,
                backend=self.params.qtable_backend,
            )
            if prior_qtable_json
            else None
        )
        self.scheduler = ReassignScheduler(
            self.params, qtable=qtable, reward=reward, seed=seed, learning=True
        )
        if prior_history:
            self.scheduler.reward.bootstrap(prior_history)

    def kernel_fingerprint(self) -> Optional[str]:
        """Structural digest of this learner's kernel configuration.

        ``None`` when an environment model cannot be canonicalized —
        worker-side kernel caching is then skipped for this learner
        (see :func:`repro.sim.kernel.kernel_fingerprint`).
        """
        return kernel_fingerprint(self.workflow, self.vms, **self._sim_kwargs)

    def _build_kernel(self) -> EpisodeKernel:
        return EpisodeKernel(self.workflow, self.vms, **self._sim_kwargs)

    def adopt_kernel(self, kernel: EpisodeKernel, fingerprint: str) -> None:
        """Adopt an externally built kernel (batched-engine sharing).

        :func:`repro.core.batch.learn_batch` groups runs by kernel
        fingerprint and builds one kernel per group; the other runs
        adopt it through here.  ``fingerprint`` is the
        :func:`~repro.sim.kernel.kernel_fingerprint` of the
        configuration that built ``kernel``; it must equal this
        learner's own — episodes only reset the O(n) mutable state, so
        a structurally different kernel would silently change every
        simulated number.
        """
        if self._kernel is not None:
            raise ValidationError(
                "learner already has a kernel; adopt_kernel must run "
                "before the first episode"
            )
        mine = self.kernel_fingerprint()
        if mine is None or mine != fingerprint:
            raise ValidationError(
                "kernel fingerprint mismatch; cannot adopt a kernel "
                "built for a different configuration"
            )
        self._kernel = kernel

    @property
    def kernel(self) -> EpisodeKernel:
        """The learner's episode kernel (built lazily, reused per episode).

        Inside a parallel-runner worker executing a task that declared a
        ``kernel_fingerprint``, the kernel comes from the worker's shared
        cache instead of being rebuilt per task — guarded by recomputing
        the fingerprint here, so a declared fingerprint that does not
        match this learner's actual configuration is simply ignored.
        Safe because ``run_episode`` resets all shared mutable state at
        entry and scrubs it on exit.
        """
        if self._kernel is None:
            from repro.runner.parallel import (
                active_kernel_fingerprint,
                shared_kernel,
            )

            declared = active_kernel_fingerprint()
            if declared is not None and declared == self.kernel_fingerprint():
                self._kernel = shared_kernel(declared, self._build_kernel)
            else:
                self._kernel = self._build_kernel()
        return self._kernel

    def learn(self) -> LearningResult:
        """Run ``params.episodes`` learning episodes and extract the plan.

        The learning environment is deterministic given the seed, so each
        episode replays the same cloud while the policy's exploration
        varies — matching WorkflowSim-based learning in the paper.  All
        episodes reuse one :class:`~repro.sim.kernel.EpisodeKernel`; the
        per-episode seeds (and therefore every simulated number) are
        identical to the historical one-simulator-per-episode path.

        Runs the fused lane stepper covers
        (:func:`~repro.core.lane.fast_lane_eligible`) with the paper's
        own reward drive every episode through
        :func:`repro.core.lane._drive_episode`, all but the last in lite
        mode, over this learner's own Q-table and policy stream; the
        reward state is written back to ``self.scheduler`` at the end.
        The stepper is byte-identical to ``EpisodeKernel.run_episode``
        driving ``self.scheduler``, which every other run still does.
        """
        from repro.core.lane import _drive_episode, _FastLane, fast_lane_eligible

        kernel = self.kernel
        sched = self.scheduler
        # the stepper inlines the paper's reward: a custom reward model
        # (any PerformanceReward subclass) keeps the object path
        fused = (
            fast_lane_eligible(self.params)
            and type(sched.reward) is PerformanceReward
        )
        lane = _FastLane(sched) if fused else None
        rng = RngService(self.seed)
        n = self.params.episodes
        episodes: List[EpisodeRecord] = []
        started = self._clock()
        result: EpisodeOutcome
        for episode_idx in range(n):
            seed = rng.spawn_seed(f"episode:{episode_idx}")
            if lane is None:
                result = kernel.run_episode(sched, seed)
                steps = sched.episode_steps
                mean_reward = sched.episode_mean_reward
                final_reward = sched.episode_final_reward
            else:
                result = _drive_episode(
                    kernel, lane, seed, lite=episode_idx + 1 < n
                )
                steps = lane.steps
                mean_reward = lane.reward_sum / steps if steps else 0.0
                final_reward = lane.reward
            if self._clock_advance is not None:
                self._clock_advance(result.makespan)
            episodes.append(
                EpisodeRecord(
                    episode=episode_idx,
                    makespan=result.makespan,
                    final_state=result.final_state,
                    steps=steps,
                    mean_reward=mean_reward,
                    final_reward=final_reward,
                    assignment=result.assignment,
                )
            )
        if lane is not None:
            lane.write_back(sched)
        learning_time = self._clock() - started
        # the final episode always runs in full (never lite)
        assert isinstance(result, SimulationResult)
        # the paper submits "the generated final scheduling plan": the
        # schedule the final episode realized, whose makespan is the
        # Table III metric; a failed final episode falls back to a
        # greedy replay
        if result.succeeded:
            plan, simulated_makespan = self._plan_of(result), result.makespan
        else:
            plan, simulated_makespan = self.extract_plan()
        return LearningResult(
            plan=plan,
            episodes=episodes,
            learning_time=learning_time,
            simulated_makespan=simulated_makespan,
            qtable_json=sched.qtable_json(),
        )

    def _plan_of(self, result: SimulationResult) -> SchedulingPlan:
        order = sorted(
            result.records, key=lambda r: (r.start_time, r.activation_id)
        )
        return SchedulingPlan(
            assignment=result.assignment,
            priority=[r.activation_id for r in order],
            name=f"ReASSIgN({self.params.label()})",
        )

    def extract_plan(self) -> Tuple[SchedulingPlan, float]:
        """Replay greedily (pure exploitation, learning off) and read the plan.

        Returns the plan and its simulated makespan.  This is the
        alternative to the paper's final-episode plan: a deterministic
        pure-exploitation readout of the learned Q-table.
        """
        greedy = ReassignScheduler(
            self.params,
            qtable=self.scheduler.qtable,
            reward=self.scheduler.reward,
            seed=self.seed,
            learning=False,
        )
        result = self.kernel.run_episode(
            greedy, RngService(self.seed).spawn_seed("greedy")
        )
        if not result.succeeded:
            raise ValidationError(
                "greedy replay did not finish successfully; cannot extract a plan"
            )
        return self._plan_of(result), result.makespan
