"""Ablations A1–A4 — design choices the paper leaves unexplored.

- **A1 reward shape**: sweep the reward's µ (execution-vs-queue balance)
  and ρ (smoothing) — the two §III-B constants the paper fixes at 0.5;
- **A2 update rule**: Q-learning (the paper) vs SARSA vs Double
  Q-learning vs an always-random policy, same budget;
- **A3 workloads**: HEFT vs ReASSIgN across all five Pegasus benchmark
  workflows and larger Montage instances (the paper's stated future
  work);
- **A4 episode budget**: the "more episodes → better plans" conjecture,
  as a learning curve over increasing maxIter;
- **A5 robustness**: (a) execution under calm/default/stormy cloud noise
  profiles, (b) spot-instance revocations — where static plans deadlock
  (their target VM is gone) while online schedulers, including ReASSIgN
  run online, reroute and finish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.reassign import ReassignLearner, ReassignParams
from repro.dag.graph import Workflow
from repro.experiments.environments import fleet_for
from repro.runner import ParallelRunner, Task
from repro.schedulers.heft import HeftScheduler
from repro.schedulers.base import PlanFollowingScheduler
from repro.sim.kernel import EpisodeKernel
from repro.sim.fluctuation import BurstThrottleFluctuation
from repro.util.tables import render_table
from repro.workflows.montage import montage
from repro.workflows.registry import make_workflow

__all__ = [
    "RewardAblationRow",
    "run_reward_ablation",
    "run_rule_ablation",
    "run_workload_ablation",
    "run_episode_ablation",
    "run_noise_robustness",
    "run_revocation_ablation",
    "run_cost_ablation",
    "run_execution_mode_ablation",
    "run_state_ablation",
    "run_clustering_ablation",
    "run_memory_ablation",
]

_LEARNING_FLUCTUATION = dict(credit_seconds=240.0, throttle_factor=1.7)


def _replay_kernel(workflow: Workflow, fleet) -> EpisodeKernel:
    """Learning-simulator kernel (throttle included), reusable per replay."""
    return EpisodeKernel(
        workflow,
        fleet,
        fluctuation=BurstThrottleFluctuation(**_LEARNING_FLUCTUATION),
    )


# -- A1: reward constants -----------------------------------------------------


@dataclass(frozen=True)
class RewardAblationRow:
    mu: float
    rho: float
    simulated_makespan: float
    mean_final_reward: float


def _reward_cell(payload, seed: int) -> RewardAblationRow:
    """One (µ, ρ) arm of ablation A1 (module-level for the runner)."""
    wf, vcpus, mu, rho, episodes = payload
    params = ReassignParams(
        alpha=0.5, gamma=1.0, epsilon=0.1, mu=mu, rho=rho, episodes=episodes
    )
    result = ReassignLearner(wf, fleet_for(vcpus), params, seed=seed).learn()
    final_rewards = [e.final_reward for e in result.episodes]
    return RewardAblationRow(
        mu=mu,
        rho=rho,
        simulated_makespan=result.simulated_makespan,
        mean_final_reward=sum(final_rewards) / len(final_rewards),
    )


def run_reward_ablation(
    workflow: Optional[Workflow] = None,
    *,
    mus: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    rhos: Sequence[float] = (0.1, 0.5, 0.9),
    vcpus: int = 16,
    episodes: int = 50,
    seed: int = 0,
    workers: Optional[int] = 1,
) -> List[RewardAblationRow]:
    """Sweep µ and ρ; returns one row per combination (grid order)."""
    wf = workflow if workflow is not None else montage(50, seed=seed)
    # every (µ, ρ) cell simulates the same workflow/fleet/environment, so
    # workers sharing a kernel rebuild it once instead of once per cell
    fingerprint = ReassignLearner(wf, fleet_for(vcpus)).kernel_fingerprint()
    tasks = [
        Task(
            key=("reward", mu, rho),
            fn=_reward_cell,
            payload=(wf, vcpus, mu, rho, episodes),
            seed=seed,
            kernel_fingerprint=fingerprint,
        )
        for mu in mus
        for rho in rhos
    ]
    runner = ParallelRunner(workers=workers, run_id="ablation-a1", seed=seed)
    return [r.value for r in runner.run(tasks)]


def render_reward_ablation(rows: Sequence[RewardAblationRow]) -> str:
    return render_table(
        ["mu", "rho", "simulated makespan [s]", "mean final reward"],
        [
            (r.mu, r.rho, round(r.simulated_makespan, 2), round(r.mean_final_reward, 4))
            for r in rows
        ],
        title="Ablation A1: reward constants (alpha=0.5, gamma=1.0, epsilon=0.1)",
    )


# -- A2: update rule -----------------------------------------------------------


def _rule_cell(payload, seed: int) -> float:
    """One (rule, seed) arm of ablation A2: its simulated makespan."""
    workflow, vcpus, episodes, rule, epsilon = payload
    wf = workflow if workflow is not None else montage(50, seed=seed)
    params = ReassignParams(
        alpha=0.5, gamma=1.0, epsilon=epsilon, episodes=episodes, rule=rule
    )
    result = ReassignLearner(wf, fleet_for(vcpus), params, seed=seed).learn()
    return result.simulated_makespan


def run_rule_ablation(
    workflow: Optional[Workflow] = None,
    *,
    vcpus: int = 16,
    episodes: int = 50,
    seeds: Sequence[int] = (0, 1, 2),
    workers: Optional[int] = 1,
) -> Dict[str, float]:
    """Mean simulated makespan per update rule (plus the random policy).

    "random" is ReASSIgN with ε = 0 under the paper's convention: the
    best action is *never* taken, every choice is uniform — learning still
    happens but the extracted greedy plan reflects an untargeted Q.

    Arms fan out as (rule × seed) tasks through the runner; each task
    carries its explicit seed, so results match serial execution exactly.
    """
    # "random" = qlearning with epsilon=0 (never exploit during learning)
    arms = [
        ("qlearning", 0.1), ("sarsa", 0.1), ("doubleq", 0.1),
        ("random-exploration-only", 0.0),
    ]
    # with an explicit workflow every arm shares one kernel config; with
    # workflow=None each cell builds a per-seed montage in the worker, so
    # there is no shared kernel to declare
    fingerprint = (
        ReassignLearner(workflow, fleet_for(vcpus)).kernel_fingerprint()
        if workflow is not None
        else None
    )
    tasks = [
        Task(
            key=("rule", label, seed),
            fn=_rule_cell,
            payload=(
                workflow, vcpus, episodes,
                "qlearning" if label == "random-exploration-only" else label,
                epsilon,
            ),
            seed=seed,
            kernel_fingerprint=fingerprint,
        )
        for label, epsilon in arms
        for seed in seeds
    ]
    runner = ParallelRunner(workers=workers, run_id="ablation-a2", seed=0)
    results = runner.run(tasks)
    out: Dict[str, float] = {}
    for i, (label, _) in enumerate(arms):
        chunk = results[i * len(seeds) : (i + 1) * len(seeds)]
        out[label] = sum(r.value for r in chunk) / len(chunk)
    return out


# -- A3: workloads --------------------------------------------------------------


def _workload_cell(payload, seed: int) -> Tuple[str, float, float]:
    """One workload arm of A3: (name, HEFT makespan, ReASSIgN makespan)."""
    name, size, vcpus, episodes = payload
    wf = make_workflow(name, size, seed=seed)
    fleet = fleet_for(vcpus)
    kernel = _replay_kernel(wf, fleet)
    heft_plan = HeftScheduler(kernel.estimate_model()).plan(wf, fleet)
    heft_mk = kernel.run_episode(PlanFollowingScheduler(heft_plan), 0).makespan
    params = ReassignParams(alpha=0.5, gamma=1.0, epsilon=0.1, episodes=episodes)
    result = ReassignLearner(wf, fleet, params, seed=seed).learn()
    return (wf.name, heft_mk, result.simulated_makespan)


def run_workload_ablation(
    *,
    vcpus: int = 32,
    episodes: int = 50,
    seed: int = 0,
    workloads: Sequence[Tuple[str, int]] = (
        ("montage", 25),
        ("montage", 50),
        ("montage", 100),
        ("cybershake", 30),
        ("epigenomics", 24),
        ("inspiral", 30),
        ("sipht", 30),
    ),
    workers: Optional[int] = 1,
) -> List[Tuple[str, float, float]]:
    """(workload, HEFT makespan, ReASSIgN makespan) per workflow.

    Both plans are replayed in the same throttle-aware simulator so the
    comparison is apples-to-apples.  Workload arms run as one runner
    batch; rows come back in the ``workloads`` order.
    """
    tasks = [
        Task(
            key=("workload", name, size),
            fn=_workload_cell,
            payload=(name, size, vcpus, episodes),
            seed=seed,
        )
        for name, size in workloads
    ]
    runner = ParallelRunner(workers=workers, run_id="ablation-a3", seed=seed)
    return [r.value for r in runner.run(tasks)]


# -- A4: episode budget -----------------------------------------------------------


def run_episode_ablation(
    workflow: Optional[Workflow] = None,
    *,
    vcpus: int = 16,
    budgets: Sequence[int] = (10, 25, 50, 100, 200),
    seed: int = 0,
) -> List[Tuple[int, float, float]]:
    """(episodes, simulated makespan, best episode makespan) per budget."""
    wf = workflow if workflow is not None else montage(50, seed=seed)
    fleet = fleet_for(vcpus)
    rows: List[Tuple[int, float, float]] = []
    for budget in budgets:
        params = ReassignParams(alpha=0.5, gamma=1.0, epsilon=0.1, episodes=budget)
        result = ReassignLearner(wf, fleet, params, seed=seed).learn()
        rows.append(
            (budget, result.simulated_makespan, result.best_episode.makespan)
        )
    return rows


# -- A5: robustness ---------------------------------------------------------


def run_noise_robustness(
    workflow: Optional[Workflow] = None,
    *,
    vcpus: int = 32,
    episodes: int = 50,
    seed: int = 0,
) -> List[Tuple[str, float, float]]:
    """(profile, HEFT time, ReASSIgN time) on calm/default/stormy clouds.

    Both schedulers' plans are fixed once, then executed through the MPI
    engine under each noise profile — isolating environmental noise from
    plan quality.
    """
    from repro.experiments.environments import fleet_spec_for
    from repro.scicumulus.cloud import CloudProfile
    from repro.scicumulus.swfms import SciCumulusRL

    wf = workflow if workflow is not None else montage(50, seed=seed)
    fleet = fleet_for(vcpus)
    spec = fleet_spec_for(vcpus)
    heft_plan = HeftScheduler().plan(wf, fleet)
    params = ReassignParams(alpha=0.5, gamma=1.0, epsilon=0.1, episodes=episodes)
    rl_plan = ReassignLearner(wf, fleet, params, seed=seed).learn().plan

    rows: List[Tuple[str, float, float]] = []
    for label, profile in (
        ("calm", CloudProfile.calm()),
        ("default", CloudProfile()),
        ("stormy", CloudProfile.stormy()),
    ):
        swfms = SciCumulusRL(cloud_profile=profile, seed=seed)
        heft_time = swfms.execute_plan(
            wf, spec, heft_plan, "HEFT"
        ).total_execution_time
        rl_time = swfms.execute_plan(
            wf, spec, rl_plan, "ReASSIgN"
        ).total_execution_time
        rows.append((label, heft_time, rl_time))
    return rows


def run_revocation_ablation(
    workflow: Optional[Workflow] = None,
    *,
    vcpus: int = 16,
    mean_lifetime: float = 150.0,
    spot_fraction: float = 0.5,
    seed: int = 0,
) -> List[Tuple[str, str, float]]:
    """(scheduler, outcome, makespan) under spot revocations.

    Static plans target specific VMs, so losing one mid-run deadlocks the
    replay ("deadlocked" outcome, makespan inf); online schedulers —
    including ReASSIgN acting online — reroute to survivors.
    """
    from repro.schedulers.online import GreedyOnlineScheduler
    from repro.sim.simulator import SimulationError
    from repro.sim.spot import PoissonRevocations
    from repro.core.reassign import ReassignScheduler

    wf = workflow if workflow is not None else montage(50, seed=seed)
    fleet = fleet_for(vcpus)
    kernel = EpisodeKernel(
        wf,
        fleet,
        revocations=PoissonRevocations(
            mean_lifetime=mean_lifetime, spot_fraction=spot_fraction
        ),
    )
    heft_plan = HeftScheduler(kernel.estimate_model()).plan(wf, fleet)
    candidates = [
        ("HEFT (static plan)", PlanFollowingScheduler(heft_plan)),
        ("Greedy online", GreedyOnlineScheduler()),
        (
            "ReASSIgN online",
            ReassignScheduler(
                ReassignParams(alpha=0.5, gamma=1.0, epsilon=0.1), seed=seed
            ),
        ),
    ]
    # one kernel for all candidates: a deadlocked episode (SimulationError
    # mid-run) leaves it pristine for the next scheduler via run_episode's
    # scrub-on-exception guarantee
    rows: List[Tuple[str, str, float]] = []
    for label, scheduler in candidates:
        try:
            result = kernel.run_episode(scheduler, seed)
            rows.append((label, result.final_state, result.makespan))
        except SimulationError:
            rows.append((label, "deadlocked", float("inf")))
    return rows


# -- A6: cost-awareness -------------------------------------------------------


def run_cost_ablation(
    workflow: Optional[Workflow] = None,
    *,
    vcpus: int = 16,
    episodes: int = 50,
    weights: Sequence[float] = (0.0, 0.25, 0.5, 1.0, 2.0),
    seed: int = 0,
) -> List[Tuple[float, float, float, int]]:
    """(cost_weight, makespan, usage cost [$], activations on 2xlarge).

    Sweeps :class:`~repro.rl.cost_reward.CostAwarePerformanceReward`'s
    weight: 0 is the paper's pure-time reward; growing weights should
    push work off the expensive 2xlarge (fewer activations there, lower
    pay-per-use cost) at some makespan premium — a Pareto trade-off.
    """
    from repro.rl.cost_reward import CostAwarePerformanceReward
    from repro.sim.network import SharedStorageNetwork

    wf = workflow if workflow is not None else montage(50, seed=seed)
    fleet = fleet_for(vcpus)
    big = {vm.id for vm in fleet if vm.capacity > 1}
    replay_kernel = EpisodeKernel(
        wf,
        fleet,
        network=SharedStorageNetwork(),
        fluctuation=BurstThrottleFluctuation(
            credit_seconds=60.0, throttle_factor=2.0
        ),
    )
    rows: List[Tuple[float, float, float, int]] = []
    for weight in weights:
        params = ReassignParams(
            alpha=0.5, gamma=1.0, epsilon=0.1, episodes=episodes
        )
        reward = CostAwarePerformanceReward(fleet, cost_weight=weight)
        result = ReassignLearner(
            wf, fleet, params, seed=seed, reward=reward
        ).learn()
        replay = replay_kernel.run_episode(
            PlanFollowingScheduler(result.plan), seed
        )
        on_big = sum(1 for v in result.plan.assignment.values() if v in big)
        rows.append((weight, replay.makespan, replay.usage_cost(), on_big))
    return rows


# -- A7: plan-based vs online cloud execution -----------------------------------


def run_execution_mode_ablation(
    workflow: Optional[Workflow] = None,
    *,
    vcpus: int = 32,
    episodes: int = 50,
    seed: int = 0,
) -> List[Tuple[str, float]]:
    """(mode, cloud execution time) for plan-based vs online ReASSIgN.

    Both modes start from the same simulator-trained Q-table; "online"
    keeps deciding (and learning) during the cloud run, which pays off
    when the region is noisy.
    """
    from repro.core.reassign import ReassignScheduler
    from repro.experiments.environments import fleet_spec_for
    from repro.scicumulus.cloud import CloudProfile
    from repro.scicumulus.online import execute_online
    from repro.scicumulus.swfms import SciCumulusRL

    wf = workflow if workflow is not None else montage(50, seed=seed)
    fleet = fleet_for(vcpus)
    params = ReassignParams(alpha=0.5, gamma=1.0, epsilon=0.1, episodes=episodes)
    learner = ReassignLearner(wf, fleet, params, seed=seed)
    learned = learner.learn()

    profile = CloudProfile.stormy()
    swfms = SciCumulusRL(cloud_profile=profile, seed=seed)
    plan_time = swfms.execute_plan(
        wf, fleet_spec_for(vcpus), learned.plan, "ReASSIgN-plan"
    ).total_execution_time

    online_learning = ReassignScheduler(
        params,
        qtable=learner.scheduler.qtable,
        reward=learner.scheduler.reward,
        seed=seed,
        learning=True,
    )
    online_learning_time = execute_online(
        wf, fleet, online_learning, profile=profile, seed=seed
    ).makespan

    online_greedy = ReassignScheduler(
        params,
        qtable=learner.scheduler.qtable,
        seed=seed,
        learning=False,  # pure exploitation, still reacts to idle/busy
    )
    online_greedy_time = execute_online(
        wf, fleet, online_greedy, profile=profile, seed=seed
    ).makespan
    return [
        ("plan-based", plan_time),
        ("online-greedy", online_greedy_time),
        ("online-learning", online_learning_time),
    ]


# -- A8: state-space granularity -------------------------------------------------


def _state_cell(payload, seed: int) -> float:
    """One (buckets, seed) arm of A8: its simulated makespan."""
    workflow, vcpus, episodes, n_buckets = payload
    wf = workflow if workflow is not None else montage(50, seed=seed)
    params = ReassignParams(
        alpha=0.5, gamma=1.0, epsilon=0.1, episodes=episodes,
        state_buckets=n_buckets,
    )
    result = ReassignLearner(wf, fleet_for(vcpus), params, seed=seed).learn()
    return result.simulated_makespan


def run_state_ablation(
    workflow: Optional[Workflow] = None,
    *,
    vcpus: int = 16,
    episodes: int = 50,
    buckets: Sequence[int] = (1, 2, 4, 8),
    seeds: Sequence[int] = (0, 1, 2),
    workers: Optional[int] = 1,
) -> List[Tuple[int, float]]:
    """(state_buckets, mean simulated makespan) per granularity.

    buckets = 1 is the paper's single aggregated *available* state — in
    which the TD bootstrap term cancels across actions (docs/rl.md).
    Splitting it by workflow progress gives the value function something
    to condition on; the ablation measures whether that pays.
    """
    fingerprint = (
        ReassignLearner(workflow, fleet_for(vcpus)).kernel_fingerprint()
        if workflow is not None
        else None
    )
    tasks = [
        Task(
            key=("state", n_buckets, seed),
            fn=_state_cell,
            payload=(workflow, vcpus, episodes, n_buckets),
            seed=seed,
            kernel_fingerprint=fingerprint,
        )
        for n_buckets in buckets
        for seed in seeds
    ]
    runner = ParallelRunner(workers=workers, run_id="ablation-a8", seed=0)
    results = runner.run(tasks)
    rows: List[Tuple[int, float]] = []
    for i, n_buckets in enumerate(buckets):
        chunk = results[i * len(seeds) : (i + 1) * len(seeds)]
        rows.append((n_buckets, sum(r.value for r in chunk) / len(chunk)))
    return rows


# -- A9: task clustering under dispatch overhead -----------------------------------


def run_clustering_ablation(
    workflow: Optional[Workflow] = None,
    *,
    vcpus: int = 16,
    dispatch_overhead: float = 2.0,
    seed: int = 0,
) -> List[Tuple[str, int, float]]:
    """(strategy, n_jobs, makespan) with expensive per-dispatch overheads.

    WorkflowSim clusters tasks precisely because every dispatch costs
    coordination time.  With a ``dispatch_overhead``-second charge per
    job (modelled through the MPI-overhead network), horizontal and
    vertical clustering amortize that cost; with cheap dispatches the
    lost parallelism can dominate instead.
    """
    from repro.dag.clustering import horizontal_clustering, vertical_clustering
    from repro.scicumulus.mpi_sim import MpiConfig
    from repro.scicumulus.online import MpiOverheadNetwork
    from repro.sim.network import SharedStorageNetwork

    wf = workflow if workflow is not None else montage(50, seed=seed)
    fleet = fleet_for(vcpus)
    network = MpiOverheadNetwork(
        SharedStorageNetwork(),
        MpiConfig(message_latency=dispatch_overhead / 2,
                  master_overhead=dispatch_overhead / 2),
    )

    def makespan(target_wf, plan) -> float:
        # each clustering variant is a different DAG, so each gets its
        # own kernel; the MPI-overhead network keeps planning estimates
        # on the plain nominal model
        kernel = EpisodeKernel(target_wf, fleet, network=network)
        return kernel.run_episode(PlanFollowingScheduler(plan), seed).makespan

    rows: List[Tuple[str, int, float]] = []
    plain_plan = HeftScheduler().plan(wf, fleet)
    rows.append(("none", len(wf), makespan(wf, plain_plan)))

    for label, clustered in (
        ("horizontal(3)", horizontal_clustering(wf, group_size=3)),
        ("vertical", vertical_clustering(wf)),
    ):
        plan = HeftScheduler().plan(clustered.workflow, fleet)
        rows.append(
            (label, len(clustered.workflow), makespan(clustered.workflow, plan))
        )
    return rows


# -- A11: reward memory ------------------------------------------------------------


def run_memory_ablation(
    *,
    workload: Tuple[str, int] = ("inspiral", 30),
    vcpus: int = 32,
    episodes: int = 100,
    seed: int = 4,
) -> List[Tuple[str, float, float]]:
    """(memory mode, final-plan makespan, best-episode makespan).

    The paper accumulates per-VM history over *every* episode.  On some
    workloads that history goes stale: VMs become permanently branded
    good/bad, the crisp reward stops responding to current behaviour,
    and late episodes lock into degraded placements.  Resetting the
    statistics each episode ("episode" memory) keeps the reward live.
    """
    rows: List[Tuple[str, float, float]] = []
    for memory in ("full", "episode"):
        wf = make_workflow(*workload, seed=seed // 2)
        params = ReassignParams(
            alpha=0.5, gamma=1.0, epsilon=0.1, episodes=episodes,
            reward_memory=memory,
        )
        result = ReassignLearner(wf, fleet_for(vcpus), params, seed=seed).learn()
        rows.append(
            (memory, result.simulated_makespan, result.best_episode.makespan)
        )
    return rows
