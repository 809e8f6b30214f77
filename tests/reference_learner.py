"""The object-path reference learner for the byte-identity suites.

``reference_learn(learner)`` runs Algorithm 2 on ``learner`` through
the scheduler-object path only: ``EpisodeKernel.run_episode`` driving
the learner's own ``ReassignScheduler`` for every ``episode:{i}`` seed,
then the paper's final-plan rule (the final episode's realized
schedule, or a greedy replay when that episode failed).  It shares no
code with the fused lane stepper (``repro.core.lane``) that
``ReassignLearner.learn()`` and ``learn_batch`` run, so comparing
against it checks two independently written engines against each
other rather than the stepper against itself.

``scheduler_state(scheduler)`` is everything a learning run leaves on
its scheduler that later calls read: the Q-table, the reward model's
history and smoothed reward, the policy generator and the episode
counters.
"""

from repro.core.episode import EpisodeRecord, LearningResult
from repro.core.reassign import ReassignScheduler
from repro.schedulers.base import SchedulingPlan
from repro.util.rng import RngService


def reference_learn(learner):
    """``learner``'s learning run on the object path (see module doc)."""
    kernel = learner.kernel
    sched = learner.scheduler
    rng = RngService(learner.seed)
    episodes = []
    started = learner._clock()
    for i in range(learner.params.episodes):
        result = kernel.run_episode(sched, rng.spawn_seed(f"episode:{i}"))
        if learner._clock_advance is not None:
            learner._clock_advance(result.makespan)
        episodes.append(
            EpisodeRecord(
                episode=i,
                makespan=result.makespan,
                final_state=result.final_state,
                steps=sched.episode_steps,
                mean_reward=sched.episode_mean_reward,
                final_reward=sched.episode_final_reward,
                assignment=result.assignment,
            )
        )
    learning_time = learner._clock() - started
    if not result.succeeded:
        greedy = ReassignScheduler(
            learner.params, qtable=sched.qtable, reward=sched.reward,
            seed=learner.seed, learning=False,
        )
        result = kernel.run_episode(
            greedy,
            RngService(learner.seed).spawn_seed("greedy"),
        )
        assert result.succeeded, "greedy replay failed"
    order = sorted(result.records, key=lambda r: (r.start_time, r.activation_id))
    plan = SchedulingPlan(
        assignment=result.assignment,
        priority=[r.activation_id for r in order],
        name=f"ReASSIgN({learner.params.label()})",
    )
    return LearningResult(
        plan=plan,
        episodes=episodes,
        learning_time=learning_time,
        simulated_makespan=result.makespan,
        qtable_json=sched.qtable_json(),
    )


def scheduler_state(sched):
    """Comparable snapshot of the state a learning run leaves behind."""
    reward = sched.reward
    return {
        "qtable": sched.qtable_json(),
        "reward_snapshot": reward.snapshot(),
        "global_index": reward.global_index(),
        "index_std": reward.index_std(),
        "reward": reward.reward,
        "policy_rng": sched._rng.bit_generator.state,
        "episode_steps": sched.episode_steps,
        "episode_mean_reward": sched.episode_mean_reward,
    }
