"""The object-path reference learner for the byte-identity suites.

``reference_learn(learner)`` runs Algorithm 2 on ``learner`` through
the scheduler-object path only: ``EpisodeKernel.run_episode`` driving
the learner's own ``ReassignScheduler`` for every ``episode:{i}`` seed,
then the paper's final-plan rule (the final episode's realized
schedule, or a greedy replay when that episode failed).  It shares no
code with the fused lane stepper (``repro.core.lane``) that
``ReassignLearner.learn()`` runs, so comparing
against it checks two independently written engines against each
other rather than the stepper against itself.

``scheduler_state(scheduler)`` is everything a learning run leaves on
its scheduler that later calls read: the Q-table, the reward model's
history and smoothed reward, the policy generator and the episode
counters.  The reward history is compared in full — the VM order, the
four per-VM lists and the three fleet-wide values the lane updates in
place — not only through the model's readers.  It also pins how the
table got there — the lazy-init stream's generator state and, on a
dense ``QTable``, the known-entry count and the order states and
actions were interned in — so two engines that first-touch entries in
a different order cannot compare equal by landing on the same JSON.

``batch_learners(specs)`` learns each spec as a serial runner task
that declares its kernel fingerprint, as sweep cells do, so specs with
one configuration share one kernel through the runner's cache.  It
also returns the learners it ran, so their scheduler state can be
compared too.
"""

from unittest import mock

from repro.core.episode import EpisodeRecord, LearningResult
from repro.core.reassign import ReassignLearner, ReassignScheduler
from repro.rl.qtable import QTable
from repro.runner.parallel import ParallelRunner, Task, clear_kernel_cache
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
    table = sched.qtable
    state = {
        "qtable": sched.qtable_json(),
        "qtable_init_rng": table._rng.bit_generator.state,
        "reward_snapshot": reward.snapshot(),
        "global_index": reward.global_index(),
        "index_std": reward.index_std(),
        "reward_vm_order": list(reward._pos.items()),
        "reward_vm_lists": [
            list(values) for values in (
                reward._count, reward._exec_mean, reward._queue_mean,
                reward._index,
            )
        ],
        "reward_fleet": (
            reward._g_count, reward._g_exec_mean, reward._g_queue_mean,
        ),
        "reward": reward.reward,
        "policy_rng": sched._rng.bit_generator.state,
        "episode_t": sched._t,
        "episode_steps": sched.episode_steps,
        "episode_mean_reward": sched.episode_mean_reward,
    }
    if isinstance(table, QTable):
        state["qtable_n_known"] = table._n_known
        state["qtable_states"] = list(table._states)
        state["qtable_actions"] = list(table._actions)
    return state


def spec_learner(spec, **learner_kw):
    """A fresh learner for a ``BatchSpec`` (plus e.g. a ``clock``)."""
    return ReassignLearner(
        spec.workflow,
        spec.vms,
        spec.params,
        network=spec.network,
        fluctuation=spec.fluctuation,
        failures=spec.failures,
        migrations=spec.migrations,
        seed=spec.seed,
        max_attempts=spec.max_attempts,
        single_slot_learning=spec.single_slot_learning,
        **learner_kw,
    )


def _learn_spec(spec, _seed):
    return spec_learner(spec).learn()


def batch_learners(specs):
    """Each spec learned as a runner task; the results and the learners."""
    tasks = [
        Task(key=i, fn=_learn_spec, payload=spec,
             kernel_fingerprint=spec_learner(spec).kernel_fingerprint())
        for i, spec in enumerate(specs)
    ]
    learners = []
    learn = ReassignLearner.learn

    def recording(self):
        learners.append(self)
        return learn(self)

    clear_kernel_cache()
    try:
        with mock.patch.object(ReassignLearner, "learn", recording):
            results = [r.value for r in ParallelRunner(workers=1).run(tasks)]
    finally:
        clear_kernel_cache()
    return results, learners
