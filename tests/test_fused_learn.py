"""``ReassignLearner.learn()`` on the fused lane stepper.

``learn()`` drives eligible runs (plain Q-learning, one state bucket, a
dense Q-table, the paper's own ``PerformanceReward``) on a lean kernel
(``EpisodeKernel.lean``: draw-free, shared staging, no VM boot time)
through ``repro.core.lane`` and everything else through the
scheduler-object loop.  Each case below builds two identical learners,
runs one through ``learn()`` and the other through the object-path
reference (``tests/reference_learner.py``), and demands two things:

- the ``LearningResult`` JSON matches byte for byte (learning time
  aside, unless both run on the simulated clock);
- the scheduler is left in the same state — Q-table, reward history,
  smoothed reward, policy generator, episode counters — because prior
  Q-tables, provenance warm starts, repeated ``learn()`` calls,
  ``extract_plan()`` and the online ablation all read it afterwards.

A counting wrapper around ``EpisodeKernel.run_episode`` shows which
path ran: the fused stepper never calls it.  An interrupted learn must
leave its kernel reusable on either path, and so must an episode that
runs past the kernel's horizon; a lane learn interrupted before its
k-th decision must leave the scheduler state the object path leaves.
"""

import dataclasses
import json

import pytest

from repro.core.lane import _drive_episode, _FastLane
from repro.core.reassign import (
    ReassignLearner,
    ReassignParams,
    ReassignScheduler,
    SimulatedLearningClock,
)
from repro.dag.activation import ActivationState
from repro.experiments.environments import fleet_for, fleet_spec_for
from repro.rl.cost_reward import CostAwarePerformanceReward
from repro.rl.reward import PerformanceReward
from repro.runner.parallel import (
    ParallelRunner,
    Task,
    clear_kernel_cache,
    kernel_cache_stats,
)
from repro.scicumulus.swfms import SciCumulusRL
from repro.sim.failures import BernoulliFailures
from repro.sim.fluctuation import GaussianFluctuation, NoFluctuation
from repro.sim.kernel import EpisodeKernel, HorizonExceeded
from repro.sim.migration import PeriodicMigrations
from repro.sim.network import SharedStorageNetwork, ZeroCostNetwork
from repro.sim.vm import Vm
from repro.util.rng import BlockDraws, RngService
from repro.util.validate import ValidationError
from repro.workflows.montage import montage

from tests.reference_learner import reference_learn, scheduler_state


def _fp(result):
    """Everything in ``to_json()`` except the wall-clock learning time,
    plus each episode's assignment in completion order (``to_json()``
    sorts its keys)."""
    data = json.loads(result.to_json())
    data.pop("learning_time", None)
    data["assignment_order"] = [
        list(e.assignment.items()) for e in result.episodes
    ]
    return data


@pytest.fixture
def episode_calls(monkeypatch):
    """Counts object-path episodes (``EpisodeKernel.run_episode`` calls)."""
    calls = []
    original = EpisodeKernel.run_episode

    def counting(self, scheduler, seed):
        calls.append(scheduler.learning)
        return original(self, scheduler, seed)

    monkeypatch.setattr(EpisodeKernel, "run_episode", counting)
    return calls


def _pair(make):
    """Run ``make()``'s learner via learn() and its twin via the reference."""
    fused, reference = make(), make()
    got = fused.learn()
    want = reference_learn(reference)
    return fused, got, reference, want


def _assert_same(fused, got, reference, want):
    assert _fp(got) == _fp(want)
    assert scheduler_state(fused.scheduler) == scheduler_state(
        reference.scheduler
    )


def _learner(episodes=4, seed=3, learner_kw=None, **params):
    return lambda: ReassignLearner(
        montage(25, seed=1),
        fleet_for(16),
        ReassignParams(episodes=episodes, **params),
        seed=seed,
        **(learner_kw or {}),
    )


def _booting_fleet():
    """The 16-vCPU fleet with a 30 s boot time on every VM type."""
    return [
        Vm(vm.id, dataclasses.replace(vm.type, boot_time=30.0))
        for vm in fleet_for(16)
    ]


#: learner keyword arguments per kernel regime, and whether it is lean
_REGIMES = {
    "burst-throttle": ({}, True),
    "no-fluctuation": (dict(fluctuation=NoFluctuation()), True),
    "shared-storage": (dict(network=SharedStorageNetwork()), True),
    "failures": (
        dict(failures=BernoulliFailures(0.01), max_attempts=3), False
    ),
    "migrations": (
        dict(migrations=PeriodicMigrations(mean_interval=100.0)), False
    ),
    "gaussian": (dict(fluctuation=GaussianFluctuation(0.2)), False),
    "zero-cost-network": (dict(network=ZeroCostNetwork()), False),
    "boot-time": (dict(fleet=_booting_fleet), False),
}


def _regime_learner(regime, episodes=4):
    learner_kw = dict(_REGIMES[regime][0])
    fleet = learner_kw.pop("fleet", lambda: fleet_for(16))
    return lambda: ReassignLearner(
        montage(25, seed=1),
        fleet(),
        ReassignParams(episodes=episodes),
        seed=3,
        clock=SimulatedLearningClock(),
        **learner_kw,
    )


def _assert_pristine(kernel):
    assert all(
        ac.state is ActivationState.LOCKED for ac in kernel.activations
    )
    assert all(not vm.running for vm in kernel.vms)


class TestFusedLearnMatchesObjectPath:
    def test_prior_qtable_and_history(self, episode_calls):
        prior_json = ReassignLearner(
            montage(25, seed=1), fleet_for(16),
            ReassignParams(episodes=2), seed=11,
        ).learn().qtable_json
        history = [(0, 12.5, 1.0), (5, 40.0, 3.5), (0, 9.0, 0.0)]
        make = _learner(
            seed=4,
            learner_kw=dict(
                prior_qtable_json=prior_json, prior_history=history,
            ),
        )
        episode_calls.clear()
        fused, got, reference, want = _pair(make)
        assert len(episode_calls) == 4  # the reference's episodes only
        _assert_same(fused, got, reference, want)
        # the bootstrapped history was carried, not replaced
        counts = {vm: n for vm, n, _ in fused.scheduler.reward.snapshot()}
        assert counts[0] >= 2

    def test_provenance_warm_start_twice(self, monkeypatch):
        def pipeline(learn):
            seen = []

            def recording(self):
                seen.append(self)
                return learn(self)

            monkeypatch.setattr(ReassignLearner, "learn", recording)
            swfms = SciCumulusRL(seed=5)
            params = ReassignParams(episodes=3)
            wf = montage(25, seed=2)
            reports = [
                swfms.run_workflow(
                    wf, fleet_spec_for(16), "reassign", params,
                    use_provenance=True,
                )
                for _ in range(2)
            ]
            assert swfms.provenance.latest_qtable(
                wf.name, reports[0].fleet, params.label()
            ) is not None
            return seen, reports

        fused_learners, fused_reports = pipeline(ReassignLearner.learn)
        ref_learners, ref_reports = pipeline(reference_learn)
        # the second run warm-started from the first one's provenance:
        # its reward history holds the first run's executions too
        first, second = (
            sum(n for _, n, _ in lr.scheduler.reward.snapshot())
            for lr in fused_learners
        )
        assert second > first
        for a, b in zip(fused_learners, ref_learners):
            assert scheduler_state(a.scheduler) == scheduler_state(
                b.scheduler
            )
        for a, b in zip(fused_reports, ref_reports):
            assert a.plan.to_json() == b.plan.to_json()
            assert a.total_execution_time == b.total_execution_time
            assert a.simulated_makespan == b.simulated_makespan

    def test_learn_twice_on_one_learner(self):
        make = _learner(episodes=3)
        fused, reference = make(), make()
        for _ in range(2):
            assert _fp(fused.learn()) == _fp(reference_learn(reference))
            assert scheduler_state(fused.scheduler) == scheduler_state(
                reference.scheduler
            )

    def test_simulated_clock_whole_json(self):
        make = _learner(
            episodes=5, learner_kw=dict(clock=SimulatedLearningClock())
        )
        fused, got, reference, want = _pair(make)
        assert got.to_json() == want.to_json()
        assert got.learning_time == got.simulated_learning_time
        _assert_same(fused, got, reference, want)

    @pytest.mark.parametrize(
        "params, learner_kw",
        [
            (dict(reward_memory="episode"), {}),
            (dict(epsilon_is_exploration=False), {}),
            (dict(discount_power=False, gamma=0.5), {}),
            ({}, dict(single_slot_learning=True)),
            (
                dict(reward_memory="episode", epsilon_is_exploration=False,
                     discount_power=False),
                dict(single_slot_learning=True),
            ),
        ],
    )
    def test_param_variants(self, params, learner_kw, episode_calls):
        fused, got, reference, want = _pair(
            _learner(learner_kw=learner_kw, **params)
        )
        # only the reference touched run_episode
        assert len(episode_calls) == 4
        _assert_same(fused, got, reference, want)

    def test_failed_final_episode_takes_greedy_fallback(self, episode_calls):
        make = _learner(
            episodes=3, seed=1,
            learner_kw=dict(
                failures=BernoulliFailures(0.02), max_attempts=1
            ),
        )
        fused, got, reference, want = _pair(make)
        assert not got.episodes[-1].final_state.startswith("successfully")
        # a failure model is not lean, so learn() takes the object path
        # too: each side runs 3 episodes, then one greedy replay
        assert episode_calls == [True, True, True, False] * 2
        _assert_same(fused, got, reference, want)

    @pytest.mark.parametrize("regime", list(_REGIMES))
    def test_route_per_kernel_regime(self, regime, episode_calls):
        make = _regime_learner(regime)
        lean = _REGIMES[regime][1]
        fused = make()
        assert fused.kernel.lean is lean
        got = fused.learn()
        # only a failed final episode adds a (non-learning) greedy replay
        replay = (
            [] if got.episodes[-1].final_state.startswith("successfully")
            else [False]
        )
        assert episode_calls == ([] if lean else [True] * 4) + replay
        reference = make()
        want = reference_learn(reference)
        assert got.to_json() == want.to_json()
        assert scheduler_state(fused.scheduler) == scheduler_state(
            reference.scheduler
        )

    def test_reward_object_mu_overrides_params(self):
        def make():
            return ReassignLearner(
                montage(25, seed=1), fleet_for(16),
                ReassignParams(episodes=4, mu=0.5), seed=3,
                reward=PerformanceReward(mu=0.3),
            )

        fused, got, reference, want = _pair(make)
        _assert_same(fused, got, reference, want)
        # µ = 0.3 really was used: the paper-default learner's P̄w differs
        default = _learner(mu=0.5)()
        default.learn()
        assert (
            fused.scheduler.reward.global_index()
            != default.scheduler.reward.global_index()
        )

    def test_cost_aware_reward_stays_on_object_path(self, episode_calls):
        fleet = fleet_for(16)

        def make():
            return ReassignLearner(
                montage(25, seed=1), fleet, ReassignParams(episodes=3),
                seed=2,
                reward=CostAwarePerformanceReward(fleet, cost_weight=1.0),
            )

        fused = make()
        got = fused.learn()
        assert episode_calls == [True, True, True]
        reference = make()
        want = reference_learn(reference)
        _assert_same(fused, got, reference, want)


def _interrupt_at(monkeypatch, run, cls, name, k, record=()):
    """Call ``run()``, raising ``KeyboardInterrupt`` at the k-th ``cls.name``.

    Returns the calls of ``name`` and of the ``record`` methods that
    ran before the interrupt, in order, as ``(method name, positional
    args)``.
    """
    hooked = []
    calls = []

    def logged(method):
        original = getattr(cls, method)

        def wrapper(obj, *args, **kwargs):
            if method == name:
                hooked.append(None)
                if len(hooked) == k:
                    raise KeyboardInterrupt
            calls.append((method, args))
            return original(obj, *args, **kwargs)

        return wrapper

    with monkeypatch.context() as patch:
        for method in (name, *record):
            patch.setattr(cls, method, logged(method))
        with pytest.raises(KeyboardInterrupt):
            run()
    assert len(hooked) == k
    return calls


def _learn_task(learner, _seed):
    return learner.learn()


def _learn_as_task(learner):
    """``learner.learn()`` as a serial runner task declaring its kernel."""
    task = Task(key="learn", fn=_learn_task, payload=learner,
                kernel_fingerprint=learner.kernel_fingerprint())
    return ParallelRunner(workers=1).run([task])[0].value


class TestInterruptedLearn:
    """A ``KeyboardInterrupt`` mid-episode leaves a reusable kernel."""

    def _interrupt_then_reuse(self, monkeypatch, make, cls, name, record=()):
        """Interrupt ``learn()`` at the 40th ``cls.name`` call, then reuse.

        Both learns run as runner tasks that declare one kernel
        fingerprint, so the second gets the interrupted kernel from the
        runner's cache, where a pool worker's next task finds the kernel
        of a task that failed.  Returns the interrupted learner and the
        calls made before the interrupt (see :func:`_interrupt_at`).
        """
        interrupted, reused, fresh = make(), make(), make()
        clear_kernel_cache()
        try:
            calls = _interrupt_at(
                monkeypatch, lambda: _learn_as_task(interrupted), cls, name,
                40, record,
            )
            kernel = interrupted.kernel
            _assert_pristine(kernel)
            got = _learn_as_task(reused)
            assert kernel_cache_stats() == {"size": 1, "builds": 1, "hits": 1}
        finally:
            clear_kernel_cache()
        assert reused.kernel is kernel
        assert got.to_json() == fresh.learn().to_json()
        assert scheduler_state(reused.scheduler) == scheduler_state(
            fresh.scheduler
        )
        return interrupted, calls

    def test_inside_the_lane_body(self, monkeypatch):
        # the lane's policy replica draws one random() per decision
        make = _regime_learner("burst-throttle", episodes=3)
        interrupted, calls = self._interrupt_then_reuse(
            monkeypatch, make, BlockDraws, "random", record=("integers",)
        )
        # learn() synced the policy stream on the way out: it stands
        # exactly where numpy's own calls, replayed, leave a fresh one
        replay = RngService(interrupted.seed).stream("reassign-policy")
        for method, args in calls:
            getattr(replay, method)(*args)
        assert (
            interrupted.scheduler._rng.bit_generator.state
            == replay.bit_generator.state
        )

    def test_inside_the_object_path(self, monkeypatch):
        make = _regime_learner("failures", episodes=3)
        self._interrupt_then_reuse(
            monkeypatch, make, ReassignScheduler, "select"
        )

    # an episode makes 25 decisions: k = 10 interrupts the first, 40
    # the second (lite) and 60 the third (recorded in full)
    @pytest.mark.parametrize("k", [10, 40, 60])
    def test_lane_leaves_the_object_paths_scheduler_state(
        self, monkeypatch, k
    ):
        # the lane draws one random() per decision and the object path
        # calls select() once per decision, so both stop before their
        # k-th decision, with k - 1 rewards and Q-updates made
        make = _learner(episodes=3)
        lane, reference = make(), make()
        _interrupt_at(monkeypatch, lane.learn, BlockDraws, "random", k)
        _interrupt_at(
            monkeypatch, lambda: reference_learn(reference),
            ReassignScheduler, "select", k,
        )
        assert scheduler_state(lane.scheduler) == scheduler_state(
            reference.scheduler
        )


class TestHorizonExit:
    """An episode past the kernel's horizon, on the lane and the object path."""

    #: above every makespan of ``_learner(episodes=4)``'s episodes (at
    #: most 282.6 s) and below the makespan of the explorer's episode
    #: (343.1 s)
    HORIZON = 300.0

    def _kernel(self, learner):
        return EpisodeKernel(
            learner.workflow, learner.vms, horizon=self.HORIZON,
            **learner._sim_kwargs,
        )

    def test_overrun_matches_the_object_path_and_scrubs(self):
        # pure exploration: every decision is a uniform draw
        explorer = _learner(episodes=1, seed=1, epsilon=1.0)
        lane_learner, object_learner = explorer(), explorer()
        kernel = self._kernel(lane_learner)
        lane = _FastLane(lane_learner.scheduler, kernel)
        with pytest.raises(HorizonExceeded) as lane_exit:
            _drive_episode(kernel, lane, lite=False)
        with pytest.raises(HorizonExceeded) as object_exit:
            self._kernel(object_learner).run_episode(
                object_learner.scheduler, 0
            )
        assert str(lane_exit.value) == str(object_exit.value)
        assert str(lane_exit.value) == "simulation exceeded horizon 300.0"
        _assert_pristine(kernel)

        make = _learner(learner_kw=dict(clock=SimulatedLearningClock()))
        reused, fresh = make(), make()
        reused._kernel = kernel
        fresh._kernel = self._kernel(fresh)
        got = reused.learn()
        assert max(e.makespan for e in got.episodes) < self.HORIZON
        assert got.to_json() == fresh.learn().to_json()
        assert scheduler_state(reused.scheduler) == scheduler_state(
            fresh.scheduler
        )

    def test_lane_refuses_a_non_lean_kernel(self):
        learner = _regime_learner("failures")()
        kernel = learner.kernel
        with pytest.raises(ValidationError, match="requires a lean kernel"):
            _drive_episode(kernel, _FastLane(learner.scheduler, kernel), True)
