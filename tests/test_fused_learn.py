"""``ReassignLearner.learn()`` on the fused lane stepper.

``learn()`` drives eligible runs (plain Q-learning, one state bucket, a
dense Q-table, the paper's own ``PerformanceReward``) through
``repro.core.lane`` and everything else through the scheduler-object
loop.  Each case below builds two identical learners, runs one through
``learn()`` and the other through the object-path reference
(``tests/reference_learner.py``), and demands two things:

- the ``LearningResult`` JSON matches byte for byte (learning time
  aside, unless both run on the simulated clock);
- the scheduler is left in the same state — Q-table, reward history,
  smoothed reward, policy generator, episode counters — because prior
  Q-tables, provenance warm starts, repeated ``learn()`` calls,
  ``extract_plan()`` and the online ablation all read it afterwards.

A counting wrapper around ``EpisodeKernel.run_episode`` shows which
path ran: the fused stepper never calls it.
"""

import json

import pytest

from repro.core.reassign import (
    ReassignLearner,
    ReassignParams,
    SimulatedLearningClock,
)
from repro.experiments.environments import fleet_for, fleet_spec_for
from repro.rl.cost_reward import CostAwarePerformanceReward
from repro.rl.reward import PerformanceReward
from repro.scicumulus.swfms import SciCumulusRL
from repro.sim.failures import BernoulliFailures
from repro.sim.kernel import EpisodeKernel
from repro.workflows.montage import montage

from tests.reference_learner import reference_learn, scheduler_state


def _fp(result):
    data = json.loads(result.to_json())
    data.pop("learning_time", None)
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
        # fused: one greedy replay; reference: 3 episodes + greedy replay
        assert episode_calls == [False, True, True, True, False]
        _assert_same(fused, got, reference, want)

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
