"""Tests for repro.core — the ReASSIgN algorithm (Algorithm 2)."""

import hashlib
import json

import pytest

from repro.core import (
    EpisodeRecord,
    LearningResult,
    ReassignLearner,
    ReassignParams,
    ReassignScheduler,
)
from repro.core.sweep import best_record, sweep_parameters
from repro.experiments.environments import fleet_for
from repro.rl.qtable import QTable
from repro.sim import BernoulliFailures, NoFluctuation, WorkflowSimulator
from repro.util.validate import ValidationError
from repro.workflows import montage


@pytest.fixture
def params():
    return ReassignParams(alpha=0.5, gamma=1.0, epsilon=0.1, episodes=15)


class TestParams:
    def test_paper_defaults(self):
        p = ReassignParams()
        assert p.mu == 0.5 and p.episodes == 100

    def test_validation(self):
        with pytest.raises(ValidationError):
            ReassignParams(alpha=0.0)
        with pytest.raises(ValidationError):
            ReassignParams(gamma=1.5)
        with pytest.raises(ValidationError):
            ReassignParams(episodes=0)
        with pytest.raises(ValidationError):
            ReassignParams(rule="dqn")

    @pytest.mark.parametrize(
        "make, kwargs",
        [
            (ReassignParams, dict(episodes=2.5)),
            (ReassignParams, dict(episodes=True)),
            (ReassignParams, dict(state_buckets=1.5)),
            (ReassignParams, dict(state_buckets=True)),
            (ReassignParams, dict(qtable_init_scale=float("nan"))),
            (ReassignParams, dict(qtable_init_scale=float("inf"))),
            (ReassignParams, dict(qtable_init_scale=-1.0)),
            (QTable, dict(init_scale=float("nan"))),
            (QTable, dict(init_scale=float("inf"))),
        ],
    )
    def test_learning_values_rejected_at_construction(self, make, kwargs):
        # each used to be accepted, then fail deep in learn() or
        # silently change the state space
        with pytest.raises(ValidationError):
            make(**kwargs)

    def test_label(self):
        assert ReassignParams(0.1, 1.0, 0.5).label() == "a=0.1 g=1 e=0.5"

    def test_frozen(self, params):
        with pytest.raises(AttributeError):
            params.alpha = 0.9  # type: ignore[misc]


class TestSchedulerEpisode:
    def test_single_episode_completes(self, montage25, fleet16, params):
        sched = ReassignScheduler(params, seed=1)
        result = WorkflowSimulator(montage25, fleet16, sched, seed=0).run()
        assert result.succeeded
        assert sched.episode_steps == 25
        assert -1.0 <= sched.episode_mean_reward <= 1.0

    def test_qtable_grows(self, montage25, fleet16, params):
        sched = ReassignScheduler(params, seed=1)
        WorkflowSimulator(montage25, fleet16, sched, seed=0).run()
        assert len(sched.qtable) > 0

    def test_learning_off_freezes_qtable(self, montage25, fleet16, params):
        table = QTable(init_scale=0.0, seed=1)
        table.set("available", (0, 0), 5.0)
        sched = ReassignScheduler(params, qtable=table, seed=1, learning=False)
        WorkflowSimulator(montage25, fleet16, sched, seed=0).run()
        # greedy replay reads but never writes persisted values
        assert {k: v for _, k, v in []} is not None
        after_items = dict(((s, a), v) for s, a, v in table.items())
        assert after_items[("available", (0, 0))] == 5.0

    def test_greedy_mode_uses_epsilon_one(self, params):
        sched = ReassignScheduler(params, seed=1, learning=False)
        assert sched.policy.epsilon == 1.0


class TestLearner:
    def test_learning_improves_over_first_episode(self, fleet16):
        wf = montage(50, seed=1)
        p = ReassignParams(alpha=0.5, gamma=1.0, epsilon=0.1, episodes=60)
        result = ReassignLearner(wf, fleet16, p, seed=11).learn()
        assert result.simulated_makespan < result.episodes[0].makespan

    def test_result_shape(self, montage25, fleet16, params):
        result = ReassignLearner(montage25, fleet16, params, seed=2).learn()
        assert result.n_episodes == params.episodes
        assert result.learning_time > 0
        assert result.simulated_makespan > 0
        result.plan.validate_against(montage25, fleet16)

    def test_plan_executable(self, montage25, fleet16, params):
        from repro.schedulers import PlanFollowingScheduler

        result = ReassignLearner(montage25, fleet16, params, seed=2).learn()
        replay = WorkflowSimulator(
            montage25, fleet16, PlanFollowingScheduler(result.plan), seed=0
        ).run()
        assert replay.succeeded

    def test_deterministic_given_seed(self, montage25, fleet16, params):
        a = ReassignLearner(montage25, fleet16, params, seed=3).learn()
        b = ReassignLearner(montage25, fleet16, params, seed=3).learn()
        assert a.plan.assignment == b.plan.assignment
        assert a.makespan_curve() == b.makespan_curve()

    def test_seed_changes_learning(self, montage25, fleet16, params):
        a = ReassignLearner(montage25, fleet16, params, seed=3).learn()
        b = ReassignLearner(montage25, fleet16, params, seed=4).learn()
        assert a.makespan_curve() != b.makespan_curve()

    def test_prior_qtable_resumes(self, montage25, fleet16, params):
        first = ReassignLearner(montage25, fleet16, params, seed=5).learn()
        resumed = ReassignLearner(
            montage25, fleet16, params, seed=5,
            prior_qtable_json=first.qtable_json,
            prior_history=[(0, 10.0, 1.0)],
        )
        # the resumed learner starts from the previous table
        assert len(resumed.scheduler.qtable) > 0
        assert resumed.scheduler.reward.vm_index(0) > 0
        result = resumed.learn()
        assert result.n_episodes == params.episodes

    @pytest.mark.parametrize("rule", ["qlearning", "sarsa", "doubleq"])
    def test_all_rules_learn(self, montage25, fleet16, rule):
        p = ReassignParams(alpha=0.5, gamma=1.0, epsilon=0.1,
                           episodes=10, rule=rule)
        result = ReassignLearner(montage25, fleet16, p, seed=6).learn()
        assert result.simulated_makespan > 0
        QTable.from_json(result.qtable_json)  # persisted table re-loadable

    def test_custom_fluctuation_accepted(self, montage25, fleet16, params):
        result = ReassignLearner(
            montage25, fleet16, params, seed=7, fluctuation=NoFluctuation()
        ).learn()
        assert result.simulated_makespan > 0


class TestObjectPathDigests:
    """Byte pins for the learning runs only the object path takes.

    SARSA, Double-Q, progress buckets and failure retries never reach
    the fused lane, and the lane-vs-reference suites compare the object
    path with itself for them.  These digests (sha256 of the result
    JSON minus the wall-clock ``learning_time``) pin their output, so a
    refactor of the update rules cannot drift unnoticed.
    """

    @pytest.mark.parametrize(
        "case, learner_kwargs, digest",
        [
            (dict(rule="sarsa"), {},
             "accc7ed2344feb3bcf612594c0e821bd7e3e50fd720246a17ddfb51eddb5fa28"),
            (dict(rule="doubleq"), {},
             "46bece271184a6f0e54d577d01ccc70f029c071be8fad34b4ed9aaa6dd6ede3e"),
            (dict(state_buckets=4), {},
             "70ff43ad67a72b01ecbbc2efb343eef2055d3eda9e2f2e2c62fbebc67620bc2c"),
            (dict(rule="sarsa", epsilon=0.5, epsilon_is_exploration=False,
                  gamma=0.5), {},
             "33b543a1514d7482bc9730985cb64a44d0204fa8f5adcfe617ed589985cb75eb"),
            (dict(rule="doubleq", reward_memory="episode",
                  qtable_init_scale=0.0), {},
             "42b4a7a9c296214bdec1f05ccb92e505d660a49578e7957120ee9818ff4399db"),
            (dict(), dict(failures=BernoulliFailures(0.01), max_attempts=3),
             "ab95c33781aa4dbb31b1766f91fc5b7c414b375a3503a9fa864cc5e1292086f8"),
        ],
        ids=["sarsa", "doubleq", "buckets", "sarsa-literal-eps",
             "doubleq-episode-memory", "qlearning-failures"],
    )
    def test_result_bytes_pinned(self, case, learner_kwargs, digest):
        learner = ReassignLearner(
            montage(25, seed=1), fleet_for(16),
            ReassignParams(alpha=0.5, episodes=5, **case),
            seed=3, **learner_kwargs,
        )
        data = json.loads(learner.learn().to_json())
        data.pop("learning_time")
        got = hashlib.sha256(
            json.dumps(data, sort_keys=True).encode()
        ).hexdigest()
        assert got == digest


class TestEpisodeRecords:
    def test_round_trip(self):
        rec = EpisodeRecord(
            episode=3, makespan=120.5, final_state="successfully finished",
            steps=25, mean_reward=0.4, final_reward=0.8,
            assignment={0: 8, 1: 2},
        )
        back = EpisodeRecord.from_dict(rec.to_dict())
        assert back == rec

    def test_assignment_is_a_fresh_dict_in_completion_order(self):
        rec = EpisodeRecord(0, 1.0, "successfully finished", 3, 0.0, 0.0,
                            assignment={7: 1, 2: 300, 5: 0})
        got = rec.assignment
        assert list(got.items()) == [(7, 1), (2, 300), (5, 0)]
        got[7] = 9
        assert rec.assignment == {7: 1, 2: 300, 5: 0}
        assert rec == EpisodeRecord(0, 1.0, "successfully finished", 3, 0.0,
                                    0.0, assignment={5: 0, 2: 300, 7: 1})
        assert rec != EpisodeRecord(0, 1.0, "successfully finished", 3, 0.0,
                                    0.0, assignment={7: 1, 2: 300})
        with pytest.raises(TypeError, match="unhashable"):
            hash(rec)

    def test_records_of_a_learn_hold_under_1kb_per_episode(
        self, montage50, fleet16
    ):
        import pickle
        import tracemalloc

        params = ReassignParams(alpha=0.5, gamma=1.0, epsilon=0.1, episodes=100)
        result = ReassignLearner(montage50, fleet16, params, seed=0).learn()
        # what a sweep's parent holds: the records as they arrive by pickle
        payload = pickle.dumps(result.episodes)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            episodes = pickle.loads(payload)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert episodes == result.episodes
        assert held / len(episodes) < 1024

    def test_learning_result_round_trip(self, montage25, fleet16, params):
        result = ReassignLearner(montage25, fleet16, params, seed=2).learn()
        back = LearningResult.from_json(result.to_json())
        assert back.plan.assignment == result.plan.assignment
        assert back.makespan_curve() == result.makespan_curve()
        assert back.learning_time == result.learning_time

    @pytest.mark.parametrize(
        "field, value, match",
        [
            (None, [], "episode record must be an object"),
            ("episode", None, "missing field 'episode'"),
            ("episode", True, "episode must be an integer"),
            ("episode", -1, "episode must be an integer"),
            ("steps", None, "missing field 'steps'"),
            ("steps", -1, "steps must be an integer"),
            ("steps", 25.0, "steps must be an integer"),
            ("makespan", float("nan"), "makespan must be finite"),
            ("makespan", float("inf"), "makespan must be finite"),
            ("makespan", -1.0, "makespan must be >= 0"),
            ("makespan", "120", "makespan must be a number"),
            ("mean_reward", float("nan"), "mean_reward must be finite"),
            ("final_reward", float("-inf"), "final_reward must be finite"),
            ("final_reward", None, "missing field 'final_reward'"),
            ("final_state", 1, "final_state must be a string"),
            ("assignment", [[0, 8]], "assignment must be an object"),
            ("assignment", {"0": 0.5}, r"assignment\[0\] must be an integer"),
            ("assignment", {"0": True}, r"assignment\[0\] must be an integer"),
            ("assignment", {"0": -8}, r"assignment\[0\] must be an integer"),
            ("assignment", {"-1": 8}, "assignment key must be an integer"),
            ("assignment", {"1": 8, "01": 2}, "assignment repeats key 1"),
        ],
    )
    def test_malformed_record_is_a_validation_error(self, field, value, match):
        data = EpisodeRecord(
            episode=3, makespan=120.5, final_state="successfully finished",
            steps=25, mean_reward=0.4, final_reward=0.8,
            assignment={0: 8, 1: 2},
        ).to_dict()
        if field is None:
            data = value
        elif value is None:
            del data[field]
        else:
            data[field] = value
        with pytest.raises(ValidationError, match=match):
            EpisodeRecord.from_dict(data)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda d: d.pop("plan"), "missing field 'plan'"),
            (lambda d: d.update(plan=5), "malformed plan JSON: expected an object"),
            (lambda d: d["plan"]["assignment"].update({"0": 0.5}),
             r"assignment\[0\] must be an integer"),
            (lambda d: d["plan"]["assignment"].update({"0": True}),
             r"assignment\[0\] must be an integer"),
            (lambda d: d.pop("episodes"), "missing field 'episodes'"),
            (lambda d: d.update(episodes={}), "episodes must be a list"),
            (lambda d: d.update(episodes=[]), "at least one episode"),
            (lambda d: d["episodes"].append(5),
             r"episodes\[1\]: episode record must be an object"),
            (lambda d: d["episodes"][0].update(steps=-1),
             r"episodes\[0\]: steps must be an integer"),
            (lambda d: d["episodes"][0].update(makespan=float("nan")),
             r"episodes\[0\]: makespan must be finite"),
            (lambda d: d["episodes"][0].update(mean_reward=float("inf")),
             r"episodes\[0\]: mean_reward must be finite"),
            (lambda d: d["episodes"][0]["assignment"].update({"01": 3}),
             r"episodes\[0\]: assignment repeats key 1"),
            (lambda d: d.pop("learning_time"), "missing field 'learning_time'"),
            (lambda d: d.update(learning_time=float("nan")),
             "learning_time must be finite"),
            (lambda d: d.update(learning_time=-1.0), "learning_time must be >= 0"),
            (lambda d: d.update(simulated_makespan=float("inf")),
             "simulated_makespan must be finite"),
            (lambda d: d.update(simulated_makespan="200"),
             "simulated_makespan must be a number"),
            (lambda d: d.pop("qtable"), "missing field 'qtable'"),
            (lambda d: d.update(qtable=[]), "qtable must be an object"),
        ],
    )
    def test_malformed_result_is_a_validation_error(self, edit, match):
        from repro.schedulers import SchedulingPlan

        data = json.loads(LearningResult(
            plan=SchedulingPlan(assignment={0: 8, 1: 2}),
            episodes=[EpisodeRecord(0, 200.0, "successfully finished", 2, 0.5,
                                    1.0, assignment={1: 2, 0: 8})],
            learning_time=1.0,
            simulated_makespan=200.0,
            qtable_json=QTable().to_json(),
        ).to_json())
        edit(data)  # in place
        with pytest.raises(ValidationError, match=match):
            LearningResult.from_json(json.dumps(data))

    @pytest.mark.parametrize(
        "text, match",
        [
            ("", "malformed LearningResult JSON"),
            ("{", "malformed LearningResult JSON"),
            ('{"plan": 1%s}' % ("0" * 5000), "malformed LearningResult JSON"),
            ("null", "expected an object"),
            ("[]", "expected an object"),
            ("{}", "missing field 'plan'"),
            ('{"plan": {}, "plan": {}}', "repeated key 'plan'"),
        ],
    )
    def test_unparsable_result_is_a_validation_error(self, text, match):
        with pytest.raises(ValidationError, match=match):
            LearningResult.from_json(text)

    def test_best_episode_prefers_success(self):
        episodes = [
            EpisodeRecord(0, 100.0, "finished with failure", 10, 0.0, 0.0),
            EpisodeRecord(1, 200.0, "successfully finished", 10, 0.0, 0.0),
        ]
        result = LearningResult(
            plan=__import__("repro.schedulers", fromlist=["SchedulingPlan"])
            .SchedulingPlan(assignment={0: 0}),
            episodes=episodes,
            learning_time=1.0,
            simulated_makespan=200.0,
            qtable_json=QTable().to_json(),
        )
        assert result.best_episode.episode == 1

    def test_empty_episodes_rejected(self):
        from repro.schedulers import SchedulingPlan

        with pytest.raises(ValidationError):
            LearningResult(
                plan=SchedulingPlan(assignment={0: 0}),
                episodes=[],
                learning_time=1.0,
                simulated_makespan=1.0,
                qtable_json="{}",
            )


class TestSweep:
    def test_grid_covers_combinations(self, montage25, fleet_small):
        records = sweep_parameters(
            montage25, fleet_small,
            alphas=(0.5,), gammas=(0.1, 1.0), epsilons=(0.1, 1.0),
            episodes=3, seed=1,
        )
        assert len(records) == 4
        assert {(r.gamma, r.epsilon) for r in records} == {
            (0.1, 0.1), (0.1, 1.0), (1.0, 0.1), (1.0, 1.0)
        }

    def test_best_record(self, montage25, fleet_small):
        records = sweep_parameters(
            montage25, fleet_small,
            alphas=(0.5,), gammas=(1.0,), epsilons=(0.1, 1.0),
            episodes=3, seed=1,
        )
        best = best_record(records)
        assert best.simulated_makespan == min(
            r.simulated_makespan for r in records
        )

    def test_empty_grid_rejected(self, montage25, fleet_small):
        with pytest.raises(ValidationError):
            sweep_parameters(montage25, fleet_small, alphas=())

    def test_best_record_empty_rejected(self):
        with pytest.raises(ValidationError):
            best_record([])


class TestStateBuckets:
    def test_bucket_labels_used(self, montage25, fleet16):
        params = ReassignParams(alpha=0.5, gamma=1.0, epsilon=0.1,
                                episodes=3, state_buckets=4)
        learner = ReassignLearner(montage25, fleet16, params, seed=2)
        learner.learn()
        states = {s for s, _, _ in learner.scheduler.qtable.items()}
        assert any(str(s).startswith("available:p") for s in states)

    def test_single_bucket_is_paper_state(self, montage25, fleet16):
        params = ReassignParams(alpha=0.5, gamma=1.0, epsilon=0.1,
                                episodes=3, state_buckets=1)
        learner = ReassignLearner(montage25, fleet16, params, seed=2)
        learner.learn()
        states = {s for s, _, _ in learner.scheduler.qtable.items()}
        assert states == {"available"}

    def test_bucket_count_validated(self):
        with pytest.raises(ValidationError):
            ReassignParams(state_buckets=0)

    def test_buckets_learn_successfully(self, montage25, fleet16):
        params = ReassignParams(alpha=0.5, gamma=1.0, epsilon=0.1,
                                episodes=5, state_buckets=8)
        result = ReassignLearner(montage25, fleet16, params, seed=2).learn()
        assert result.simulated_makespan > 0
        result.plan.validate_against(montage25, fleet16)


class TestRewardMemory:
    def test_full_is_default(self):
        assert ReassignParams().reward_memory == "full"

    def test_invalid_rejected(self):
        with pytest.raises(ValidationError):
            ReassignParams(reward_memory="sliding")

    def test_episode_memory_resets_history(self, montage25, fleet16):
        params = ReassignParams(episodes=3, reward_memory="episode")
        learner = ReassignLearner(montage25, fleet16, params, seed=2)
        learner.learn()
        # after the final episode, each VM's history holds at most one
        # episode's worth of observations
        reward = learner.scheduler.reward
        total = sum(n for _, n, _ in reward.snapshot())
        assert total <= len(montage25)

    def test_full_memory_accumulates(self, montage25, fleet16):
        params = ReassignParams(episodes=3, reward_memory="full")
        learner = ReassignLearner(montage25, fleet16, params, seed=2)
        learner.learn()
        reward = learner.scheduler.reward
        total = sum(n for _, n, _ in reward.snapshot())
        assert total == 3 * len(montage25)


class TestExtractPlan:
    def test_greedy_extraction_valid(self, montage25, fleet16, params):
        learner = ReassignLearner(montage25, fleet16, params, seed=2)
        learner.learn()
        plan, makespan = learner.extract_plan()
        plan.validate_against(montage25, fleet16)
        assert makespan > 0

    def test_greedy_extraction_deterministic(self, montage25, fleet16, params):
        learner = ReassignLearner(montage25, fleet16, params, seed=2)
        learner.learn()
        a = learner.extract_plan()
        b = learner.extract_plan()
        assert a[0].assignment == b[0].assignment
        assert a[1] == b[1]

    def test_reward_curve_length(self, montage25, fleet16, params):
        result = ReassignLearner(montage25, fleet16, params, seed=2).learn()
        curve = result.reward_curve()
        assert len(curve) == params.episodes
        assert all(-1.0 <= r <= 1.0 for r in curve)
