"""The fused lane's Q mirror against the object-path reference.

On a lean kernel the fused lane reads Q-values from a per-run
(activation × VM) mirror whose row maxima it keeps up to date within a
dispatch phase, instead of the Q-table's pair-tuple slices (see
``repro.core.lane``).  Every case here
learns one run on a lean kernel through ``ReassignLearner.learn()`` and
an identical twin through ``tests/reference_learner.reference_learn`` —
the scheduler-object path, which shares no code with the mirror — and
demands byte-identical result JSON and scheduler state.  The scheduler state includes the
Q-table's lazy-init stream and interning order, so an engine that
first-touches entries in another order fails even when its JSON would
match.

The DAGs are layered, so many activations are ready at once and their
rows compete in every selection; the fleets mix 1-slot micros with
8-slot 2xlarges, so the idle set changes at most dispatches and
completions, and a dispatch that fills a VM makes the lane recompute
the row maxima that sat at it.  With
``qtable_init_scale=0.0`` every untouched Q-value is 0.0, so the
exploitation ties span several rows.

The lane keeps VM occupancy and activation states to itself and
publishes the kernel's terminal state once, at the end of an episode;
``TestPublishedKernelState`` checks that a completed ``learn()`` leaves
its kernel exactly as the object path does.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batch import BatchSpec
from repro.core.reassign import ReassignLearner, ReassignParams
from repro.dag.activation import Activation, File
from repro.dag.graph import Workflow
from repro.experiments.environments import fleet_for
from repro.sim.fluctuation import NoFluctuation
from repro.sim.vm import t2_fleet
from repro.workflows.montage import montage

from tests.reference_learner import (
    batch_learners,
    reference_learn,
    scheduler_state,
)


def layered_dag(seed: int, max_layers: int = 4, max_width: int = 7) -> Workflow:
    """A random layered DAG with shuffled, non-contiguous activation ids.

    Each activation writes one file and reads the files of its parents
    in the previous layer, so stage-in times depend on placement.
    """
    rng = random.Random(seed)
    widths = [rng.randint(1, max_width) for _ in range(rng.randint(1, max_layers))]
    ids = rng.sample(range(3 * sum(widths)), sum(widths))
    wf = Workflow(f"layered-{seed}")
    layers = []
    for depth, width in enumerate(widths):
        layer, ids = ids[:width], ids[width:]
        parents = layers[-1] if layers else []
        for aid in layer:
            chosen = rng.sample(parents, rng.randint(1, len(parents))) if parents else []
            wf.add_activation(Activation(
                id=aid,
                activity=f"layer{depth}",
                runtime=round(rng.uniform(1.0, 60.0), 3),
                inputs=tuple(File(f"f{p}", 1e6 * (1 + p % 5)) for p in chosen),
                outputs=(File(f"f{aid}", 1e6 * (1 + aid % 5)),),
            ))
            for p in chosen:
                wf.add_dependency(p, aid)
        layers.append(layer)
    wf.validate()
    return wf


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


def _learner(wf, fleet, seed=3, **params):
    def make(**learner_kw):
        return ReassignLearner(
            wf, fleet, ReassignParams(**params), seed=seed, **learner_kw
        )

    return make


def _assert_matches(make, **learner_kw):
    fused, reference = make(**learner_kw), make(**learner_kw)
    got = fused.learn()
    want = reference_learn(reference)
    assert _fp(got) == _fp(want)
    assert scheduler_state(fused.scheduler) == scheduler_state(
        reference.scheduler
    )
    return fused


_FLEETS = [(0, 1), (1, 1), (3, 1), (2, 2), (4, 0)]


class TestMirrorMatchesObjectPath:
    @settings(max_examples=25, deadline=None)
    @given(
        dag_seed=st.integers(min_value=0, max_value=2**31 - 1),
        fleet=st.sampled_from(_FLEETS),
        seed=st.integers(min_value=0, max_value=50),
        alpha=st.sampled_from([0.1, 0.5, 1.0]),
        gamma=st.sampled_from([0.1, 1.0]),
        epsilon=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        epsilon_is_exploration=st.booleans(),
        init_scale=st.sampled_from([0.0, 1e-3]),
        reward_memory=st.sampled_from(["full", "episode"]),
    )
    def test_random_layered_dags(
        self, dag_seed, fleet, seed, alpha, gamma, epsilon,
        epsilon_is_exploration, init_scale, reward_memory,
    ):
        _assert_matches(_learner(
            layered_dag(dag_seed), t2_fleet(*fleet), seed=seed,
            episodes=3, alpha=alpha, gamma=gamma, epsilon=epsilon,
            epsilon_is_exploration=epsilon_is_exploration,
            qtable_init_scale=init_scale, reward_memory=reward_memory,
        ))

    def test_zero_init_scale_ties_span_rows(self):
        for dag_seed in (5, 11, 23):
            _assert_matches(_learner(
                layered_dag(dag_seed, max_layers=3, max_width=7),
                t2_fleet(3, 1), episodes=4, epsilon=0.1,
                qtable_init_scale=0.0,
            ))
        _assert_matches(_learner(
            montage(25, seed=1), t2_fleet(4, 1), episodes=3, epsilon=0.1,
            qtable_init_scale=0.0,
        ))

    def test_epsilon_extremes_and_text_literal(self):
        wf, fleet = montage(25, seed=1), t2_fleet(3, 2)
        for params in (
            dict(epsilon=0.0),
            dict(epsilon=1.0),
            dict(epsilon=0.1, epsilon_is_exploration=False),
        ):
            _assert_matches(_learner(wf, fleet, episodes=4, **params))

    def test_episode_reward_memory(self):
        _assert_matches(_learner(
            montage(25, seed=2), t2_fleet(2, 1), episodes=4,
            reward_memory="episode",
        ))

    def test_partial_prior_row_with_a_second_state(self):
        wf, fleet = layered_dag(7, max_layers=3), t2_fleet(2, 1)
        rng = random.Random(7)
        pairs = [(a, vm.id) for a in sorted(wf.activation_ids) for vm in fleet]
        entries = []
        for k, (a, v) in enumerate(pairs):
            if k % 3 == 0:
                entries.append(["available", [a, v], rng.uniform(-1.0, 1.0)])
            elif k % 3 == 1:
                # interned by another state, still unknown in "available"
                entries.append(["unavailable", [a, v], rng.uniform(-1.0, 1.0)])
        prior = json.dumps({"init_scale": 1e-3, "entries": entries})
        make = _learner(wf, fleet, episodes=4)
        fused = _assert_matches(make, prior_qtable_json=prior)
        assert "unavailable" in fused.scheduler.qtable._states

    def test_learn_twice_on_one_learner(self):
        make = _learner(layered_dag(3), t2_fleet(3, 1), episodes=3,
                        qtable_init_scale=0.0)
        fused, reference = make(), make()
        for _ in range(2):
            assert _fp(fused.learn()) == _fp(reference_learn(reference))
            assert scheduler_state(fused.scheduler) == scheduler_state(
                reference.scheduler
            )

    def test_learn_batch_widths(self):
        wf, fleet = layered_dag(19), t2_fleet(3, 1)
        cells = [
            dict(alpha=0.5, epsilon=0.1, qtable_init_scale=0.0),
            dict(alpha=1.0, epsilon=0.5),
            dict(alpha=0.1, epsilon=0.0),
        ]
        for width in (1, 3):
            specs = [
                BatchSpec(wf, fleet, ReassignParams(episodes=3, **cell), seed=k)
                for k, cell in enumerate(cells[:width])
            ]
            # serial runner tasks sharing the fingerprint's cached kernel
            results, learned = batch_learners(specs)
            assert len(learned) == width
            assert len({id(fused.kernel) for fused in learned}) == 1
            for spec, got, fused in zip(specs, results, learned):
                reference = ReassignLearner(
                    spec.workflow, spec.vms, spec.params, seed=spec.seed
                )
                want = reference_learn(reference)
                assert _fp(got) == _fp(want)
                assert scheduler_state(fused.scheduler) == scheduler_state(
                    reference.scheduler
                )


def kernel_state(kernel):
    """What a learning run leaves on its kernel, version counters aside."""
    state = kernel.state
    return {
        "now": state.now,
        "n_finished": state.n_finished,
        "n_failed": state.n_failed,
        "n_running": state.n_running,
        "ready_ids": list(state.ready_ids),
        "ready_time": dict(state.ready_time),
        "file_locations": dict(state.file_locations),
        "busy_time": dict(state.busy_time),
        "attempts": dict(state.attempts),
        "unfinished_parents": dict(state._unfinished_parents),
        "activation_states": {ac.id: ac.state for ac in kernel.activations},
        "vm_running": {vm.id: set(vm.running) for vm in kernel.vms},
        "records": list(state.records),
        "workflow_state": state.workflow_state(),
    }


def _versions(kernel):
    state = kernel.state
    return state._ready_version, state._idle_version, state._vm_version


class TestPublishedKernelState:
    """A completed lane ``learn()`` leaves the object path's kernel state.

    The version counters differ between the engines (the lane moves each
    once per episode); they only have to grow.
    """

    @pytest.mark.parametrize(
        "make",
        [
            _learner(montage(25, seed=1), fleet_for(16), episodes=3),
            _learner(layered_dag(19), t2_fleet(3, 1), episodes=3,
                     epsilon=0.5),
            # without a throttle model the lane still integrates busy time
            lambda: ReassignLearner(
                layered_dag(5), t2_fleet(2, 2), ReassignParams(episodes=3),
                seed=4, fluctuation=NoFluctuation(),
            ),
        ],
        ids=["montage25-fleet16", "layered-mixed-fleet", "no-fluctuation"],
    )
    def test_matches_the_reference(self, make):
        fused, reference = make(), make()
        before = _versions(fused.kernel)
        fused.learn()
        reference_learn(reference)
        assert kernel_state(fused.kernel) == kernel_state(reference.kernel)
        after = _versions(fused.kernel)
        assert all(a > b for a, b in zip(after, before))
