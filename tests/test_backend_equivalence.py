"""Fast-path equivalence suite: array backend == dict backend, bitwise.

The dense ``backend="array"`` Q-table and the versioned action-pair
cache are pure performance work — PR-level contract: **no float ever
differs**.  Three layers of evidence:

- a property test drives both backends through the same random op
  interleaving and demands identical returns plus byte-identical
  ``to_json()`` (first-touch draws happen in the same RNG order even
  though the array backend batch-initializes rows);
- a full learning run on Montage-25 must match across backends on the
  Q-table JSON, every per-episode record, and the emitted plan;
- the kernel-caching parallel runner must stay bit-identical between
  ``workers=1`` and ``workers=4``, with the per-process cache provably
  building each distinct kernel once.
"""

from hypothesis import given, settings, strategies as st

from repro.core.reassign import ReassignLearner, ReassignParams
from repro.core.sweep import sweep_tasks
from repro.experiments.environments import fleet_for
from repro.rl import QTable
from repro.runner import ParallelRunner
from repro.runner.parallel import clear_kernel_cache, kernel_cache_stats
from repro.util.rng import RngService
from repro.workflows.montage import montage

from tests.reference_learner import reference_learn

# (op, state index, action index, value) — indices keep the key space
# small enough that interleavings actually collide on rows.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["value", "add", "set", "max_value", "best_action"]),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=6),
        st.floats(min_value=-8.0, max_value=8.0,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=50,
)


def _apply(table, rng, op, state_idx, action_idx, value):
    state = f"s{state_idx}"
    action = (action_idx, action_idx + 1)
    # a stable slice of the action space, so max/best see 1..7 actions
    actions = [(k, k + 1) for k in range(action_idx + 1)]
    if op == "value":
        return table.value(state, action)
    if op == "add":
        return table.add(state, action, value)
    if op == "set":
        table.set(state, action, value)
        return None
    if op == "max_value":
        return table.max_value(state, actions)
    return table.best_action(state, actions, rng)


class TestQTableBackendEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1), ops=_OPS)
    def test_interleaved_ops_bit_identical(self, seed, ops):
        array = QTable(init_scale=1e-3, seed=seed, backend="array")
        plain = QTable(init_scale=1e-3, seed=seed, backend="dict")
        rng_a = RngService(seed).stream("tie")
        rng_d = RngService(seed).stream("tie")
        for op, state_idx, action_idx, value in ops:
            got_a = _apply(array, rng_a, op, state_idx, action_idx, value)
            got_d = _apply(plain, rng_d, op, state_idx, action_idx, value)
            assert got_a == got_d, (op, state_idx, action_idx, value)
        assert array.items() == plain.items()
        assert array.to_json() == plain.to_json()

    def test_wide_action_set_uses_same_floats(self):
        # crosses the scalar-reduction threshold into the numpy branch
        actions = [(k, k + 1) for k in range(64)]
        array = QTable(init_scale=1e-3, seed=3, backend="array")
        plain = QTable(init_scale=1e-3, seed=3, backend="dict")
        assert array.max_value("s", actions) == plain.max_value("s", actions)
        assert array.best_action("s", actions) == plain.best_action("s", actions)
        assert array.to_json() == plain.to_json()

    def test_json_round_trip_crosses_backends(self):
        array = QTable(init_scale=1e-3, seed=9, backend="array")
        array.set("s", (1, 2), 4.5)
        array.value("s", (3, 4))  # lazily initialized entry survives too
        back = QTable.from_json(array.to_json(), backend="dict")
        assert back.to_json() == array.to_json()


class TestLearnerBackendEquivalence:
    def test_learning_run_bit_identical(self):
        def learner(backend):
            return ReassignLearner(
                montage(25, seed=1),
                fleet_for(16),
                ReassignParams(episodes=4, qtable_backend=backend),
                seed=7,
            )

        # array learns on the fused stepper, dict on the scheduler-object
        # path: both must match the object-path reference
        want = reference_learn(learner("array"))
        for backend in ("array", "dict"):
            got = learner(backend).learn()
            assert got.qtable_json == want.qtable_json
            assert [e.to_dict() for e in got.episodes] == [
                e.to_dict() for e in want.episodes
            ]
            assert got.plan.to_json() == want.plan.to_json()
            assert got.simulated_makespan == want.simulated_makespan


def _cell_fingerprints(records):
    return [
        (r.key, r.value.simulated_makespan, r.value.learning_time,
         r.value.result.qtable_json, r.value.result.plan.to_json())
        for r in records
    ]


def _reduced_sweep_tasks():
    return sweep_tasks(
        montage(25, seed=1),
        fleet_for(16),
        alphas=(0.1, 0.9),
        gammas=(1.0,),
        epsilons=(0.1, 0.5),
        episodes=2,
        seed=1,
        timing="simulated",
    )


class TestKernelCachingRegression:
    def test_serial_sweep_builds_each_kernel_once(self):
        clear_kernel_cache()
        tasks = _reduced_sweep_tasks()
        assert all(t.kernel_fingerprint for t in tasks)
        try:
            ParallelRunner(workers=1).run(tasks)
            stats = kernel_cache_stats()
            assert stats["builds"] == 1
            assert stats["hits"] == len(tasks) - 1
        finally:
            clear_kernel_cache()

    def test_workers4_with_kernel_cache_bitwise_equal_serial(self):
        clear_kernel_cache()
        try:
            serial = ParallelRunner(workers=1).run(_reduced_sweep_tasks())
            pooled = ParallelRunner(workers=4).run(_reduced_sweep_tasks())
        finally:
            clear_kernel_cache()
        assert _cell_fingerprints(serial) == _cell_fingerprints(pooled)
