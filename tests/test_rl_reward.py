"""Tests for repro.rl.reward — the paper's §III-B reward function."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rl import PerformanceReward
from repro.util.stats import RunningStats
from repro.util.validate import ValidationError

times = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


class TestSingleIndex:
    def test_formula(self):
        # Pi = tt*mu + (1-mu)*tf with tt = te + tf
        r = PerformanceReward(mu=0.5)
        assert r.single_index(te=10.0, tf=4.0) == pytest.approx(
            (10 + 4) * 0.5 + 0.5 * 4
        )

    def test_mu_one_ignores_queue_weighting(self):
        r = PerformanceReward(mu=1.0)
        assert r.single_index(10.0, 4.0) == pytest.approx(14.0)

    def test_mu_zero_is_pure_queue(self):
        r = PerformanceReward(mu=0.0)
        assert r.single_index(10.0, 4.0) == pytest.approx(4.0)


class TestVmTracker:
    """The per-VM history (Eq. 4) a ``PerformanceReward`` keeps."""

    def test_mean_index(self):
        r = PerformanceReward(mu=0.5)
        r.observe(0, 10.0, 2.0)
        r.observe(0, 20.0, 4.0)
        # P̄i = mean(te)*mu + (1-mu)*mean(tf)
        assert r.vm_index(0) == pytest.approx(15.0 * 0.5 + 0.5 * 3.0)

    def test_empty_is_zero(self):
        r = PerformanceReward(mu=0.5)
        assert r.vm_index(0) == 0.0
        r.observe(1, 10.0, 2.0)
        assert r.vm_index(0) == 0.0

    def test_negative_times_rejected(self):
        r = PerformanceReward(mu=0.5)
        r.observe(1, 10.0, 2.0)
        before = r.snapshot(), r.global_index()
        for te, tf in [(-1.0, 0.0), (0.0, -1.0), (float("nan"), 0.0)]:
            with pytest.raises(ValidationError):
                r.observe(0, te, tf)
            with pytest.raises(ValidationError):
                r.step(1, te, tf)
        # nothing was stored, for a new VM or a known one
        assert (r.snapshot(), r.global_index()) == before
        assert r.vm_ids() == [1]

    @pytest.mark.parametrize("te, tf", [
        (float("inf"), 0.0), (0.0, float("inf")),
        (float("-inf"), 0.0), (0.0, float("-inf")),
        (float("inf"), float("inf")),
    ])
    def test_infinite_times_rejected(self, te, tf):
        r = PerformanceReward(mu=0.5)
        r.observe(1, 10.0, 2.0)
        before = r.snapshot(), r.global_index(), r.index_std()
        with pytest.raises(ValidationError) as excinfo:
            r.observe(0, te, tf)
        # the message names both values
        assert f"te={te}" in str(excinfo.value)
        assert f"tf={tf}" in str(excinfo.value)
        with pytest.raises(ValidationError):
            r.step(1, te, tf)
        assert (r.snapshot(), r.global_index(), r.index_std()) == before

    def test_infinite_history_rejected_by_bootstrap(self):
        # one infinite time used to leave the VM index, the global index
        # and the std NaN, after which every Eq.-6 reward was +1
        r = PerformanceReward(mu=0.5)
        with pytest.raises(ValidationError, match="te=inf"):
            r.bootstrap([(0, float("inf"), 0.0), (0, 5.0, 1.0), (1, 3.0, 0.0)])
        assert r.vm_ids() == []
        assert r.global_index() == 0.0

    def test_infinite_prior_history_rejected_by_learner(self):
        from repro.core.reassign import ReassignLearner, ReassignParams
        from repro.experiments.environments import fleet_for
        from repro.workflows.montage import montage

        history = [(0, 5.0, 1.0), (1, 3.0, float("-inf"))]
        with pytest.raises(ValidationError, match="tf=-inf"):
            ReassignLearner(
                montage(25, seed=0), fleet_for(16),
                ReassignParams(episodes=1), prior_history=history,
            )


class TestCrispReward:
    def test_fast_vm_rewarded(self):
        r = PerformanceReward(mu=0.5)
        # vm 0 fast, vm 1 slow
        for _ in range(5):
            r.observe(0, 5.0, 1.0)
            r.observe(1, 50.0, 10.0)
        assert r.partial_reward(0) == 1.0

    def test_outlier_slow_vm_punished(self):
        r = PerformanceReward(mu=0.5)
        for vm in range(4):
            for _ in range(5):
                r.observe(vm, 5.0, 1.0)
        for _ in range(5):
            r.observe(9, 500.0, 100.0)
        assert r.partial_reward(9) == -1.0
        assert r.partial_reward(0) == 1.0

    def test_homogeneous_fleet_all_rewarded(self):
        r = PerformanceReward(mu=0.5)
        for vm in range(3):
            r.observe(vm, 10.0, 2.0)
        for vm in range(3):
            assert r.partial_reward(vm) == 1.0

    def test_stdv_uses_per_vm_dispersion(self):
        r = PerformanceReward(mu=0.5)
        r.observe(0, 10.0, 0.0)
        r.observe(1, 20.0, 0.0)
        r.observe(2, 30.0, 0.0)
        # indices 5, 10, 15 -> global mean Pw=10, stdv over {5,10,15}
        assert r.index_std() == pytest.approx(
            (((5 - 10) ** 2 + 0 + (15 - 10) ** 2) / 3) ** 0.5
        )

    def test_stdv_zero_with_single_vm(self):
        r = PerformanceReward()
        r.observe(0, 10.0, 1.0)
        assert r.index_std() == 0.0

    def test_above_the_mean_within_one_stdv_rewarded(self):
        r = PerformanceReward(mu=0.5)
        for vm, te in enumerate([10.0, 20.0, 22.0]):
            r.observe(vm, te, 0.0)
        # indices 5, 10, 11: Pw = 8.67 and stdv = 2.62, so VM 2 sits
        # above Pw but below Pw + stdv
        assert r.global_index() < r.vm_index(2) < (
            r.global_index() + r.index_std()
        )
        assert r.partial_reward(2) == 1.0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), times, times),
                    min_size=1, max_size=40))
    def test_eq6_is_the_unconditional_test(self, observations):
        """Skipping the stdv pass at or below Pw never changes r_i.

        stdv is the Welford std of the per-VM indices in
        first-observation order, as a fresh ``RunningStats`` gives it.
        """
        r = PerformanceReward(mu=0.5)
        for vm, te, tf in observations:
            r.observe(vm, te, tf)
        order = list(dict.fromkeys(vm for vm, _, _ in observations))
        spread = RunningStats()
        for vm in order:
            spread.push(r.vm_index(vm))
        std = spread.std if spread.count >= 2 else 0.0
        assert r.index_std() == std
        for vm in order:
            crisp = -1.0 if r.vm_index(vm) > r.global_index() + std else 1.0
            assert r.partial_reward(vm) == crisp


class TestSmoothedReward:
    def test_update_rule(self):
        r = PerformanceReward(mu=0.5, rho=0.5)
        # single vm: always +1 crisp reward
        assert r.step(0, 10.0, 1.0) == pytest.approx(0.5)   # 0 + 0.5*(1-0)
        assert r.step(0, 10.0, 1.0) == pytest.approx(0.75)  # 0.5 + 0.5*(1-0.5)

    def test_converges_to_crisp_value(self):
        r = PerformanceReward(rho=0.5)
        for _ in range(30):
            value = r.step(0, 10.0, 1.0)
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_episode_reset_keeps_history(self):
        r = PerformanceReward()
        r.step(0, 10.0, 1.0)
        r.start_episode(keep_history=True)
        assert r.reward == 0.0
        assert r.vm_index(0) > 0.0  # history survived

    def test_episode_reset_can_clear(self):
        r = PerformanceReward()
        r.step(0, 10.0, 1.0)
        r.start_episode(keep_history=False)
        assert r.vm_index(0) == 0.0

    def test_bootstrap(self):
        r = PerformanceReward()
        r.bootstrap([(0, 10.0, 1.0), (1, 20.0, 2.0)])
        assert r.vm_ids() == [0, 1]
        assert r.global_index() > 0

    def test_snapshot(self):
        r = PerformanceReward(mu=0.5)
        r.observe(3, 10.0, 2.0)
        snap = r.snapshot()
        assert snap == [(3, 1, pytest.approx(10 * 0.5 + 0.5 * 2))]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), times, times),
                    min_size=1, max_size=60))
    def test_reward_bounded(self, observations):
        """r^t must stay within [-1, 1] and crisp rewards within {-1, +1}."""
        r = PerformanceReward(mu=0.5, rho=0.7)
        for vm, te, tf in observations:
            value = r.step(vm, te, tf)
            assert -1.0 <= value <= 1.0
            assert r.partial_reward(vm) in (-1.0, 1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), times, times),
                    min_size=2, max_size=40),
           st.floats(min_value=0.0, max_value=1.0))
    def test_global_index_is_weighted_mean(self, observations, mu):
        r = PerformanceReward(mu=mu)
        for vm, te, tf in observations:
            r.observe(vm, te, tf)
        tes = [te for _, te, _ in observations]
        tfs = [tf for _, _, tf in observations]
        expected = mu * sum(tes) / len(tes) + (1 - mu) * sum(tfs) / len(tfs)
        assert r.global_index() == pytest.approx(expected, rel=1e-9, abs=1e-9)
