"""Tests for the cost-aware reward and the online execution mode."""

import pytest

from repro.core import ReassignLearner, ReassignParams, ReassignScheduler
from repro.rl import CostAwarePerformanceReward, PerformanceReward
from repro.scicumulus import CloudProfile, MpiConfig, MpiOverheadNetwork, execute_online
from repro.schedulers import GreedyOnlineScheduler
from repro.sim import SharedStorageNetwork
from repro.util.validate import ValidationError

from tests.conftest import make_activation
from repro.dag import File


class TestCostAwareReward:
    def test_weight_zero_matches_paper_reward(self, fleet16):
        plain = PerformanceReward(mu=0.5, rho=0.5)
        costed = CostAwarePerformanceReward(fleet16, cost_weight=0.0)
        for vm, te, tf in [(0, 10.0, 1.0), (8, 20.0, 2.0), (3, 5.0, 0.5)]:
            assert plain.step(vm, te, tf) == pytest.approx(
                costed.step(vm, te, tf)
            )
        assert plain.global_index() == pytest.approx(costed.global_index())

    def test_expensive_vm_index_inflated(self, fleet16):
        costed = CostAwarePerformanceReward(fleet16, cost_weight=1.0)
        # same observed times on a micro (cheap) and the 2xlarge (32x price)
        costed.observe(0, 10.0, 0.0)
        costed.observe(8, 10.0, 0.0)
        assert costed.vm_index(8) > costed.vm_index(0)

    def test_price_ratio_applied(self, fleet16):
        ratio = 0.3712 / 0.0116  # 2xlarge over micro hourly price
        # a reward step observes through the override: inflated once
        for method in ("observe", "step"):
            costed = CostAwarePerformanceReward(fleet16, cost_weight=1.0)
            getattr(costed, method)(8, 10.0, 0.0)
            # index = mu * te_eff = 0.5 * 10 * (1 + ratio)
            assert costed.vm_index(8) == pytest.approx(
                0.5 * 10.0 * (1 + ratio)
            )
            assert costed.global_index() == costed.vm_index(8)

    def test_unknown_vm_treated_as_reference(self, fleet16):
        costed = CostAwarePerformanceReward(fleet16, cost_weight=1.0)
        costed.observe(99, 10.0, 0.0)
        assert costed.vm_index(99) == pytest.approx(0.5 * 10.0 * 2.0)

    def test_punishes_expensive_outlier(self, fleet16):
        costed = CostAwarePerformanceReward(fleet16, cost_weight=2.0)
        for vm in range(8):  # micros
            costed.observe(vm, 10.0, 1.0)
        costed.observe(8, 10.0, 1.0)  # same speed, 32x the price
        assert costed.partial_reward(8) == -1.0
        assert costed.partial_reward(0) == 1.0

    def test_learner_integration_shifts_placement(self, fleet16):
        from repro.workflows import montage

        wf = montage(25, seed=3)
        params = ReassignParams(alpha=0.5, gamma=1.0, epsilon=0.1, episodes=15)
        free = ReassignLearner(wf, fleet16, params, seed=4).learn()
        priced = ReassignLearner(
            wf, fleet16, params, seed=4,
            reward=CostAwarePerformanceReward(fleet16, cost_weight=2.0),
        ).learn()
        big = 8
        n_free = sum(1 for v in free.plan.assignment.values() if v == big)
        n_priced = sum(1 for v in priced.plan.assignment.values() if v == big)
        assert n_priced <= n_free

    def test_validation(self, fleet16):
        with pytest.raises(ValidationError):
            CostAwarePerformanceReward([], cost_weight=0.5)
        with pytest.raises(ValidationError):
            CostAwarePerformanceReward(fleet16, cost_weight=-1.0)


class TestMpiOverheadNetwork:
    def test_adds_latency(self, fleet16):
        inner = SharedStorageNetwork(latency=0.0)
        mpi = MpiConfig(message_latency=0.5, master_overhead=0.25)
        net = MpiOverheadNetwork(inner, mpi)
        ac = make_activation(0, inputs=[File("a", 0.0)], outputs=[File("b", 0.0)])
        vm = fleet16[0]
        assert net.stage_in_time(ac, vm, {}) == pytest.approx(
            0.75 + inner.stage_in_time(ac, vm, {})
        )
        assert net.stage_out_time(ac, vm) == pytest.approx(
            0.5 + inner.stage_out_time(ac, vm)
        )

    def test_defaults(self, fleet16):
        net = MpiOverheadNetwork()
        ac = make_activation(0)
        assert net.stage_in_time(ac, fleet16[0], {}) > 0


class TestExecuteOnline:
    def test_plain_online_scheduler(self, montage25, fleet16):
        result = execute_online(
            montage25, fleet16, GreedyOnlineScheduler(),
            profile=CloudProfile.calm(), seed=2,
        )
        assert result.succeeded
        assert len(result.records) == 25

    def test_reassign_online_with_trained_q(self, montage25, fleet16):
        params = ReassignParams(alpha=0.5, gamma=1.0, epsilon=0.1, episodes=10)
        learner = ReassignLearner(montage25, fleet16, params, seed=5)
        learner.learn()
        online = ReassignScheduler(
            params, qtable=learner.scheduler.qtable, seed=5, learning=False
        )
        result = execute_online(
            montage25, fleet16, online, profile=CloudProfile.calm(), seed=5
        )
        assert result.succeeded

    def test_deterministic(self, montage25, fleet16):
        a = execute_online(montage25, fleet16, GreedyOnlineScheduler(), seed=9)
        b = execute_online(montage25, fleet16, GreedyOnlineScheduler(), seed=9)
        assert a.makespan == b.makespan

    def test_noise_profiles_order(self, montage25, fleet16):
        calm = execute_online(
            montage25, fleet16, GreedyOnlineScheduler(),
            profile=CloudProfile.calm(), seed=3,
        )
        stormy = execute_online(
            montage25, fleet16, GreedyOnlineScheduler(),
            profile=CloudProfile.stormy(), seed=3,
        )
        assert stormy.makespan > calm.makespan

    def test_usage_cost_positive(self, montage25, fleet16):
        result = execute_online(
            montage25, fleet16, GreedyOnlineScheduler(), seed=2
        )
        assert 0 < result.usage_cost() < result.cost()
