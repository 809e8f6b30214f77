"""Tests for repro.sim.simulator — the discrete-event engine."""

import pytest

from repro.schedulers import FcfsScheduler
from repro.sim import (
    BernoulliFailures,
    PeriodicMigrations,
    SharedStorageNetwork,
    WorkflowSimulator,
    ZeroCostNetwork,
)
from repro.sim.simulator import SimulationError
from repro.sim.vm import VM_TYPES, Vm, VmType
from repro.util.validate import ValidationError


def run(wf, vms, scheduler=None, **kw):
    kw.setdefault("network", ZeroCostNetwork())
    sim = WorkflowSimulator(wf, vms, scheduler or FcfsScheduler(), **kw)
    return sim.run()


class TestBasicExecution:
    def test_chain_is_serial(self, chain, fleet_small):
        result = run(chain, fleet_small)
        assert result.succeeded
        assert result.makespan == pytest.approx(1 + 2 + 3 + 4 + 5)

    def test_diamond_parallel_branches(self, diamond, fleet_small):
        result = run(diamond, fleet_small)
        # 10 + max(20, 5) + 8
        assert result.makespan == pytest.approx(38.0)

    def test_fork_join_on_one_micro(self, fork_join):
        # single 1-slot VM: everything serializes
        result = run(fork_join, [Vm(0, VM_TYPES["t2.micro"])])
        assert result.makespan == pytest.approx(3 + 6 * 10 + 3)

    def test_fork_join_on_big_vm(self, fork_join):
        # 8 slots: the 6 middles run together
        result = run(fork_join, [Vm(0, VM_TYPES["t2.2xlarge"])])
        assert result.makespan == pytest.approx(3 + 10 + 3)

    def test_every_activation_has_record(self, montage25, fleet16):
        result = run(montage25, fleet16)
        assert sorted(r.activation_id for r in result.records) == (
            montage25.activation_ids
        )

    def test_caller_workflow_not_mutated(self, diamond, fleet_small):
        run(diamond, fleet_small)
        from repro.dag import ActivationState

        assert all(ac.state is ActivationState.LOCKED for ac in diamond)


class TestInvariants:
    def test_dependencies_respected(self, montage25, fleet16):
        result = run(montage25, fleet16)
        finish = {r.activation_id: r.finish_time for r in result.records}
        start = {r.activation_id: r.start_time for r in result.records}
        for parent, child in montage25.edges:
            assert start[child] >= finish[parent] - 1e-9

    def test_capacity_never_exceeded(self, montage25, fleet16):
        result = run(montage25, fleet16)
        capacity = {vm.id: vm.capacity for vm in fleet16}
        events = []
        for r in result.records:
            events.append((r.start_time, 1, r.vm_id))
            events.append((r.finish_time, -1, r.vm_id))
        events.sort(key=lambda e: (e[0], e[1]))
        load = {vm.id: 0 for vm in fleet16}
        for _, delta, vm_id in events:
            load[vm_id] += delta
            assert load[vm_id] <= capacity[vm_id]

    def test_queue_time_non_negative(self, montage25, fleet16):
        result = run(montage25, fleet16)
        for r in result.records:
            assert r.queue_time >= 0
            assert r.execution_time > 0
            assert r.total_time == pytest.approx(r.execution_time + r.queue_time)

    def test_makespan_is_max_finish(self, montage25, fleet16):
        result = run(montage25, fleet16)
        assert result.makespan == max(r.finish_time for r in result.records)


class TestDeterminism:
    def test_same_seed_same_result(self, montage25, fleet16):
        from repro.sim import GaussianFluctuation

        a = run(montage25, fleet16, fluctuation=GaussianFluctuation(0.2), seed=5)
        b = run(montage25, fleet16, fluctuation=GaussianFluctuation(0.2), seed=5)
        assert a.makespan == b.makespan
        assert a.assignment == b.assignment

    def test_different_seed_differs(self, montage25, fleet16):
        from repro.sim import GaussianFluctuation

        a = run(montage25, fleet16, fluctuation=GaussianFluctuation(0.2), seed=5)
        b = run(montage25, fleet16, fluctuation=GaussianFluctuation(0.2), seed=6)
        assert a.makespan != b.makespan


class TestTransfers:
    def test_shared_storage_slows_run(self, montage25, fleet16):
        fast = run(montage25, fleet16)  # zero-cost network
        slow = WorkflowSimulator(
            montage25, fleet16, FcfsScheduler(),
            network=SharedStorageNetwork(latency=0.5),
        ).run()
        assert slow.makespan > fast.makespan

    def test_stage_in_recorded(self, montage25, fleet16):
        result = WorkflowSimulator(
            montage25, fleet16, FcfsScheduler(),
            network=SharedStorageNetwork(latency=0.5),
        ).run()
        entries = set(montage25.entries())
        assert all(
            r.stage_in_time > 0 for r in result.records
            if r.activation_id in entries
        )


class TestFailures:
    def test_retries_eventually_succeed(self, montage25, fleet16):
        result = run(
            montage25, fleet16,
            failures=BernoulliFailures(0.3),
            max_attempts=50,
            seed=3,
        )
        assert result.succeeded
        assert any(r.attempts > 1 for r in result.records)

    def test_terminal_failure_state(self, chain, fleet_small):
        result = run(
            chain, fleet_small,
            failures=BernoulliFailures(1.0),
            max_attempts=1,
        )
        assert result.final_state == "finished with failure"
        assert not result.succeeded
        # only the first chain element ever ran
        assert len(result.records) == 1
        assert result.records[0].failed

    def test_failure_cascades_to_descendants(self, diamond, fleet_small):
        # fail node 1 only; nodes 0, 2 succeed, 3 is cancelled
        result = run(
            diamond, fleet_small,
            failures=BernoulliFailures(1.0, activity="prog-fail"),
            max_attempts=1,
        )
        assert result.succeeded  # no activation matched the failing activity

    def test_retry_consumes_time(self, chain, fleet_small):
        clean = run(chain, fleet_small)
        flaky = run(
            chain, fleet_small,
            failures=BernoulliFailures(0.5),
            max_attempts=20,
            seed=1,
        )
        assert flaky.makespan > clean.makespan


class TestMigrations:
    def test_migrations_delay_completion(self, montage25, fleet16):
        base = run(montage25, fleet16, seed=2)
        migrated = run(
            montage25, fleet16,
            migrations=PeriodicMigrations(mean_interval=60.0,
                                          min_downtime=10.0, max_downtime=20.0),
            seed=2,
        )
        assert migrated.makespan > base.makespan
        assert migrated.succeeded


class TestBoot:
    def test_boot_delays_start(self, chain):
        slow_type = VmType("slowboot", 1, 1.0, 1.0, 0.0, boot_time=25.0)
        result = run(chain, [Vm(0, slow_type)])
        assert result.records[0].start_time >= 25.0


class TestSchedulerContract:
    def test_bad_vm_choice_raises(self, chain, fleet_small):
        class Bad:
            def select(self, ctx):
                return (ctx.ready_activations[0].id, 999)

        with pytest.raises(ValidationError):
            run(chain, fleet_small, scheduler=Bad())

    def test_busy_vm_choice_raises(self, fork_join):
        class Pile:
            def select(self, ctx):
                return (ctx.ready_activations[0].id, 0)  # ignores busyness

        # VM 0 fills up after one dispatch, but VM 1 stays idle, so the
        # dispatch loop keeps consulting the scheduler — which then
        # illegally targets the busy VM 0.
        vms = [Vm(0, VM_TYPES["t2.micro"]), Vm(1, VM_TYPES["t2.micro"])]
        with pytest.raises(ValidationError):
            run(fork_join, vms, scheduler=Pile())

    def test_do_nothing_forever_deadlocks(self, chain, fleet_small):
        class Lazy:
            def select(self, ctx):
                return None

        with pytest.raises(SimulationError, match="deadlock"):
            run(chain, fleet_small, scheduler=Lazy())

    def test_hooks_called(self, chain, fleet_small):
        calls = []

        class Spy(FcfsScheduler):
            def on_simulation_start(self, ctx):
                calls.append("start")

            def on_dispatched(self, ctx, pending):
                calls.append("dispatch")

            def on_activation_finished(self, ctx, record):
                calls.append("finish")

            def on_simulation_end(self, ctx, result):
                calls.append("end")

        run(chain, fleet_small, scheduler=Spy())
        assert calls[0] == "start" and calls[-1] == "end"
        assert calls.count("dispatch") == 5 and calls.count("finish") == 5

    def test_pending_exposes_te_tf(self, chain, fleet_small):
        seen = []

        class Spy(FcfsScheduler):
            def on_dispatched(self, ctx, pending):
                seen.append((pending.queue_time, pending.planned_execution_time))

        run(chain, fleet_small, scheduler=Spy())
        assert len(seen) == 5
        assert all(te > 0 and tf >= 0 for tf, te in seen)


class TestConstruction:
    def test_empty_fleet_rejected(self, chain):
        with pytest.raises(ValidationError):
            WorkflowSimulator(chain, [], FcfsScheduler())

    def test_duplicate_vm_ids_rejected(self, chain):
        vms = [Vm(0, VM_TYPES["t2.micro"]), Vm(0, VM_TYPES["t2.micro"])]
        with pytest.raises(ValidationError):
            WorkflowSimulator(chain, vms, FcfsScheduler())

    def test_zero_attempts_rejected(self, chain, fleet_small):
        with pytest.raises(ValidationError):
            WorkflowSimulator(chain, fleet_small, FcfsScheduler(), max_attempts=0)

    def test_horizon_exceeded(self, chain, fleet_small):
        with pytest.raises(SimulationError):
            run(chain, fleet_small, horizon=5.0)

    def test_rerunnable(self, chain, fleet_small):
        sim = WorkflowSimulator(chain, fleet_small, FcfsScheduler(),
                                network=ZeroCostNetwork())
        a = sim.run()
        b = sim.run()
        assert a.makespan == b.makespan
