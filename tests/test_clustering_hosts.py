"""Tests for task clustering (repro.dag.clustering) and the physical
host layer (repro.sim.host)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dag import random_layered_dag
from repro.dag.clustering import horizontal_clustering, vertical_clustering
from repro.schedulers import HeftScheduler, PlanFollowingScheduler
from repro.sim import WorkflowSimulator, ZeroCostNetwork, t2_fleet
from repro.sim.host import Host, HostPool, host_failure_revocations
from repro.sim.vm import VM_TYPES, Vm
from repro.util.validate import ValidationError


class TestHorizontalClustering:
    def test_covers_all_activations(self, montage50):
        clustered = horizontal_clustering(montage50, group_size=3)
        assert clustered.n_original == 50
        clustered.workflow.validate()

    def test_group_size_one_is_identity_structure(self, diamond):
        clustered = horizontal_clustering(diamond, group_size=1)
        assert len(clustered.workflow) == 4
        assert clustered.workflow.edge_count == diamond.edge_count

    def test_runtime_conserved(self, montage50):
        clustered = horizontal_clustering(montage50, group_size=4)
        total = sum(ac.runtime for ac in clustered.workflow)
        original = sum(ac.runtime for ac in montage50)
        assert total == pytest.approx(original)

    def test_members_within_one_level(self, montage50):
        clustered = horizontal_clustering(montage50, group_size=4)
        level_of = {}
        for depth, level in enumerate(montage50.levels()):
            for node in level:
                level_of[node] = depth
        for ids in clustered.members.values():
            assert len({level_of[i] for i in ids}) == 1

    def test_reduces_node_count(self, montage50):
        clustered = horizontal_clustering(montage50, group_size=4)
        assert len(clustered.workflow) < 50

    def test_invalid_group_size(self, diamond):
        with pytest.raises(ValidationError):
            horizontal_clustering(diamond, group_size=0)


class TestVerticalClustering:
    def test_chain_collapses_to_one(self, chain):
        clustered = vertical_clustering(chain)
        assert len(clustered.workflow) == 1
        only = clustered.workflow.activations[0]
        assert only.runtime == pytest.approx(15.0)

    def test_diamond_keeps_branches(self, diamond):
        clustered = vertical_clustering(diamond)
        # 0 has two children, 3 has two parents: no chain merging possible
        assert len(clustered.workflow) == 4

    def test_montage_tail_chain_merges(self, montage50):
        # mAdd -> mShrink -> mJPEG is a single-parent/child chain
        clustered = vertical_clustering(montage50)
        merged_activities = {
            ac.activity for ac in clustered.workflow if "+" in ac.activity
        }
        assert any("mShrink" in a and "mJPEG" in a for a in merged_activities)

    def test_covers_all(self, montage50):
        clustered = vertical_clustering(montage50)
        assert clustered.n_original == 50


class TestClusterSemantics:
    def test_internal_files_hidden(self, chain, montage50):
        clustered = vertical_clustering(montage50)
        for cluster_id, ids in clustered.members.items():
            ac = clustered.workflow.activation(cluster_id)
            produced_inside = {
                f.name
                for i in ids
                for f in montage50.activation(i).outputs
            }
            for f in ac.inputs:
                assert f.name not in produced_inside

    def test_cluster_of(self, montage50):
        clustered = horizontal_clustering(montage50, group_size=3)
        for cluster_id, ids in clustered.members.items():
            for original in ids:
                assert clustered.cluster_of(original) == cluster_id
        with pytest.raises(ValidationError):
            clustered.cluster_of(9999)

    def test_expand_plan(self, montage50, fleet16):
        clustered = horizontal_clustering(montage50, group_size=3)
        plan = HeftScheduler().plan(clustered.workflow, fleet16)
        expanded = clustered.expand(plan)
        expanded.validate_against(montage50, fleet16)
        # cluster members share the cluster's VM
        for cluster_id, ids in clustered.members.items():
            for original in ids:
                assert expanded.vm_of(original) == plan.vm_of(cluster_id)

    def test_expanded_plan_executes(self, montage50, fleet16):
        clustered = horizontal_clustering(montage50, group_size=3)
        plan = HeftScheduler().plan(clustered.workflow, fleet16)
        expanded = clustered.expand(plan)
        result = WorkflowSimulator(
            montage50, fleet16, PlanFollowingScheduler(expanded),
            network=ZeroCostNetwork(),
        ).run()
        assert result.succeeded

    def test_clustered_dag_simulatable(self, montage50, fleet16):
        clustered = vertical_clustering(montage50)
        result = WorkflowSimulator(
            clustered.workflow, fleet16,
            HeftScheduler().as_online(clustered.workflow, fleet16),
            network=ZeroCostNetwork(),
        ).run()
        assert result.succeeded


class TestHost:
    def test_capacity_tracking(self):
        host = Host(0, pcpus=16, ram_gb=64.0)
        vm = Vm(0, VM_TYPES["t2.2xlarge"])
        assert host.fits(vm)
        host.place(vm)
        assert host.used_pcpus == 8
        assert host.used_ram_gb == 32.0

    def test_overfill_rejected(self):
        host = Host(0, pcpus=8, ram_gb=64.0)
        host.place(Vm(0, VM_TYPES["t2.2xlarge"]))
        with pytest.raises(ValidationError):
            host.place(Vm(1, VM_TYPES["t2.micro"]))

    def test_ram_constraint(self):
        host = Host(0, pcpus=64, ram_gb=1.5)
        host.place(Vm(0, VM_TYPES["t2.micro"]))  # 1 GB
        with pytest.raises(ValidationError):
            host.place(Vm(1, VM_TYPES["t2.micro"]))

    def test_remove(self):
        host = Host(0, pcpus=8, ram_gb=64.0)
        host.place(Vm(3, VM_TYPES["t2.micro"]))
        removed = host.remove(3)
        assert removed.id == 3 and host.used_pcpus == 0
        with pytest.raises(ValidationError):
            host.remove(3)


class TestHostPool:
    def _hosts(self):
        return [Host(i, pcpus=16, ram_gb=64.0) for i in range(3)]

    def test_first_fit_fills_in_order(self):
        pool = HostPool(self._hosts(), policy="first-fit")
        fleet = t2_fleet(4, 0)
        placement = pool.place_fleet(fleet)
        assert set(placement.values()) == {0}  # all fit on host 0

    def test_best_fit_packs_tightest(self):
        hosts = [Host(0, pcpus=16, ram_gb=64.0), Host(1, pcpus=9, ram_gb=64.0)]
        pool = HostPool(hosts, policy="best-fit")
        pool.place(Vm(0, VM_TYPES["t2.2xlarge"]))
        # host 1 (9 pcpus) has less slack than host 0 (16)
        assert pool.host_of(0).id == 1

    def test_fleet_placement_respects_capacity(self):
        pool = HostPool(self._hosts())
        fleet = t2_fleet(8, 1)  # 16 vCPUs over three 16-pcpu hosts
        pool.place_fleet(fleet)
        for host in pool.hosts:
            assert host.used_pcpus <= host.pcpus

    def test_no_room_rejected(self):
        pool = HostPool([Host(0, pcpus=1, ram_gb=1.0)])
        pool.place(Vm(0, VM_TYPES["t2.micro"]))
        with pytest.raises(ValidationError):
            pool.place(Vm(1, VM_TYPES["t2.micro"]))

    def test_double_place_rejected(self):
        pool = HostPool(self._hosts())
        vm = Vm(0, VM_TYPES["t2.micro"])
        pool.place(vm)
        with pytest.raises(ValidationError):
            pool.place(vm)

    def test_unknown_policy(self):
        with pytest.raises(ValidationError):
            HostPool(self._hosts(), policy="random")


class TestHostFailure:
    def test_failure_revokes_resident_vms(self, montage25):
        hosts = [Host(0, pcpus=8, ram_gb=32.0), Host(1, pcpus=16, ram_gb=64.0)]
        pool = HostPool(hosts)
        fleet = t2_fleet(4, 1)
        pool.place_fleet(fleet)
        victim_host = pool.host_of(fleet[-1].id).id  # where the 2xlarge sits
        revocations = host_failure_revocations(pool, victim_host, at=20.0)
        assert revocations
        assert all(r.time == 20.0 for r in revocations)
        resident = {vm.id for vm in pool.vms_on(victim_host)}
        assert {r.vm_id for r in revocations} == resident

        # the correlated failure plugs into the simulator
        from repro.schedulers import GreedyOnlineScheduler
        from tests.test_sim_spot import FixedRevocations

        result = WorkflowSimulator(
            montage25, fleet, GreedyOnlineScheduler(),
            network=ZeroCostNetwork(),
            revocations=FixedRevocations(revocations),
        ).run()
        assert result.succeeded
        late_vms = {
            r.vm_id for r in result.records if r.start_time >= 20.0
        }
        assert late_vms.isdisjoint(resident)


class TestClusteringProperties:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=2, max_value=40),
           group=st.integers(min_value=1, max_value=6),
           seed=st.integers(min_value=0, max_value=500))
    def test_horizontal_invariants(self, n, group, seed):
        wf = random_layered_dag(n, seed=seed)
        clustered = horizontal_clustering(wf, group_size=group)
        clustered.workflow.validate()  # acyclic
        assert clustered.n_original == n  # covers everything exactly once
        # runtime conserved
        assert sum(ac.runtime for ac in clustered.workflow) == pytest.approx(
            sum(ac.runtime for ac in wf)
        )
        # every original edge is preserved or internalized
        for parent, child in wf.edges:
            cp = clustered.cluster_of(parent)
            cc = clustered.cluster_of(child)
            if cp != cc:
                assert cc in clustered.workflow.children(cp)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=2, max_value=40),
           seed=st.integers(min_value=0, max_value=500))
    def test_vertical_invariants(self, n, seed):
        wf = random_layered_dag(n, seed=seed)
        clustered = vertical_clustering(wf)
        clustered.workflow.validate()
        assert clustered.n_original == n
        assert len(clustered.workflow) <= n
        # merged chains really were chains: each cluster's members form a
        # path in the original DAG
        for ids in clustered.members.values():
            ordered = sorted(ids, key=wf.topological_order().index)
            for a, b in zip(ordered, ordered[1:]):
                assert b in wf.children(a)
