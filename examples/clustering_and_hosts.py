#!/usr/bin/env python
"""Task clustering and physical-host awareness.

Part 1 shows WorkflowSim-style clustering: with a hefty per-dispatch MPI
overhead, merging serial chains (vertical clustering) removes dispatches
for free, while over-eager horizontal merging costs parallelism.

Part 2 places the Table-I fleet on physical hosts (first-fit vs
best-fit) and fails the host carrying the 2xlarge mid-run: every
resident VM is revoked at once, and the online scheduler reroutes the
interrupted work to survivors.

Run:  python examples/clustering_and_hosts.py
"""

from repro.dag import horizontal_clustering, vertical_clustering
from repro.schedulers import GreedyOnlineScheduler, HeftScheduler, PlanFollowingScheduler
from repro.scicumulus import MpiConfig, MpiOverheadNetwork
from repro.sim import (
    Host,
    HostPool,
    WorkflowSimulator,
    host_failure_revocations,
    t2_fleet,
)
from repro.sim.spot import RevocationModel
from repro.util.tables import render_table
from repro.workflows import montage


class FixedRevocations(RevocationModel):
    def __init__(self, revocations):
        self._revocations = list(revocations)

    def revocations(self, vms, horizon, rng):
        return [r for r in self._revocations if r.time < horizon]


def main() -> None:
    wf = montage(50, seed=1)
    fleet = t2_fleet(8, 1)
    heavy_mpi = MpiOverheadNetwork(mpi=MpiConfig(message_latency=1.0,
                                                 master_overhead=1.0))

    print("Part 1 — clustering under a 2s dispatch overhead")
    rows = []
    for label, target in (
        ("none", None),
        ("vertical", vertical_clustering(wf)),
        ("horizontal(3)", horizontal_clustering(wf, group_size=3)),
    ):
        run_wf = wf if target is None else target.workflow
        plan = HeftScheduler().plan(run_wf, fleet)
        result = WorkflowSimulator(
            run_wf, fleet, PlanFollowingScheduler(plan),
            network=heavy_mpi, seed=0,
        ).run()
        rows.append((label, len(run_wf), round(result.makespan, 1)))
    print(render_table(["clustering", "jobs", "makespan [s]"], rows))

    print("\nPart 2 — host placement and a correlated host failure")
    hosts = [Host(0, pcpus=12, ram_gb=48.0), Host(1, pcpus=12, ram_gb=48.0)]
    pool = HostPool(hosts, policy="first-fit")
    pool.place_fleet(fleet)
    for host in hosts:
        resident = sorted(vm.id for vm in host.vms)
        print(f"  host {host.id}: VMs {resident} "
              f"({host.used_pcpus}/{host.pcpus} pCPUs)")

    victim = pool.host_of(8).id  # the host carrying the 2xlarge
    revocations = host_failure_revocations(pool, victim, at=60.0)
    print(f"  failing host {victim} at t=60s revokes VMs "
          f"{sorted(r.vm_id for r in revocations)}")

    clean = WorkflowSimulator(wf, fleet, GreedyOnlineScheduler(), seed=3).run()
    failed = WorkflowSimulator(
        wf, fleet, GreedyOnlineScheduler(),
        revocations=FixedRevocations(revocations), seed=3,
    ).run()
    print(f"  makespan without failure: {clean.makespan:.1f}s")
    print(f"  makespan with host loss:  {failed.makespan:.1f}s "
          f"({failed.final_state}; all {len(failed.records)} activations "
          f"completed on surviving VMs)")


if __name__ == "__main__":
    main()
