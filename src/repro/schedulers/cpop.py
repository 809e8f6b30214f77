"""CPOP — Critical-Path-on-a-Processor (Topcuoglu et al., 2002).

The companion algorithm to HEFT from the same paper.  Priorities are
``rank_u + rank_d`` (upward plus downward rank); the nodes whose
priority equals the entry node's lie on the critical path, and all of
them are pinned to the single *critical-path processor* — the one that
minimizes the path's total execution cost.  Everything else is placed
by earliest finish time, as in HEFT.

Like our HEFT, processor = VM (single planning slot per VM by default,
matching WorkflowSim), and slot occupancy includes staging.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.dag.graph import Workflow
from repro.schedulers.base import EstimateModel, SchedulingPlan, StaticScheduler
from repro.schedulers.heft import _edge_bytes, upward_ranks
from repro.schedulers.timeline import SlotTimeline
from repro.sim.vm import Vm
from repro.util.validate import ValidationError

__all__ = ["CpopScheduler", "downward_ranks"]


def downward_ranks(
    workflow: Workflow, vms: Sequence[Vm], estimates: EstimateModel
) -> Dict[int, float]:
    """CPOP downward ranks: cost of the heaviest path from an entry.

    ``rank_d(entry) = 0``;
    ``rank_d(i) = max_parent(rank_d(p) + w̄(p) + c̄(p, i))``.
    """
    if not vms:
        raise ValidationError("need at least one VM")
    slot_speeds: List[float] = []
    for vm in vms:
        slot_speeds.extend([vm.type.speed] * vm.capacity)
    mean_bw = sum(vm.type.bandwidth_bytes_per_s for vm in vms) / len(vms)

    def w_bar(node: int) -> float:
        runtime = workflow.activation(node).runtime
        return sum(runtime / s for s in slot_speeds) / len(slot_speeds)

    def c_bar(parent: int, child: int) -> float:
        n, size = _edge_bytes(workflow, parent, child)
        return n * estimates.latency + size / mean_bw

    ranks: Dict[int, float] = {}
    for node in workflow.topological_order():
        parents = workflow.parents(node)
        ranks[node] = max(
            (ranks[p] + w_bar(p) + c_bar(p, node) for p in parents),
            default=0.0,
        )
    return ranks


class CpopScheduler(StaticScheduler):
    """Static CPOP planner.

    Parameters
    ----------
    single_slot_vms:
        As in :class:`~repro.schedulers.heft.HeftScheduler`: plan one
        task per VM at a time (default, WorkflowSim-faithful).
    """

    name = "CPOP"

    def __init__(self, estimates=None, single_slot_vms: bool = True) -> None:
        super().__init__(estimates)
        self.single_slot_vms = bool(single_slot_vms)

    def _critical_path(
        self, workflow: Workflow, priority: Dict[int, float]
    ) -> List[int]:
        """Walk the max-priority chain from the entry node."""
        entries = workflow.entries()
        if not entries:
            return []
        start = max(entries, key=lambda n: (priority[n], -n))
        path = [start]
        current = start
        while True:
            children = workflow.children(current)
            if not children:
                break
            nxt = max(children, key=lambda n: (priority[n], -n))
            path.append(nxt)
            current = nxt
        return path

    def plan(self, workflow: Workflow, vms: Sequence[Vm]) -> SchedulingPlan:
        """Compute the CPOP plan."""
        workflow.validate()
        if len(workflow) == 0:
            raise ValidationError("cannot plan an empty workflow")
        up = upward_ranks(workflow, vms, self.estimates)
        down = downward_ranks(workflow, vms, self.estimates)
        priority = {n: up[n] + down[n] for n in workflow.activation_ids}

        cp_nodes = set(self._critical_path(workflow, priority))
        # the CP processor minimizes the path's total compute cost
        cp_vm = min(
            vms,
            key=lambda vm: (
                sum(
                    self.estimates.compute_time(workflow.activation(n), vm)
                    for n in cp_nodes
                ),
                vm.id,
            ),
        )

        slots: Dict[int, List[SlotTimeline]] = {
            vm.id: [
                SlotTimeline()
                for _ in range(1 if self.single_slot_vms else vm.capacity)
            ]
            for vm in vms
        }
        placement: Dict[int, int] = {}
        finish: Dict[int, float] = {}
        # CPOP's priority (rank_u + rank_d) is NOT monotone along edges,
        # so schedule from a ready queue: highest priority among nodes
        # whose parents are all placed (the paper's priority queue).
        pending_parents = {
            n: len(workflow.parents(n)) for n in workflow.activation_ids
        }
        ready = {n for n, k in pending_parents.items() if k == 0}
        order: List[int] = []

        while ready:
            node = max(ready, key=lambda n: (priority[n], -n))
            ready.discard(node)
            order.append(node)
            ac = workflow.activation(node)
            release = max(
                (finish[p] for p in workflow.parents(node)), default=0.0
            )
            if node in cp_nodes:
                candidates = [cp_vm]
            else:
                candidates = list(vms)
            best: Tuple[float, float, int, int] = (float("inf"), 0.0, -1, -1)
            for vm in candidates:
                duration = self.estimates.total_time(ac, vm, placement, workflow)
                for slot_idx, timeline in enumerate(slots[vm.id]):
                    start = timeline.earliest_start(release, duration)
                    eft = start + duration
                    if eft < best[0] - 1e-12:
                        best = (eft, start, vm.id, slot_idx)
            eft, start, vm_id, slot_idx = best
            slots[vm_id][slot_idx].reserve(start, eft - start)
            placement[node] = vm_id
            finish[node] = eft
            for child in workflow.children(node):
                pending_parents[child] -= 1
                if pending_parents[child] == 0:
                    ready.add(child)

        return SchedulingPlan(assignment=placement, priority=order, name=self.name)
