"""Scheduler interfaces, cost estimates and the scheduling-plan object.

The simulator consults an :class:`OnlineScheduler` at every decision point.
Static algorithms (HEFT & friends) instead produce a
:class:`SchedulingPlan` — an activation→VM assignment plus a dispatch
priority — which :class:`PlanFollowingScheduler` replays online.  This is
exactly the paper's two-stage shape: ReASSIgN's learned plan is replayed
the same way when handed to SciCumulus-RL.
"""

from __future__ import annotations

import abc
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.dag.activation import Activation
from repro.dag.graph import Workflow
from repro.sim.estimates import NominalEstimateCache
from repro.sim.simulator import SimulationContext
from repro.sim.vm import Vm
from repro.util.decode import check_index, decode_id_map, json_field, unique_keys
from repro.util.validate import ValidationError, check_non_negative

__all__ = [
    "Decision",
    "EstimateModel",
    "OnlineScheduler",
    "StaticScheduler",
    "SchedulingPlan",
    "PlanFollowingScheduler",
]

#: A schedule action: (activation id, vm id).
Decision = Tuple[int, int]


class EstimateModel:
    """Planning-time cost estimates, aligned with the simulator defaults.

    Static planners cannot observe fluctuation, so they estimate with the
    nominal model: compute = ``runtime / speed``; staging mirrors
    :class:`~repro.sim.network.SharedStorageNetwork` (inputs not produced
    on the same VM are fetched at the consumer's bandwidth; outputs are
    published at the producer's bandwidth).
    """

    def __init__(
        self,
        latency: float = 0.05,
        upload_outputs: bool = True,
        cache: Optional[NominalEstimateCache] = None,
    ) -> None:
        self.latency = check_non_negative("latency", latency)
        self.upload_outputs = bool(upload_outputs)
        if cache is not None and (
            cache.latency != self.latency
            or cache.upload_outputs != self.upload_outputs
        ):
            raise ValidationError(
                "estimate cache parameters do not match the model's"
            )
        self._cache = cache

    def compute_time(self, activation: Activation, vm: Vm) -> float:
        """Nominal compute seconds of ``activation`` on ``vm``."""
        if self._cache is not None:
            return self._cache.compute_time(activation, vm)
        return vm.execution_time(activation.runtime)

    def stage_in_time(
        self,
        activation: Activation,
        vm: Vm,
        placement: Dict[int, int],
        workflow: Workflow,
    ) -> float:
        """Staging estimate given a (partial) activation->VM ``placement``.

        A file is free if its producer is placed on ``vm``; workflow-input
        files always transfer from shared storage.
        """
        producer_of: Dict[str, int] = {}
        for pid in workflow.parents(activation.id):
            for f in workflow.activation(pid).outputs:
                producer_of[f.name] = pid
        if self._cache is not None:
            # same per-file terms summed in the same order as below, so
            # the cached sum is bit-identical to the uncached one
            total = 0.0
            for name, seconds in self._cache.stage_in_terms(activation, vm):
                pid = producer_of.get(name)
                if pid is not None and placement.get(pid) == vm.id:
                    continue  # already local
                total += seconds
            return total
        bw = vm.type.bandwidth_bytes_per_s
        total = 0.0
        for f in activation.inputs:
            pid = producer_of.get(f.name)
            if pid is not None and placement.get(pid) == vm.id:
                continue  # already local
            total += self.latency + f.size_bytes / bw
        return total

    def stage_out_time(self, activation: Activation, vm: Vm) -> float:
        """Publishing estimate."""
        if not self.upload_outputs:
            return 0.0
        if self._cache is not None:
            return self._cache.stage_out_time(activation, vm)
        bw = vm.type.bandwidth_bytes_per_s
        return sum(self.latency + f.size_bytes / bw for f in activation.outputs)

    def total_time(
        self,
        activation: Activation,
        vm: Vm,
        placement: Dict[int, int],
        workflow: Workflow,
    ) -> float:
        """Staging + compute + publishing estimate."""
        return (
            self.stage_in_time(activation, vm, placement, workflow)
            + self.compute_time(activation, vm)
            + self.stage_out_time(activation, vm)
        )


class OnlineScheduler(abc.ABC):
    """Decision-point scheduler driven by the simulator.

    Subclasses implement :meth:`select`; the remaining hooks default to
    no-ops.  ``select`` must return either a valid ``(activation_id,
    vm_id)`` with the activation READY and the VM idle, or ``None`` — the
    paper's *do nothing* action.
    """

    @abc.abstractmethod
    def select(self, ctx: SimulationContext) -> Optional[Decision]:
        """Choose one schedule action, or None to wait."""

    def on_simulation_start(self, ctx: SimulationContext) -> None:
        """Called once before the first dispatch."""

    def on_dispatched(self, ctx: SimulationContext, pending) -> None:
        """Called right after each dispatch with timing information."""

    def on_activation_finished(self, ctx: SimulationContext, record) -> None:
        """Called at each activation completion."""

    def on_simulation_end(self, ctx: SimulationContext, result) -> None:
        """Called once with the final result."""


@dataclass
class SchedulingPlan:
    """A full activation→VM assignment plus a dispatch priority order.

    Attributes
    ----------
    assignment:
        Maps every activation id to a VM id.
    priority:
        Activation ids in dispatch-preference order (e.g. HEFT's
        descending upward rank).  Must be a permutation of the
        assignment's keys.
    name:
        Label of the producing algorithm (for tables/provenance).
    """

    assignment: Dict[int, int]
    priority: List[int] = field(default_factory=list)
    name: str = "plan"

    def __post_init__(self) -> None:
        self.assignment = {int(k): int(v) for k, v in self.assignment.items()}
        if not self.priority:
            self.priority = sorted(self.assignment)
        if sorted(self.priority) != sorted(self.assignment):
            raise ValidationError(
                "plan priority must be a permutation of assigned activations"
            )

    def vm_of(self, activation_id: int) -> int:
        """VM assigned to an activation."""
        try:
            return self.assignment[activation_id]
        except KeyError:
            raise ValidationError(
                f"plan has no assignment for activation {activation_id}"
            ) from None

    def validate_against(self, workflow: Workflow, vms: Sequence[Vm]) -> None:
        """Check the plan covers the workflow and targets existing VMs."""
        wf_ids = set(workflow.activation_ids)
        plan_ids = set(self.assignment)
        if wf_ids != plan_ids:
            missing = sorted(wf_ids - plan_ids)
            extra = sorted(plan_ids - wf_ids)
            raise ValidationError(
                f"plan/workflow mismatch: missing={missing[:5]} extra={extra[:5]}"
            )
        vm_ids = {vm.id for vm in vms}
        bad = sorted(set(self.assignment.values()) - vm_ids)
        if bad:
            raise ValidationError(f"plan targets unknown VMs {bad}")

    def activations_on(self, vm_id: int) -> List[int]:
        """Activation ids assigned to ``vm_id``, in priority order."""
        rank = {ac: i for i, ac in enumerate(self.priority)}
        return sorted(
            (ac for ac, vm in self.assignment.items() if vm == vm_id),
            key=lambda ac: rank[ac],
        )

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(
            {
                "name": self.name,
                "assignment": {str(k): v for k, v in self.assignment.items()},
                "priority": self.priority,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "SchedulingPlan":
        """Parse a plan serialized by :meth:`to_json`.

        Malformed JSON, a non-object, a missing ``assignment`` or one
        :func:`~repro.util.decode.decode_id_map` rejects, a
        ``priority`` that is not a list of ids or not a permutation of
        the assigned activations, and a ``name`` that is not a string
        raise :class:`ValidationError` naming the field.
        """
        try:
            data = json.loads(text, object_pairs_hook=unique_keys)
        except ValueError as exc:  # JSONDecodeError, or an oversized int
            raise ValidationError(f"malformed plan JSON: {exc}") from exc
        try:
            if not isinstance(data, dict):
                raise ValidationError(f"expected an object, got {data!r:.60}")
            priority = data.get("priority", [])
            if not isinstance(priority, list):
                raise ValidationError(
                    f"priority must be a list, got {priority!r:.60}"
                )
            name = data.get("name", "plan")
            if not isinstance(name, str):
                raise ValidationError(f"name must be a string, got {name!r:.60}")
            return cls(
                assignment=decode_id_map(
                    "assignment", json_field(data, "assignment")
                ),
                priority=[check_index("priority", x) for x in priority],
                name=name,
            )
        except ValidationError as exc:
            raise ValidationError(f"malformed plan JSON: {exc}") from exc


class StaticScheduler(abc.ABC):
    """An algorithm that computes a full plan before execution."""

    #: label used in tables
    name: str = "static"

    def __init__(self, estimates: Optional[EstimateModel] = None) -> None:
        self.estimates = estimates if estimates is not None else EstimateModel()

    @abc.abstractmethod
    def plan(self, workflow: Workflow, vms: Sequence[Vm]) -> SchedulingPlan:
        """Compute the plan for ``workflow`` on the fleet ``vms``."""

    def as_online(self, workflow: Workflow, vms: Sequence[Vm]) -> "PlanFollowingScheduler":
        """Plan now and wrap the result for simulator execution."""
        return PlanFollowingScheduler(self.plan(workflow, vms))


class PlanFollowingScheduler(OnlineScheduler):
    """Replays a :class:`SchedulingPlan` at simulation decision points.

    At each point it dispatches the highest-priority READY activation
    whose planned VM is idle; if every ready activation's planned VM is
    busy it does nothing (the plan's placement is honoured exactly — work
    is never stolen by an idle-but-unplanned VM).
    """

    def __init__(self, plan: SchedulingPlan) -> None:
        self.plan = plan
        self._rank = {ac: i for i, ac in enumerate(plan.priority)}
        # derived views cached per (ready_version, idle_version) — the
        # context's monotonic generation counters — so back-to-back
        # decisions at the same instant skip the re-sort / set rebuild
        self._ctx: Optional[SimulationContext] = None
        self._ready_key: Optional[int] = None
        self._ready_sorted: List[Any] = []
        self._idle_key: Optional[int] = None
        self._idle_ids: set = set()

    def on_simulation_start(self, ctx: SimulationContext) -> None:
        self.plan.validate_against(ctx.workflow, ctx.vms)

    def select(self, ctx: SimulationContext) -> Optional[Decision]:
        if ctx is not self._ctx:
            # new simulation context: its version counters are unrelated
            # to the previous one's, so drop both caches
            self._ctx = ctx
            self._ready_key = None
            self._idle_key = None
        ready_key = getattr(ctx, "ready_version", None)
        if ready_key is None or ready_key != self._ready_key:
            self._ready_sorted = sorted(
                ctx.ready_activations,
                key=lambda ac: self._rank.get(ac.id, 1 << 30),
            )
            self._ready_key = ready_key
        idle_key = getattr(ctx, "idle_version", None)
        if idle_key is None or idle_key != self._idle_key:
            self._idle_ids = {vm.id for vm in ctx.idle_vms}
            self._idle_key = idle_key
        idle_ids = self._idle_ids
        for ac in self._ready_sorted:
            vm_id = self.plan.vm_of(ac.id)
            if vm_id in idle_ids:
                return (ac.id, vm_id)
        return None
