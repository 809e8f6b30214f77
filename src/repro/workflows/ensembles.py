"""Workflow ensembles — several workflows sharing one fleet.

Scientific campaigns rarely run a single DAG: an *ensemble* submits many
workflow instances (parameter studies, multiple sky tiles) to the same
resource pool.  :func:`merge_workflows` fuses workflows into one DAG
with disjoint components and non-colliding ids/file names, so every
scheduler and the whole learning stack apply unchanged, and
:func:`montage_ensemble` builds the common homogeneous case.

Ensembles also stress exactly what the paper's reward measures: with
several workflows competing, queue times (``tf``) stop being near-zero
and µ's execution-vs-queue balance starts to matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.dag.activation import Activation, File
from repro.dag.graph import Workflow
from repro.runner import ParallelRunner, Task
from repro.util.validate import ValidationError
from repro.workflows.montage import montage

__all__ = [
    "merge_workflows",
    "montage_ensemble",
    "split_assignment",
    "EnsembleMemberResult",
    "run_ensemble_campaign",
]


def merge_workflows(
    workflows: Sequence[Workflow], name: str = "ensemble"
) -> Workflow:
    """Fuse workflows into one DAG of disjoint components.

    Activation ids are renumbered into consecutive blocks (first
    workflow keeps its ids); file names gain a ``wfK/`` prefix so the
    shared-storage namespace cannot collide across instances.

    Returns the merged workflow; component k's activations occupy the
    id range ``[offset_k, offset_k + len(workflows[k]))`` in submission
    order.
    """
    if not workflows:
        raise ValidationError("need at least one workflow")
    merged = Workflow(name)
    offset = 0
    for index, wf in enumerate(workflows):
        wf.validate()
        mapping: Dict[int, int] = {}
        for ac in wf.activations:
            new_id = offset + len(mapping)
            mapping[ac.id] = new_id
            merged.add_activation(
                Activation(
                    id=new_id,
                    activity=ac.activity,
                    runtime=ac.runtime,
                    inputs=tuple(
                        File(f"wf{index}/{f.name}", f.size_bytes)
                        for f in ac.inputs
                    ),
                    outputs=tuple(
                        File(f"wf{index}/{f.name}", f.size_bytes)
                        for f in ac.outputs
                    ),
                )
            )
        for parent, child in wf.edges:
            merged.add_dependency(mapping[parent], mapping[child])
        offset += len(wf)
    merged.validate()
    return merged


def montage_ensemble(
    n_instances: int, n_activations: int = 25, seed: int = 0
) -> Workflow:
    """An ensemble of Montage instances with independent runtimes."""
    if n_instances < 1:
        raise ValidationError("n_instances must be >= 1")
    instances = [
        montage(n_activations, seed=seed + k) for k in range(n_instances)
    ]
    return merge_workflows(
        instances, name=f"montage-ensemble-{n_instances}x{n_activations}"
    )


@dataclass(frozen=True)
class EnsembleMemberResult:
    """One ensemble member's learning outcome."""

    member: int  #: index within the campaign
    workflow_name: str
    seed: int  #: the derived per-member seed the run used
    simulated_makespan: float
    plan_json: str  #: the learned plan, serialized


def _learn_member(payload, seed: int) -> EnsembleMemberResult:
    """Learn one ensemble member's plan (module-level for the runner)."""
    from repro.core.reassign import ReassignLearner, ReassignParams
    from repro.experiments.environments import fleet_for

    member, n_activations, vcpus, episodes = payload
    wf = montage(n_activations, seed=seed)
    params = ReassignParams(alpha=0.5, gamma=1.0, epsilon=0.1, episodes=episodes)
    result = ReassignLearner(wf, fleet_for(vcpus), params, seed=seed).learn()
    return EnsembleMemberResult(
        member=member,
        workflow_name=wf.name,
        seed=seed,
        simulated_makespan=result.simulated_makespan,
        plan_json=result.plan.to_json(),
    )


def run_ensemble_campaign(
    n_instances: int,
    *,
    n_activations: int = 25,
    vcpus: int = 16,
    episodes: int = 50,
    seed: int = 0,
    workers: Optional[int] = 1,
    progress=None,
) -> List[EnsembleMemberResult]:
    """Learn an independent ReASSIgN plan for each ensemble member.

    A parameter-study campaign: ``n_instances`` Montage instances with
    independent runtimes each get their own learning run, one runner
    task each, on the shared fleet configuration.  Per-member seeds are
    *derived* — stable ``(root seed, campaign id, member index)`` hashes
    via the runner — so the campaign is reproducible and bit-identical
    for any worker count, and members never share a random stream.
    Each member builds its own kernel: the members' workflows differ.
    """
    if n_instances < 1:
        raise ValidationError("n_instances must be >= 1")
    runner = ParallelRunner(
        workers=workers,
        run_id=f"ensemble:{n_instances}x{n_activations}:{vcpus}",
        seed=seed,
        progress=progress,
    )
    tasks = [
        Task(
            key=("member", k),
            fn=_learn_member,
            payload=(k, n_activations, vcpus, episodes),
        )
        for k in range(n_instances)
    ]
    return [r.value for r in runner.run(tasks)]


def split_assignment(
    assignment: Dict[int, int], sizes: Sequence[int]
) -> List[Dict[int, int]]:
    """Split a merged-DAG assignment back into per-instance assignments.

    ``sizes`` are the member workflow sizes in merge order; each returned
    dict is keyed by the member's *original* activation ids (0-based
    block offsets undone).
    """
    total = sum(sizes)
    if sorted(assignment) != list(range(total)):
        raise ValidationError(
            "assignment does not cover the merged id range exactly"
        )
    out: List[Dict[int, int]] = []
    offset = 0
    for size in sizes:
        out.append(
            {i: assignment[offset + i] for i in range(size)}
        )
        offset += size
    return out
