"""Batched learning: many identically-shaped runs over one shared kernel.

Sweeps and ensembles run many *identically-shaped* learning runs: same
workflow, same fleet, same environment — only the hyper-parameters and
seeds differ.  :func:`learn_batch` runs them as a loop of
:meth:`ReassignLearner.learn() <repro.core.reassign.ReassignLearner.learn>`
calls that share **one** :class:`~repro.sim.kernel.EpisodeKernel` per
kernel-fingerprint group: the frozen DAG indexes and nominal estimate
caches are built once per group and amortized across its runs instead
of once per run.  The fused lane keeps its Q-values in a per-run
mirror and builds no action-pair tuples, so it does not share the
kernel's pair interner across a group's runs; only the object path
uses that interner.

Each run takes whatever path ``learn()`` takes for its spec — the fused
lane stepper (:mod:`repro.core.lane`) for the paper's rule on a lean
kernel, the scheduler-object loop for SARSA / Double-Q / state buckets
and for every non-lean kernel.  The runs go one after
the other: lockstep interleaving measured no faster than this loop on
the paper grid.

**Bit-identity contract (non-negotiable).**  For every spec, the
returned :class:`~repro.core.episode.LearningResult` — every episode
record, every Q-table float, the plan, the serialized JSON — is byte
for byte what the object-path reference (``EpisodeKernel.run_episode``
driving a ``ReassignScheduler`` for each ``episode:{i}`` seed, then
the final-plan rule) produces for the same spec, for any batch size.
Sharing the kernel is safe because
episodes reset its mutable state at entry and scrub it on exceptions,
and its cross-run shared structures — the nominal estimate memos and,
for runs on the object path, the action-pair interner — are
content-addressed caches whose hits return identical objects/values
regardless of who warmed them.
Pinned by ``tests/test_batched_engine.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.episode import LearningResult
from repro.core.lane import fast_lane_eligible
from repro.core.reassign import (
    ReassignLearner,
    ReassignParams,
    SimulatedLearningClock,
)
from repro.dag.graph import Workflow
from repro.sim.failures import FailureModel
from repro.sim.fluctuation import FluctuationModel
from repro.sim.kernel import EpisodeKernel
from repro.sim.migration import MigrationModel
from repro.sim.network import NetworkModel
from repro.sim.vm import Vm
from repro.util.validate import ValidationError

__all__ = ["BatchSpec", "fast_lane_eligible", "learn_batch"]


@dataclass(frozen=True)
class BatchSpec:
    """One run of a batched learning call.

    Mirrors the ``ReassignLearner`` constructor: the same workflow /
    fleet / params / seed / environment models produce a bit-identical
    :class:`~repro.core.episode.LearningResult`.
    """

    workflow: Workflow
    vms: Sequence[Vm]
    params: Optional[ReassignParams] = None
    seed: int = 0
    network: Optional[NetworkModel] = None
    fluctuation: Optional[FluctuationModel] = None
    failures: Optional[FailureModel] = None
    migrations: Optional[MigrationModel] = None
    max_attempts: int = 1
    single_slot_learning: bool = False


def learn_batch(
    specs: Sequence[BatchSpec], *, timing: str = "wall"
) -> List[LearningResult]:
    """Learn every spec in turn, sharing one kernel per fingerprint group.

    The first run of each group builds the kernel (or pulls it from the
    parallel runner's per-worker cache via ``ReassignLearner.kernel``);
    the rest adopt it.  ``timing="wall"`` reports wall-clock learning
    time; ``timing="simulated"`` runs each learner on a
    :class:`~repro.core.reassign.SimulatedLearningClock`.

    Returns one :class:`~repro.core.episode.LearningResult` per spec,
    in spec order, each byte-identical to ``ReassignLearner(spec...)
    .learn()``.
    """
    if timing not in ("wall", "simulated"):
        raise ValidationError(
            f"timing must be 'wall' or 'simulated', got {timing!r}"
        )
    kernels: Dict[str, EpisodeKernel] = {}
    results: List[LearningResult] = []
    for spec in specs:
        learner = ReassignLearner(
            spec.workflow,
            spec.vms,
            spec.params,
            network=spec.network,
            fluctuation=spec.fluctuation,
            failures=spec.failures,
            migrations=spec.migrations,
            seed=spec.seed,
            max_attempts=spec.max_attempts,
            single_slot_learning=spec.single_slot_learning,
            clock=SimulatedLearningClock() if timing == "simulated" else None,
        )
        fp = learner.kernel_fingerprint()
        if fp is not None:
            shared = kernels.get(fp)
            if shared is None:
                kernels[fp] = learner.kernel
            else:
                learner.adopt_kernel(shared, fp)
        results.append(learner.learn())
    return results
