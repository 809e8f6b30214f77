"""A loop of learning runs, one :class:`ReassignLearner` per spec.

:func:`learn_batch` learns each :class:`BatchSpec` in turn with a fresh
:class:`~repro.core.reassign.ReassignLearner`, so every result is byte
for byte what ``ReassignLearner(spec...).learn()`` returns.  No
campaign calls it: sweeps, ablations and ensembles submit one runner
task per learning run, and runs share a kernel only through the
runner's per-process cache (:func:`repro.runner.parallel.shared_kernel`).
It stays because ``perfbench``'s traced mode wraps it by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.episode import LearningResult
from repro.core.reassign import (
    ReassignLearner,
    ReassignParams,
    SimulatedLearningClock,
)
from repro.dag.graph import Workflow
from repro.sim.failures import FailureModel
from repro.sim.fluctuation import FluctuationModel
from repro.sim.migration import MigrationModel
from repro.sim.network import NetworkModel
from repro.sim.vm import Vm
from repro.util.validate import ValidationError

__all__ = ["BatchSpec", "learn_batch"]


@dataclass(frozen=True)
class BatchSpec:
    """One learning run: the ``ReassignLearner`` constructor's arguments."""

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
    """Learn every spec in turn; one result per spec, in spec order.

    ``timing="wall"`` reports wall-clock learning time;
    ``timing="simulated"`` runs each learner on a
    :class:`~repro.core.reassign.SimulatedLearningClock`.
    """
    if timing not in ("wall", "simulated"):
        raise ValidationError(
            f"timing must be 'wall' or 'simulated', got {timing!r}"
        )
    return [
        ReassignLearner(
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
        ).learn()
        for spec in specs
    ]
