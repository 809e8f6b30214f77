"""Shared nominal-cost caches for a frozen (workflow, fleet) pair.

The same three formulas — nominal compute ``runtime / speed``, per-file
transfer ``latency + size / bandwidth``, and their sums over an
activation's inputs/outputs — were historically evaluated from scratch in
two places: :class:`~repro.sim.network.SharedStorageNetwork` at every
dispatch, and :class:`~repro.schedulers.base.EstimateModel` at every
planning step.  :class:`NominalEstimateCache` memoizes them once per
``(activation, vm)`` pair so an :class:`~repro.sim.kernel.EpisodeKernel`
and the planners it feeds share one table.

Bit-identity contract: cached values are produced by *the same float
expressions in the same order* as the uncached paths.  A per-file term is
precomputed as ``latency + size_bytes / bandwidth`` (one float), and sums
accumulate those terms in input/output declaration order — exactly the
accumulation the original ``total += latency + size / bw`` loop performed
— so a cached result is the identical IEEE-754 value, not merely a close
one.  The golden-trace suite (``tests/test_kernel_equivalence.py``)
enforces this.

Storage is dense: one row per activation id, one slot per fleet position,
each slot the pair's :data:`Costs` (stage-in terms, compute, stage-out),
evaluated together on the pair's first lookup.  Activation ids are valid
keys only because the cache is bound to one frozen workflow and one fleet
at construction.  Lookups for foreign VMs (a VM that is not the bound
instance with that id) fall back to direct evaluation, which yields the
same value.  :meth:`NominalEstimateCache.rows` fills whole rows for a
consumer that indexes them directly (the fused lane stepper).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, cast

from repro.dag.activation import Activation
from repro.sim.vm import Vm
from repro.util.validate import check_non_negative

__all__ = ["NominalEstimateCache"]

#: Per-file staging terms: (file name, transfer seconds), in input order.
StageInTerms = Tuple[Tuple[str, float], ...]

#: One (activation, vm) pair's nominal costs: stage-in terms, compute
#: seconds and stage-out seconds.
Costs = Tuple[StageInTerms, float, float]


class NominalEstimateCache:
    """Lazily-memoized nominal estimates for one workflow on one fleet.

    Parameters
    ----------
    latency / upload_outputs:
        Staging parameters, mirroring
        :class:`~repro.sim.network.SharedStorageNetwork`.
    """

    def __init__(
        self,
        vms: Sequence[Vm],
        *,
        latency: float = 0.05,
        upload_outputs: bool = True,
    ) -> None:
        self.latency = check_non_negative("latency", latency)
        self.upload_outputs = bool(upload_outputs)
        self._vms = tuple(vms)
        self._pos: Dict[int, int] = {vm.id: j for j, vm in enumerate(vms)}
        #: activation id -> the pair's costs per fleet position (None
        #: until first looked up)
        self._rows: Dict[int, List[Optional[Costs]]] = {}

    # -- storage ---------------------------------------------------------

    def costs(self, activation: Activation, vm: Vm) -> Costs:
        """The pair's (stage-in terms, compute, stage-out), memoized."""
        j = self._pos.get(vm.id)
        if j is None or self._vms[j] is not vm:
            return self._evaluate(activation, vm)
        row = self._rows.get(activation.id)
        if row is None:
            fresh: List[Optional[Costs]] = [None] * len(self._vms)
            row = self._rows[activation.id] = fresh
        costs = row[j]
        if costs is None:
            costs = self._evaluate(activation, vm)
            row[j] = costs
        return costs

    def rows(
        self, activations: Sequence[Activation]
    ) -> Mapping[int, Sequence[Costs]]:
        """Full rows for ``activations``: ``rows[activation id][position]``.

        Fills every missing slot once; later calls only confirm the rows
        are full.
        """
        for ac in activations:
            row = self._rows.get(ac.id)
            if row is None or None in row:
                for vm in self._vms:
                    self.costs(ac, vm)
        return cast(Mapping[int, Sequence[Costs]], self._rows)

    def _evaluate(self, activation: Activation, vm: Vm) -> Costs:
        bw = vm.type.bandwidth_bytes_per_s
        terms = tuple(
            (f.name, self.latency + f.size_bytes / bw)
            for f in activation.inputs
        )
        stage_out = 0.0
        if self.upload_outputs:
            for f in activation.outputs:
                stage_out += self.latency + f.size_bytes / bw
        return terms, vm.execution_time(activation.runtime), stage_out

    # -- estimates -------------------------------------------------------

    def compute_time(self, activation: Activation, vm: Vm) -> float:
        """Nominal compute seconds (``runtime / speed``), memoized."""
        return self.costs(activation, vm)[1]

    def stage_in_terms(self, activation: Activation, vm: Vm) -> StageInTerms:
        """Per-input-file transfer terms on ``vm``, in declaration order."""
        return self.costs(activation, vm)[0]

    def stage_in_time(
        self,
        activation: Activation,
        vm: Vm,
        file_locations: Mapping[str, int],
    ) -> float:
        """Staging seconds given current placement.

        Accumulates the precomputed per-file terms in input order over
        exactly the files ``SharedStorageNetwork`` would transfer (those
        not already located on ``vm``), so the sum is bit-identical to
        the uncached network path.
        """
        total = 0.0
        for name, seconds in self.stage_in_terms(activation, vm):
            if file_locations.get(name) != vm.id:
                total += seconds
        return total

    def stage_out_time(self, activation: Activation, vm: Vm) -> float:
        """Publishing seconds; a pure function of (activation, vm)."""
        return self.costs(activation, vm)[2]
