"""Cost-aware extension of the ReASSIgN reward (§III-B + financial cost).

The paper's introduction lists *financial cost* next to makespan as a
criterion SWfMS schedulers minimize, but its reward uses time only.
:class:`CostAwarePerformanceReward` folds money into the §III-B
performance indices by inflating a VM's observed execution time by a
price penalty::

    te_effective = te * (1 + cost_weight * price / price_ref)

where ``price_ref`` is the cheapest VM's hourly price.  With
``cost_weight = 0`` this is exactly the paper's reward; larger weights
make expensive VMs look slower to the agent, pushing the learned plan
toward cheap placements.  The A6 ablation sweeps the weight and reads
out the makespan/cost trade-off curve.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.rl.reward import PerformanceReward
from repro.sim.vm import Vm
from repro.util.validate import ValidationError, check_non_negative

__all__ = ["CostAwarePerformanceReward"]


class CostAwarePerformanceReward(PerformanceReward):
    """§III-B reward with a price penalty on execution time.

    Parameters
    ----------
    vms:
        The fleet (prices are read from each VM's type).
    cost_weight:
        0 = the paper's pure-time reward; 1 = a VM priced at the
        reference (cheapest) rate doubles nothing, while a 32x-priced
        2xlarge looks 33x slower per observed second.
    mu / rho:
        As in :class:`~repro.rl.reward.PerformanceReward`.
    """

    def __init__(
        self,
        vms: Sequence[Vm],
        cost_weight: float = 0.0,
        mu: float = 0.5,
        rho: float = 0.5,
    ) -> None:
        super().__init__(mu=mu, rho=rho)
        if not vms:
            raise ValidationError("need at least one VM")
        self.cost_weight = check_non_negative("cost_weight", cost_weight)
        prices: Dict[int, float] = {vm.id: vm.type.price_per_hour for vm in vms}
        positive = [p for p in prices.values() if p > 0]
        self._price_ref = min(positive) if positive else 1.0
        self._prices = prices

    def _inflate(self, vm_id: int, te: float) -> float:
        price = self._prices.get(vm_id)
        if price is None:
            # VM outside the configured fleet: treat as reference-priced
            price = self._price_ref
        return te * (1.0 + self.cost_weight * price / self._price_ref)

    def observe(self, vm_id: int, te: float, tf: float) -> None:
        """Record an execution with the price-inflated ``te``.

        :meth:`~repro.rl.reward.PerformanceReward.step` observes through
        here too, so a reward step inflates ``te`` exactly once.
        """
        super().observe(vm_id, self._inflate(vm_id, te), tf)
