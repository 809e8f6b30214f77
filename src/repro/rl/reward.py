"""The ReASSIgN reward function (paper §III-B, after Costa et al.).

Per executed activation *i* on VM *j* the paper defines

- ``Pi_j  = tt_i * mu + (1 - mu) * tf_i``       (single-execution index)
- ``P̄i_j = t̄e * mu + (1 - mu) * t̄f``  over vm_j's history   (Eq. 4)
- ``P̄w   = t̄e * mu + (1 - mu) * t̄f``  over all activations  (Eq. 5)
- crisp partial reward ``r_i = -1 if P̄i_j > P̄w + stdv else +1``  (Eq. 6)
- smoothed reward ``r^t = r^{t-1} + rho * (r_i - r^{t-1})``

Smaller performance indices are better (they are time-valued), so a VM
whose average index exceeds the global average by more than one standard
deviation is punished.

The paper does not pin down *which* standard deviation ``stdv`` is; the
reading that makes Eq. 6 dimensionally and statistically coherent — and
the one we implement — is the dispersion of the per-VM average indices
``{P̄i_j}`` across VMs (how much VMs deviate from the fleet mean).  With
fewer than two VMs observed the stdv is 0 and Eq. 6 degenerates to a
straight mean comparison.

All aggregates use O(1) online accumulators (Welford) so a reward step is
constant-time regardless of history length.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

from repro.util.validate import ValidationError, check_probability

__all__ = ["VmPerformanceTracker", "PerformanceReward"]


class VmPerformanceTracker:
    """Execution/queue time history of one VM, as running means.

    The reward only ever reads the observation count and the two means,
    so that is all a tracker stores (Welford's mean recurrence,
    ``mean += (x - mean) / n``).  The fused learning lane
    (:mod:`repro.core.lane`) keeps the same three numbers per VM and
    copies them in and out of these trackers.
    """

    __slots__ = ("mu", "count", "exec_mean", "queue_mean")

    def __init__(self, mu: float) -> None:
        self.mu = check_probability("mu", mu)
        self.count = 0
        self.exec_mean = 0.0
        self.queue_mean = 0.0

    def observe(self, te: float, tf: float) -> None:
        """Record one activation's execution (te) and queue (tf) times."""
        te = float(te)
        tf = float(tf)
        if not (te >= 0 and tf >= 0):  # also rejects NaN
            raise ValidationError(f"times must be >= 0, got te={te}, tf={tf}")
        self.count += 1
        self.exec_mean += (te - self.exec_mean) / self.count
        self.queue_mean += (tf - self.queue_mean) / self.count

    @property
    def mean_index(self) -> float:
        """``P̄i_j`` (Eq. 4) — 0.0 when the VM has no history."""
        return self.exec_mean * self.mu + (1.0 - self.mu) * self.queue_mean


class PerformanceReward:
    """Stateful reward model shared across an entire learning run.

    The paper carries "all relevant learning and analysis information"
    across episodes, so by default the performance history persists across
    :meth:`start_episode` calls and only the smoothed reward ``r^t``
    resets to 0 (Algorithm 2 line ``r^t <- 0``).

    Parameters
    ----------
    mu:
        Balance between total/execution time and queue time (paper uses
        0.5 in all experiments).
    rho:
        Smoothing weight of the crisp partial reward against the previous
        reward.
    """

    def __init__(self, mu: float = 0.5, rho: float = 0.5) -> None:
        self.mu = check_probability("mu", mu)
        self.rho = check_probability("rho", rho)
        self._vms: Dict[int, VmPerformanceTracker] = {}
        # the fleet-wide means (Eq. 5) accumulate exactly like one VM's
        self._global = VmPerformanceTracker(self.mu)
        self._reward = 0.0

    # -- episode control ----------------------------------------------------

    def start_episode(self, keep_history: bool = True) -> None:
        """Begin a new episode: r^t resets; history persists by default."""
        self._reward = 0.0
        if not keep_history:
            self._vms.clear()
            self._global = VmPerformanceTracker(self.mu)

    # -- observations -------------------------------------------------------

    def observe(self, vm_id: int, te: float, tf: float) -> None:
        """Record one execution without computing a reward (replay/bootstrap)."""
        tracker = self._vms.get(vm_id)
        if tracker is None:
            tracker = VmPerformanceTracker(self.mu)
        tracker.observe(te, tf)  # validates before anything is stored
        self._vms.setdefault(vm_id, tracker)
        self._global.observe(te, tf)

    # -- the paper's quantities ----------------------------------------------

    def single_index(self, te: float, tf: float) -> float:
        """``Pi = tt * mu + (1 - mu) * tf`` for one execution."""
        return (te + tf) * self.mu + (1.0 - self.mu) * tf

    def vm_index(self, vm_id: int) -> float:
        """``P̄i_j`` of one VM (Eq. 4); 0.0 for an unobserved VM."""
        tracker = self._vms.get(vm_id)
        return tracker.mean_index if tracker is not None else 0.0

    def global_index(self) -> float:
        """``P̄w`` over all activations (Eq. 5)."""
        return self._global.mean_index

    def index_std(self) -> float:
        """``stdv`` — dispersion of per-VM average indices across VMs.

        Inlined Welford recurrence (the exact float-op order of
        :meth:`repro.util.stats.RunningStats.push`, so the result is
        bit-identical to pushing through a fresh accumulator): this runs
        once per reward step, i.e. once per dispatched activation, and
        is the hottest pure-Python loop in the learning path.  Every
        stored tracker has at least one observation.
        """
        n = 0
        mean = 0.0
        m2 = 0.0
        for tracker in self._vms.values():
            x = tracker.mean_index
            n += 1
            delta = x - mean
            mean += delta / n
            m2 += delta * (x - mean)
        return math.sqrt(m2 / n) if n >= 2 else 0.0

    def partial_reward(self, vm_id: int) -> float:
        """Crisp ``r_i`` (Eq. 6) for the VM's current history."""
        if self.vm_index(vm_id) > self.global_index() + self.index_std():
            return -1.0
        return 1.0

    # -- the reward step -----------------------------------------------------

    @property
    def reward(self) -> float:
        """Current smoothed reward ``r^t``."""
        return self._reward

    def step(self, vm_id: int, te: float, tf: float) -> float:
        """Observe one execution and return the updated smoothed reward.

        Implements the full §III-B sequence: update vm_j's and the global
        history with (te, tf), compute the crisp ``r_i`` and fold it into
        ``r^t = r^{t-1} + rho * (r_i - r^{t-1})``.
        """
        self.observe(vm_id, te, tf)
        r_i = self.partial_reward(vm_id)
        self._reward = self._reward + self.rho * (r_i - self._reward)
        return self._reward

    # -- introspection -------------------------------------------------------

    def vm_ids(self) -> List[int]:
        """VMs with at least one observation."""
        return sorted(self._vms)

    def snapshot(self) -> List[Tuple[int, int, float]]:
        """(vm_id, n_observations, P̄i_j) per VM — for provenance dumps."""
        return [
            (vm_id, self._vms[vm_id].count, self._vms[vm_id].mean_index)
            for vm_id in self.vm_ids()
        ]

    def bootstrap(self, history: Iterable[Tuple[int, float, float]]) -> None:
        """Seed the model from prior provenance: (vm_id, te, tf) triples."""
        for vm_id, te, tf in history:
            self.observe(int(vm_id), float(te), float(tf))
