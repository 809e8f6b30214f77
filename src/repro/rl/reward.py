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

The means are O(1) online accumulators (Welford's mean recurrence), so
an observation costs the same regardless of history length; ``stdv`` is
one pass over the per-VM indices, taken only when Eq. 6 can trip
(:func:`crisp_reward`).  Both learning engines run this one reward: the
scheduler-object path through :class:`PerformanceReward`'s methods, and
the fused lane (:mod:`repro.core.lane`) on the same object's lists,
which it updates in place.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.util.validate import ValidationError, check_probability

__all__ = ["PerformanceReward", "crisp_reward"]


def _spread(indices: Sequence[float]) -> float:
    """Population std of ``indices`` — ``stdv`` of Eq. 6.

    Inlined Welford recurrence (the exact float-op order of
    :meth:`repro.util.stats.RunningStats.push`, so the result is
    bit-identical to pushing through a fresh accumulator); the order of
    ``indices`` is part of the result's rounding.
    """
    n = 0
    mean = 0.0
    m2 = 0.0
    for x in indices:
        n += 1
        delta = x - mean
        mean += delta / n
        m2 += delta * (x - mean)
    return math.sqrt(m2 / n) if n >= 2 else 0.0


def crisp_reward(
    vm_index: float, global_index: float, indices: Sequence[float]
) -> float:
    """Eq. 6: ``-1.0`` if ``P̄i_j > P̄w + stdv``, else ``+1.0``.

    ``indices`` are the per-VM ``P̄i_j`` in first-observation order.
    ``stdv >= 0``, so a VM at or below the global index can never trip
    the test, and the std pass over ``indices`` only runs when it can
    matter (the result is the same either way).
    """
    if vm_index > global_index and vm_index > global_index + _spread(indices):
        return -1.0
    return 1.0


class PerformanceReward:
    """Stateful reward model shared across an entire learning run.

    The paper carries "all relevant learning and analysis information"
    across episodes, so by default the performance history persists across
    :meth:`start_episode` calls and only the smoothed reward ``r^t``
    resets to 0 (Algorithm 2 line ``r^t <- 0``).

    The history is flat: ``_pos`` maps each observed VM id to its
    position, in first-observation order (``stdv``'s rounding depends
    on that order), and the per-VM lists ``_count``, ``_exec_mean``,
    ``_queue_mean`` and ``_index`` (``P̄i_j``) are aligned with it.  The
    fleet-wide history (Eq. 5) is ``_g_count``, ``_g_exec_mean`` and
    ``_g_queue_mean``.  The fused lane updates the lists in place and
    publishes the scalars when its episode ends.

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
        self._pos: Dict[int, int] = {}
        self._count: List[int] = []
        self._exec_mean: List[float] = []
        self._queue_mean: List[float] = []
        self._index: List[float] = []
        self._g_count = 0
        self._g_exec_mean = 0.0
        self._g_queue_mean = 0.0
        self._reward = 0.0

    # -- episode control ----------------------------------------------------

    def start_episode(self, keep_history: bool = True) -> None:
        """Begin a new episode: r^t resets; history persists by default."""
        self._reward = 0.0
        if not keep_history:
            self._pos.clear()
            self._count.clear()
            self._exec_mean.clear()
            self._queue_mean.clear()
            self._index.clear()
            self._g_count = 0
            self._g_exec_mean = 0.0
            self._g_queue_mean = 0.0

    # -- observations -------------------------------------------------------

    def observe(self, vm_id: int, te: float, tf: float) -> None:
        """Record one execution without computing a reward (replay/bootstrap)."""
        te = float(te)
        tf = float(tf)
        # an infinite time would turn every mean and index it reaches into
        # NaN, after which Eq. 6 rewards every VM; NaN fails ``>= 0``
        if not (te >= 0 and tf >= 0 and math.isfinite(te) and math.isfinite(tf)):
            raise ValidationError(
                f"times must be finite and >= 0, got te={te}, tf={tf}"
            )
        mu = self.mu
        pos = self._pos.get(vm_id)
        if pos is None:
            pos = len(self._pos)
            self._count.append(0)
            self._exec_mean.append(0.0)
            self._queue_mean.append(0.0)
            self._index.append(0.0)
            self._pos[vm_id] = pos
        n = self._count[pos] + 1
        self._count[pos] = n
        mean = self._exec_mean[pos]
        mean += (te - mean) / n
        self._exec_mean[pos] = mean
        qmean = self._queue_mean[pos]
        qmean += (tf - qmean) / n
        self._queue_mean[pos] = qmean
        self._index[pos] = mean * mu + (1.0 - mu) * qmean
        self._g_count += 1
        self._g_exec_mean += (te - self._g_exec_mean) / self._g_count
        self._g_queue_mean += (tf - self._g_queue_mean) / self._g_count

    # -- the paper's quantities ----------------------------------------------

    def single_index(self, te: float, tf: float) -> float:
        """``Pi = tt * mu + (1 - mu) * tf`` for one execution."""
        return (te + tf) * self.mu + (1.0 - self.mu) * tf

    def vm_index(self, vm_id: int) -> float:
        """``P̄i_j`` of one VM (Eq. 4); 0.0 for an unobserved VM."""
        pos = self._pos.get(vm_id)
        return self._index[pos] if pos is not None else 0.0

    def global_index(self) -> float:
        """``P̄w`` over all activations (Eq. 5)."""
        mu = self.mu
        return self._g_exec_mean * mu + (1.0 - mu) * self._g_queue_mean

    def index_std(self) -> float:
        """``stdv`` — dispersion of per-VM average indices across VMs."""
        return _spread(self._index)

    def partial_reward(self, vm_id: int) -> float:
        """Crisp ``r_i`` (Eq. 6) for the VM's current history."""
        return crisp_reward(
            self.vm_index(vm_id), self.global_index(), self._index
        )

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
        return sorted(self._pos)

    def snapshot(self) -> List[Tuple[int, int, float]]:
        """(vm_id, n_observations, P̄i_j) per VM — for provenance dumps."""
        pos = self._pos
        return [
            (vm_id, self._count[pos[vm_id]], self._index[pos[vm_id]])
            for vm_id in self.vm_ids()
        ]

    def bootstrap(self, history: Iterable[Tuple[int, float, float]]) -> None:
        """Seed the model from prior provenance: (vm_id, te, tf) triples."""
        for vm_id, te, tf in history:
            self.observe(int(vm_id), float(te), float(tf))
