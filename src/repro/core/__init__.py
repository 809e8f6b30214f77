"""ReASSIgN — RL-based Activation Scheduling of ScIeNtific workflows.

The paper's primary contribution (§III): an episodic Q-learning scheduler
that learns an activation→VM plan inside the simulator and emits it for
execution by the SWfMS.  Public entry points:

- :class:`~repro.core.reassign.ReassignScheduler` — the online decision
  maker (one episode);
- :class:`~repro.core.reassign.ReassignLearner` — Algorithm 2: runs
  ``maxIter`` episodes and extracts the learned plan;
- :func:`~repro.core.sweep.sweep_parameters` — the (α, γ, ε) grid
  evaluation behind the paper's Tables II and III, one runner task per
  cell;
- :func:`~repro.core.batch.learn_batch` — a plain loop of learning
  runs, one fresh learner each.

Learning runs share a kernel only through the parallel runner's
per-process cache (:func:`repro.runner.parallel.shared_kernel`).
"""

from typing import TYPE_CHECKING

from repro import lazy_namespace

__getattr__, __dir__ = lazy_namespace(__name__, {
    "reassign": ("ReassignLearner", "ReassignParams", "ReassignScheduler"),
    "batch": ("BatchSpec", "learn_batch"),
    "episode": ("EpisodeRecord", "LearningResult"),
    "sweep": ("SweepRecord", "sweep_parameters"),
})

if TYPE_CHECKING:
    from repro.core.batch import BatchSpec, learn_batch
    from repro.core.episode import EpisodeRecord, LearningResult
    from repro.core.reassign import ReassignLearner, ReassignParams, ReassignScheduler
    from repro.core.sweep import SweepRecord, sweep_parameters

__all__ = [
    "ReassignLearner",
    "ReassignParams",
    "ReassignScheduler",
    "BatchSpec",
    "learn_batch",
    "EpisodeRecord",
    "LearningResult",
    "SweepRecord",
    "sweep_parameters",
]
