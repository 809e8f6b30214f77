"""Scheduling algorithms.

Two families share one simulator interface:

- **online schedulers** decide at simulation decision points
  (:class:`~repro.schedulers.base.OnlineScheduler`): FCFS, round-robin,
  random, MCT — and ReASSIgN itself (in :mod:`repro.core`);
- **static planners** compute a full
  :class:`~repro.schedulers.base.SchedulingPlan` up front
  (:class:`~repro.schedulers.base.StaticScheduler`): HEFT (the paper's
  baseline), Min-Min, Max-Min, Sufferage, OLB — executed through
  :class:`~repro.schedulers.base.PlanFollowingScheduler`.
"""

from typing import TYPE_CHECKING

from repro import lazy_namespace

__getattr__, __dir__ = lazy_namespace(__name__, {
    "base": (
        "EstimateModel",
        "OnlineScheduler",
        "PlanFollowingScheduler",
        "SchedulingPlan",
        "StaticScheduler",
    ),
    "budget": ("BudgetConstrainedScheduler",),
    "cpop": ("CpopScheduler",),
    "deadline": ("DeadlineConstrainedScheduler",),
    "heft": ("HeftScheduler",),
    "locality": ("LocalityScheduler",),
    "listsched": (
        "MaxMinScheduler",
        "MctScheduler",
        "MinMinScheduler",
        "OlbScheduler",
        "SufferageScheduler",
    ),
    "online": (
        "FcfsScheduler",
        "GreedyOnlineScheduler",
        "RandomScheduler",
        "RoundRobinScheduler",
    ),
})

if TYPE_CHECKING:
    from repro.schedulers.base import (
        EstimateModel,
        OnlineScheduler,
        PlanFollowingScheduler,
        SchedulingPlan,
        StaticScheduler,
    )
    from repro.schedulers.budget import BudgetConstrainedScheduler
    from repro.schedulers.cpop import CpopScheduler
    from repro.schedulers.deadline import DeadlineConstrainedScheduler
    from repro.schedulers.heft import HeftScheduler
    from repro.schedulers.listsched import (
        MaxMinScheduler,
        MctScheduler,
        MinMinScheduler,
        OlbScheduler,
        SufferageScheduler,
    )
    from repro.schedulers.locality import LocalityScheduler
    from repro.schedulers.online import (
        FcfsScheduler,
        GreedyOnlineScheduler,
        RandomScheduler,
        RoundRobinScheduler,
    )

__all__ = [
    "EstimateModel",
    "OnlineScheduler",
    "PlanFollowingScheduler",
    "SchedulingPlan",
    "StaticScheduler",
    "HeftScheduler",
    "CpopScheduler",
    "BudgetConstrainedScheduler",
    "DeadlineConstrainedScheduler",
    "LocalityScheduler",
    "MinMinScheduler",
    "MaxMinScheduler",
    "MctScheduler",
    "SufferageScheduler",
    "OlbScheduler",
    "FcfsScheduler",
    "RoundRobinScheduler",
    "RandomScheduler",
    "GreedyOnlineScheduler",
]
