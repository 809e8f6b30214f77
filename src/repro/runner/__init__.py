"""Parallel experiment fan-out with deterministic seeding.

See :mod:`repro.runner.parallel` for the full contract.  The short
version: build :class:`Task` objects with stable keys, hand them to a
:class:`ParallelRunner`, and get ordered, reproducible results back —
bit-identical whether ``workers`` is 1 or 64.
"""

from typing import TYPE_CHECKING

from repro import lazy_namespace

__getattr__, __dir__ = lazy_namespace(__name__, {
    "parallel": (
        "ParallelRunner",
        "RunnerError",
        "Task",
        "TaskResult",
        "canonical_key",
        "resolve_workers",
        "task_seed",
    ),
})

if TYPE_CHECKING:
    from repro.runner.parallel import (
        ParallelRunner,
        RunnerError,
        Task,
        TaskResult,
        canonical_key,
        resolve_workers,
        task_seed,
    )

__all__ = [
    "ParallelRunner",
    "RunnerError",
    "Task",
    "TaskResult",
    "canonical_key",
    "resolve_workers",
    "task_seed",
]
