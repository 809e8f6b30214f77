"""Shared utilities: seeded randomness, formatting, validation and statistics.

Everything stochastic in :mod:`repro` draws from a :class:`RngService` so
that simulations, workflow generators and learning runs are reproducible
from a single integer seed.  No module in the package touches the global
:mod:`random` / :mod:`numpy.random` state.
"""

from typing import TYPE_CHECKING

from repro import lazy_namespace

__getattr__, __dir__ = lazy_namespace(__name__, {
    "rng": ("RngService", "derive_seed"),
    "stats": ("RunningStats", "welford_merge"),
    "plot": ("ascii_plot", "sparkline"),
    "tables": ("format_duration", "format_hms", "render_table"),
    "validate": (
        "check_positive",
        "check_probability",
        "check_non_negative",
        "ValidationError",
    ),
})

if TYPE_CHECKING:
    from repro.util.plot import ascii_plot, sparkline
    from repro.util.rng import RngService, derive_seed
    from repro.util.stats import RunningStats, welford_merge
    from repro.util.tables import format_duration, format_hms, render_table
    from repro.util.validate import (
        ValidationError,
        check_non_negative,
        check_positive,
        check_probability,
    )

__all__ = [
    "RngService",
    "derive_seed",
    "RunningStats",
    "welford_merge",
    "format_duration",
    "format_hms",
    "render_table",
    "ascii_plot",
    "sparkline",
    "check_positive",
    "check_probability",
    "check_non_negative",
    "ValidationError",
]
