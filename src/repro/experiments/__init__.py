"""Experiment harness: regenerate every table and figure of the paper.

Each module produces the rows/series of one paper artifact:

========  ==========================================  =======================
artifact  content                                      module
========  ==========================================  =======================
Table I   VM fleet configurations                      ``environments``
Table II  learning time over the (α, γ, ε) grid        ``sweeps``
Table III simulated makespan over the same grid        ``sweeps``
Table IV  actual (cloud) execution time, HEFT vs RL    ``table4``
Table V   activation→VM plans at 16 vCPUs              ``table5``
Fig. 1    the SciCumulus-RL pipeline trace             ``figure1``
A1–A4     ablations (reward, rule, workloads, episodes) ``ablations``
========  ==========================================  =======================

Every experiment accepts ``episodes``/``seed`` overrides; the environment
variable ``REPRO_EPISODES`` globally scales episode counts so CI can run
a faster version of the full suite (the paper's value is 100).
"""

import os
from typing import TYPE_CHECKING

from repro import lazy_namespace

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "environments": ("TABLE1_FLEETS", "fleet_for", "render_table1"),
        "sweeps": ("PaperSweep", "run_paper_sweep"),
        "table4": ("Table4Row", "run_table4"),
        "table5": ("run_table5",),
        "figure1": ("run_figure1",),
        "sensitivity": ("run_seed_sensitivity",),
    },
    submodules=("ablations",),
)

if TYPE_CHECKING:
    from repro.experiments import ablations
    from repro.experiments.environments import TABLE1_FLEETS, fleet_for, render_table1
    from repro.experiments.figure1 import run_figure1
    from repro.experiments.sensitivity import run_seed_sensitivity
    from repro.experiments.sweeps import PaperSweep, run_paper_sweep
    from repro.experiments.table4 import Table4Row, run_table4
    from repro.experiments.table5 import run_table5

__all__ = [
    "TABLE1_FLEETS",
    "fleet_for",
    "render_table1",
    "PaperSweep",
    "run_paper_sweep",
    "Table4Row",
    "run_table4",
    "run_table5",
    "run_figure1",
    "run_seed_sensitivity",
    "ablations",
    "default_episodes",
]


def default_episodes(paper_value: int = 100) -> int:
    """Episode count: ``REPRO_EPISODES`` env override or the paper's 100."""
    raw = os.environ.get("REPRO_EPISODES", "")
    if raw:
        value = int(raw)
        if value < 1:
            raise ValueError("REPRO_EPISODES must be >= 1")
        return value
    return paper_value
