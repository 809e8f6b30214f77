"""repro — a reproduction of *"A Reinforcement Learning Scheduling Strategy
for Parallel Cloud-based Workflows"* (Nascimento et al., IPPS/IPDPS-W 2019).

The package implements the paper's entire stack from scratch:

- :mod:`repro.dag` — the workflow model (activities, activations, files,
  the DAG, Pegasus DAX I/O);
- :mod:`repro.workflows` — synthetic Pegasus benchmark workflows
  (Montage — the paper's workload — plus CyberShake, Epigenomics,
  Inspiral, SIPHT);
- :mod:`repro.sim` — a discrete-event cloud workflow simulator (the
  WorkflowSim substitute) with transfer, fluctuation, failure and
  live-migration models;
- :mod:`repro.schedulers` — HEFT (the paper's baseline) and the classic
  heuristics, plus the online-scheduler interface;
- :mod:`repro.rl` — tabular Q-learning/SARSA/Double-Q, policies and the
  paper's §III-B reward function;
- :mod:`repro.core` — **ReASSIgN** itself (Algorithm 2) and the parameter
  sweep;
- :mod:`repro.scicumulus` — the SciCumulus-RL execution stage: simulated
  AWS cloud, simulated MPI master/slave engine, SQLite provenance;
- :mod:`repro.experiments` — regenerates every table and figure of the
  paper's evaluation.

Quickstart::

    from repro.workflows import montage
    from repro.sim import t2_fleet
    from repro.core import ReassignLearner, ReassignParams

    wf = montage(50, seed=1)                      # the paper's 50-node DAX
    fleet = t2_fleet(n_micro=8, n_2xlarge=1)      # Table I, 16 vCPUs
    params = ReassignParams(alpha=0.5, gamma=1.0, epsilon=0.1, episodes=100)
    result = ReassignLearner(wf, fleet, params, seed=7).learn()
    print(result.plan.assignment)                 # activation id -> VM id
"""

import importlib
import sys
from typing import TYPE_CHECKING, Callable, List, Mapping, Sequence, Tuple

__version__ = "1.0.0"


def lazy_namespace(
    package: str,
    exports: Mapping[str, Sequence[str]],
    submodules: Sequence[str] = (),
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package's re-exports.

    ``exports`` maps each submodule (relative to ``package``) to the
    public names it defines; ``submodules`` are re-exported as modules.
    A name's submodule is imported on first attribute access, so
    importing the package costs nothing, and every access reads the
    submodule's current binding (nothing is copied onto the package).
    A package's ``__init__`` lists the same names in a ``TYPE_CHECKING``
    block for static checkers; ``tests/test_import_graph.py`` holds the
    two lists and ``__all__`` equal.
    """
    origin = {
        name: f"{package}.{module}" for module, names in exports.items() for name in names
    }
    modules = frozenset(submodules)

    def __getattr__(name: str) -> object:
        if name in origin:
            return getattr(importlib.import_module(origin[name]), name)
        if name in modules:
            return importlib.import_module(f"{package}.{name}")
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin) | modules)

    return __getattr__, __dir__


__getattr__, __dir__ = lazy_namespace(__name__, {
    "core.reassign": ("ReassignLearner", "ReassignParams", "ReassignScheduler"),
    "dag.activation": ("Activation", "ActivationState", "File"),
    "dag.graph": ("Workflow",),
    "schedulers.heft": ("HeftScheduler",),
    "schedulers.base": ("SchedulingPlan",),
    "sim.simulator": ("WorkflowSimulator",),
    "sim.vm": ("t2_fleet",),
    "workflows.registry": ("make_workflow",),
    "workflows.montage": ("montage",),
})

if TYPE_CHECKING:
    from repro.core.reassign import ReassignLearner, ReassignParams, ReassignScheduler
    from repro.dag.activation import Activation, ActivationState, File
    from repro.dag.graph import Workflow
    from repro.schedulers.base import SchedulingPlan
    from repro.schedulers.heft import HeftScheduler
    from repro.sim.simulator import WorkflowSimulator
    from repro.sim.vm import t2_fleet
    from repro.workflows.montage import montage
    from repro.workflows.registry import make_workflow

__all__ = [
    "ReassignLearner",
    "ReassignParams",
    "ReassignScheduler",
    "Activation",
    "ActivationState",
    "File",
    "Workflow",
    "HeftScheduler",
    "SchedulingPlan",
    "WorkflowSimulator",
    "t2_fleet",
    "make_workflow",
    "montage",
    "__version__",
]
