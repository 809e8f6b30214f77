"""Workflow model: activities, activations, files and the workflow DAG.

Terminology follows the paper (and the SciCumulus algebra it builds on):

- an **activity** is a program in the abstract workflow (e.g. Montage's
  ``mProjectPP``);
- an **activation** is the smallest unit of parallel work — one invocation
  of an activity on a specific data chunk;
- the **workflow** is a DAG whose nodes are activations and whose edges are
  data dependencies (an output file of one activation consumed by another).
"""

from typing import TYPE_CHECKING

from repro import lazy_namespace

__getattr__, __dir__ = lazy_namespace(__name__, {
    "activation": ("Activation", "ActivationState", "File"),
    "graph": ("CycleError", "Workflow"),
    "dax": ("parse_dax", "parse_dax_file", "write_dax"),
    "clustering": ("ClusteredWorkflow", "horizontal_clustering", "vertical_clustering"),
    "dot": ("to_dot",),
    "random_dag": ("random_layered_dag",),
    "analysis": (
        "DagProfile",
        "critical_path",
        "critical_path_length",
        "level_widths",
        "profile_dag",
        "serial_runtime",
    ),
})

if TYPE_CHECKING:
    from repro.dag.activation import Activation, ActivationState, File
    from repro.dag.analysis import (
        DagProfile,
        critical_path,
        critical_path_length,
        level_widths,
        profile_dag,
        serial_runtime,
    )
    from repro.dag.clustering import (
        ClusteredWorkflow,
        horizontal_clustering,
        vertical_clustering,
    )
    from repro.dag.dax import parse_dax, parse_dax_file, write_dax
    from repro.dag.dot import to_dot
    from repro.dag.graph import CycleError, Workflow
    from repro.dag.random_dag import random_layered_dag

__all__ = [
    "Activation",
    "ActivationState",
    "File",
    "Workflow",
    "CycleError",
    "parse_dax",
    "parse_dax_file",
    "write_dax",
    "DagProfile",
    "critical_path",
    "critical_path_length",
    "level_widths",
    "profile_dag",
    "random_layered_dag",
    "to_dot",
    "ClusteredWorkflow",
    "horizontal_clustering",
    "vertical_clustering",
    "serial_runtime",
]
