"""Synthetic Pegasus-style scientific workflows.

The paper's evaluation uses the Montage 50-activation trace from the
Pegasus *Workflow Generator*; that service published DAX files for five
benchmark workflows (Montage, CyberShake, Epigenomics, LIGO Inspiral,
SIPHT) whose structure and task-runtime distributions were characterized
by Bharathi et al. ("Characterization of scientific workflows", WORKS'08).

We regenerate those workflows synthetically: each generator reproduces the
published DAG *shape* and draws runtimes/file sizes from seeded
distributions with the published means.  ``montage(n_activations=50)`` is
the paper's workload; the others cover its "other workflows" future work.
"""

from typing import TYPE_CHECKING

from repro import lazy_namespace

# Eager: each recipe function shares its submodule's name, and importing
# a submodule binds the module onto this package, which a lazy export
# could then never replace.  Binding the functions here, after their
# modules load, keeps ``repro.workflows.montage`` the function.
from repro.workflows.cybershake import CyberShakeRecipe, cybershake
from repro.workflows.epigenomics import EpigenomicsRecipe, epigenomics
from repro.workflows.inspiral import InspiralRecipe, inspiral
from repro.workflows.montage import MontageRecipe, montage
from repro.workflows.sipht import SiphtRecipe, sipht

__getattr__, __dir__ = lazy_namespace(__name__, {
    "generator": ("WorkflowRecipe", "sample_positive"),
    "ensembles": ("merge_workflows", "montage_ensemble", "split_assignment"),
    "registry": ("available_workflows", "make_workflow"),
})

if TYPE_CHECKING:
    from repro.workflows.ensembles import merge_workflows, montage_ensemble, split_assignment
    from repro.workflows.generator import WorkflowRecipe, sample_positive
    from repro.workflows.registry import available_workflows, make_workflow

__all__ = [
    "WorkflowRecipe",
    "sample_positive",
    "MontageRecipe",
    "montage",
    "CyberShakeRecipe",
    "cybershake",
    "EpigenomicsRecipe",
    "epigenomics",
    "InspiralRecipe",
    "inspiral",
    "SiphtRecipe",
    "sipht",
    "merge_workflows",
    "montage_ensemble",
    "split_assignment",
    "available_workflows",
    "make_workflow",
]
