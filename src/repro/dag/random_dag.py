"""Random layered DAG generation (stress-testing utility).

The Pegasus generators in :mod:`repro.workflows` reproduce specific
scientific structures; for robustness studies and fuzzing one also wants
*arbitrary* DAGs.  :func:`random_layered_dag` builds the classic layered
random graph used in scheduling literature (Topcuoglu et al. evaluate
HEFT on exactly this family): nodes are placed on layers, edges go
forward across layers with a given density, runtimes and file sizes are
drawn from seeded distributions.
"""

from __future__ import annotations

from typing import Optional

from repro.dag.activation import Activation, File
from repro.dag.graph import Workflow
from repro.util.rng import RngService
from repro.util.validate import ValidationError, check_positive, check_probability

__all__ = ["random_layered_dag"]


def random_layered_dag(
    n_activations: int,
    *,
    n_layers: Optional[int] = None,
    edge_density: float = 0.3,
    mean_runtime: float = 20.0,
    runtime_cv: float = 0.5,
    mean_file_mb: float = 2.0,
    seed: int = 0,
    name: str = "",
) -> Workflow:
    """Generate a random layered workflow DAG.

    Parameters
    ----------
    n_activations:
        Total node count (>= 1).
    n_layers:
        Number of layers; default ``max(2, round(sqrt(n)))``.
    edge_density:
        Probability of an edge between a node and each node of the next
        layer (every non-entry node gets at least one parent so the DAG
        stays connected to layer structure).
    mean_runtime / runtime_cv:
        Lognormal-ish runtime distribution parameters.
    mean_file_mb:
        Mean size of each produced file (one output per node; children
        consume their parents' outputs).
    seed:
        RNG seed; the generator is a pure function of its arguments.
    """
    if n_activations < 1:
        raise ValidationError("n_activations must be >= 1")
    check_probability("edge_density", edge_density)
    check_positive("mean_runtime", mean_runtime)
    check_positive("mean_file_mb", mean_file_mb)

    rng = RngService(seed).stream("random-dag")
    if n_layers is None:
        n_layers = max(2, int(round(n_activations ** 0.5)))
    n_layers = min(n_layers, n_activations)

    # distribute nodes across layers (each layer non-empty)
    layer_of = sorted(
        list(range(n_layers))
        + [int(rng.integers(n_layers)) for _ in range(n_activations - n_layers)]
    )
    layers: list = [[] for _ in range(n_layers)]

    wf = Workflow(name or f"random-{n_activations}-l{n_layers}-s{seed}")
    for node_id in range(n_activations):
        runtime = max(
            float(rng.normal(mean_runtime, runtime_cv * mean_runtime)),
            mean_runtime * 0.05,
        )
        out_size = max(float(rng.exponential(mean_file_mb)), 0.01) * 1e6
        output = File(f"f_{node_id}.dat", out_size)
        layers[layer_of[node_id]].append(node_id)
        wf.add_activation(
            Activation(
                id=node_id,
                activity=f"layer{layer_of[node_id]}",
                runtime=runtime,
                outputs=(output,),
            )
        )

    # drop empty trailing layers (possible when n_layers ~ n)
    layers = [layer for layer in layers if layer]

    for upper, lower in zip(layers, layers[1:]):
        for child in lower:
            parents = [p for p in upper if rng.random() < edge_density]
            if not parents:  # keep the layer structure connected
                parents = [upper[int(rng.integers(len(upper)))]]
            for p in parents:
                wf.add_dependency(p, child)

    wf.validate()
    return wf
