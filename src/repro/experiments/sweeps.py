"""Tables II and III — the (α, γ, ε) × fleet learning sweep.

One :class:`PaperSweep` run covers the paper's 81 learning runs: the 27
parameter combinations of {0.1, 0.5, 1.0}³ on each of the three Table-I
fleets, Montage-50, µ = 0.5, 100 episodes.  Table II reads the wall-clock
learning time per cell; Table III the simulated makespan of each learned
plan — the two tables share the same runs, so the sweep executes once and
renders twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.sweep import (
    PAPER_GRID,
    SweepRecord,
    flatten_sweep_values,
    sweep_tasks,
)
from repro.dag.graph import Workflow
from repro.experiments.environments import TABLE1_FLEETS, fleet_for
from repro.runner import ParallelRunner
from repro.util.tables import render_table
from repro.util.validate import ValidationError
from repro.workflows.montage import montage

__all__ = ["PaperSweep", "run_paper_sweep"]


@dataclass
class PaperSweep:
    """Results of the 81-run sweep, keyed by fleet vCPU count."""

    workflow_name: str
    episodes: int
    records: Dict[int, List[SweepRecord]] = field(default_factory=dict)
    grid: Tuple[float, ...] = PAPER_GRID

    def _cell(self, vcpus: int, params: Tuple[float, float, float]) -> SweepRecord:
        for record in self.records[vcpus]:
            if record.params == params:
                return record
        raise ValidationError(f"no sweep cell {params} for {vcpus} vCPUs")

    def _grid_rows(self, metric: str) -> List[Tuple]:
        vcpu_cols = sorted(self.records)
        rows = []
        for alpha in self.grid:
            for gamma in self.grid:
                for epsilon in self.grid:
                    cells = [
                        getattr(self._cell(v, (alpha, gamma, epsilon)), metric)
                        for v in vcpu_cols
                    ]
                    rows.append((alpha, gamma, epsilon, *[round(c, 5) for c in cells]))
        return rows

    def render_table2(self) -> str:
        """Learning time of the workflow in the simulator (Table II)."""
        headers = ["alpha", "gamma", "epsilon"] + [
            f"{v} vCPUs" for v in sorted(self.records)
        ]
        return render_table(
            headers,
            self._grid_rows("learning_time"),
            title=(
                f"Table II: Learning time [s] of {self.workflow_name} "
                f"({self.episodes} episodes)"
            ),
        )

    def render_table3(self) -> str:
        """Simulated execution time of the learned plans (Table III)."""
        headers = ["alpha", "gamma", "epsilon"] + [
            f"{v} vCPUs" for v in sorted(self.records)
        ]
        return render_table(
            headers,
            self._grid_rows("simulated_makespan"),
            title=(
                f"Table III: Simulated execution time [s] of "
                f"{self.workflow_name} per learned plan"
            ),
        )

    def best_cells(self) -> Dict[int, SweepRecord]:
        """Per-fleet cell with the smallest simulated makespan."""
        return {
            v: min(recs, key=lambda r: (r.simulated_makespan, r.params))
            for v, recs in self.records.items()
        }


def run_paper_sweep(
    workflow: Optional[Workflow] = None,
    *,
    vcpu_fleets: Sequence[int] = (16, 32, 64),
    episodes: int = 100,
    seed: int = 0,
    grid: Sequence[float] = PAPER_GRID,
    workers: Optional[int] = 1,
    timing: str = "wall",
    progress=None,
    batch: int = 8,
) -> PaperSweep:
    """Execute the Tables II/III sweep.

    Defaults reproduce the paper exactly (Montage-50, the three Table-I
    fleets, 27 combinations, 100 episodes, µ = 0.5).

    The full fleet × grid product (81 cells at paper scale) is submitted
    as **one** :class:`~repro.runner.ParallelRunner` batch so ``workers``
    parallelism spans fleets, not just one fleet's column.  ``batch``
    (default 8) packs that many consecutive cells per task into the
    batched engine (:func:`repro.core.batch.learn_batch`) —
    pass ``batch=1`` for the historical one-cell-per-task path.  Every
    cell runs Algorithm 2 from the sweep's root seed, so the resulting
    records — and the rendered Tables II/III, when ``timing`` is
    ``"simulated"`` — are bit-identical for any worker count and batch
    size.
    """
    wf = workflow if workflow is not None else montage(50, seed=seed)
    sweep = PaperSweep(workflow_name=wf.name, episodes=episodes, grid=tuple(grid))
    tasks = []
    fleet_task_counts: List[int] = []
    for vcpus in vcpu_fleets:
        if vcpus not in TABLE1_FLEETS:
            raise ValidationError(f"unknown Table-I fleet: {vcpus} vCPUs")
        fleet_tasks = sweep_tasks(
            wf,
            fleet_for(vcpus),
            alphas=grid,
            gammas=grid,
            epsilons=grid,
            episodes=episodes,
            seed=seed,
            timing=timing,
            key_prefix=(vcpus,),
            batch=batch,
        )
        tasks.extend(fleet_tasks)
        fleet_task_counts.append(len(fleet_tasks))
    runner = ParallelRunner(
        workers=workers,
        run_id=f"paper-sweep:{wf.name}",
        seed=seed,
        progress=progress,
    )
    results = runner.run(tasks)
    pos = 0
    for vcpus, count in zip(vcpu_fleets, fleet_task_counts):
        chunk = results[pos : pos + count]
        pos += count
        sweep.records[vcpus] = flatten_sweep_values([r.value for r in chunk])
    return sweep
