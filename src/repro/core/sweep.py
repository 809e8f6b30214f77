"""The (α, γ, ε) parameter sweep behind the paper's Tables II and III.

The paper varies each of the three Q-learning parameters over
``{0.1, 0.5, 1.0}`` (27 combinations) for each of the three Table-I
fleets — 81 learning runs — and reports per combination the wall-clock
*learning time* (Table II) and the *simulated execution time* of the
learned plan (Table III).  :func:`sweep_parameters` reproduces one
fleet's 27-run column; the benchmark harness stacks three fleets.

Cells are independent learning runs, so the sweep fans out through
:class:`repro.runner.ParallelRunner`: pass ``workers=N`` to use N
processes.  Every cell's learner is seeded with the sweep's root seed
(the paper's semantics — each combination is one run of Algorithm 2
from the same initial conditions), so **results are bit-identical for
any worker count**; only the wall-clock ``learning_time`` fields differ
between runs.  Pass ``timing="simulated"`` to report the deterministic
simulated learning time instead of the wall clock (what the determinism
regression tests render Table II from).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

# the lane stepper is loaded here, not first by a cell's learn(): pool
# workers fork from this process on every sweep, so a module the parent
# has not imported would be imported again by every worker of every sweep
import repro.core.lane  # noqa: F401
from repro.core.episode import LearningResult
from repro.core.reassign import (
    ReassignLearner,
    ReassignParams,
    SimulatedLearningClock,
)
from repro.dag.graph import Workflow
from repro.runner import ParallelRunner, Task
from repro.runner.parallel import ProgressFn
from repro.sim.vm import Vm
from repro.util.validate import ValidationError

__all__ = [
    "SweepRecord",
    "sweep_parameters",
    "sweep_tasks",
    "PAPER_GRID",
]

#: the paper's parameter values for alpha, gamma and epsilon
PAPER_GRID: Tuple[float, ...] = (0.1, 0.5, 1.0)

#: ``factory(workflow, vms, params, seed)`` -> a ``learn()``-able object.
LearnerFactory = Callable[[Workflow, Sequence[Vm], ReassignParams, int], Any]

#: one cell's task payload: (workflow, vms, params, factory, timing)
CellPayload = Tuple[Workflow, List[Vm], ReassignParams, Optional[LearnerFactory], str]


@dataclass(frozen=True)
class SweepRecord:
    """One (α, γ, ε) cell of the sweep."""

    alpha: float
    gamma: float
    epsilon: float
    learning_time: float  #: Table II cell (seconds, wall clock)
    simulated_makespan: float  #: Table III cell (seconds, simulated)
    result: LearningResult

    @property
    def params(self) -> Tuple[float, float, float]:
        return (self.alpha, self.gamma, self.epsilon)


def default_learner_factory(
    workflow: Workflow,
    vms: Sequence[Vm],
    params: ReassignParams,
    run_seed: int,
) -> ReassignLearner:
    """The standard cell learner (module-level, hence picklable)."""
    return ReassignLearner(workflow, vms, params, seed=run_seed)


def run_sweep_cell(payload: CellPayload, seed: int) -> SweepRecord:
    """Execute one sweep cell — the :class:`~repro.runner.Task` function.

    ``payload`` is ``(workflow, vms, params, factory, timing)``; the
    runner supplies the seed.  Module-level so process-pool workers can
    unpickle it.
    """
    workflow, vms, params, factory, timing = payload
    if factory is None:
        # default cells route learning_time through the injectable clock:
        # wall clock normally, the deterministic simulated clock under
        # timing="simulated" (custom factories keep full control instead)
        learner: Any = ReassignLearner(
            workflow,
            vms,
            params,
            seed=seed,
            clock=SimulatedLearningClock() if timing == "simulated" else None,
        )
    else:
        learner = factory(workflow, vms, params, seed)
    result = learner.learn()
    learning_time = (
        result.simulated_learning_time
        if timing == "simulated"
        else result.learning_time
    )
    return SweepRecord(
        alpha=params.alpha,
        gamma=params.gamma,
        epsilon=params.epsilon,
        learning_time=learning_time,
        simulated_makespan=result.simulated_makespan,
        result=result,
    )


def sweep_tasks(
    workflow: Workflow,
    vms: Sequence[Vm],
    *,
    alphas: Sequence[float],
    gammas: Sequence[float],
    epsilons: Sequence[float],
    episodes: int,
    mu: float = 0.5,
    rho: float = 0.5,
    seed: int = 0,
    learner_factory: Optional[LearnerFactory] = None,
    timing: str = "wall",
    key_prefix: Tuple[Any, ...] = (),
) -> List[Task]:
    """Build the cell tasks of one fleet's (α, γ, ε) grid, one per cell.

    Exposed so callers (e.g. :func:`repro.experiments.sweeps
    .run_paper_sweep`) can combine several fleets' grids into a single
    runner batch.  Task keys are ``key_prefix + (alpha, gamma,
    epsilon)``; every cell carries the sweep's root seed explicitly
    (same-seed-per-cell is the paper's semantics).
    """
    if not alphas or not gammas or not epsilons:
        raise ValidationError("sweep needs non-empty parameter lists")
    if timing not in ("wall", "simulated"):
        raise ValidationError(f"timing must be wall/simulated, got {timing!r}")
    tasks: List[Task] = []
    vms = list(vms)
    # Every default cell builds the same (workflow, fleet, env-model)
    # kernel, so declare its digest once and each pool worker will build
    # that kernel at most once for the whole grid.  Custom factories may
    # configure the environment arbitrarily, so no digest is declared.
    fingerprint: Optional[str] = None
    if learner_factory is None:
        fingerprint = ReassignLearner(workflow, vms).kernel_fingerprint()
    for alpha in alphas:
        for gamma in gammas:
            for epsilon in epsilons:
                params = ReassignParams(
                    alpha=alpha,
                    gamma=gamma,
                    epsilon=epsilon,
                    mu=mu,
                    rho=rho,
                    episodes=episodes,
                )
                tasks.append(
                    Task(
                        key=key_prefix
                        + (params.alpha, params.gamma, params.epsilon),
                        fn=run_sweep_cell,
                        payload=(workflow, vms, params, learner_factory, timing),
                        seed=seed,
                        kernel_fingerprint=fingerprint,
                    )
                )
    return tasks


def sweep_parameters(
    workflow: Workflow,
    vms: Sequence[Vm],
    *,
    alphas: Sequence[float] = PAPER_GRID,
    gammas: Sequence[float] = PAPER_GRID,
    epsilons: Sequence[float] = PAPER_GRID,
    episodes: int = 100,
    mu: float = 0.5,
    rho: float = 0.5,
    seed: int = 0,
    learner_factory: Optional[LearnerFactory] = None,
    workers: Optional[int] = 1,
    timing: str = "wall",
    progress: Optional[ProgressFn] = None,
) -> List[SweepRecord]:
    """Run a learning run per (α, γ, ε) combination on one fleet.

    ``learner_factory(workflow, vms, params, seed)`` may be supplied to
    customize the environment models; it must return a
    :class:`~repro.core.reassign.ReassignLearner`-compatible object with
    a ``learn()`` method — and must be picklable (module-level) when
    ``workers > 1``.

    ``workers`` fans cells out over a process pool (1 = serial, 0 = all
    usable cores, None = the ``REPRO_WORKERS`` environment variable).
    Records are always returned in grid order (α outermost, ε innermost)
    and are identical for every worker count.
    """
    tasks = sweep_tasks(
        workflow,
        vms,
        alphas=alphas,
        gammas=gammas,
        epsilons=epsilons,
        episodes=episodes,
        mu=mu,
        rho=rho,
        seed=seed,
        learner_factory=learner_factory,
        timing=timing,
    )
    runner = ParallelRunner(
        workers=workers,
        run_id=f"sweep:{workflow.name}",
        seed=seed,
        progress=progress,
    )
    return [r.value for r in runner.run(tasks)]


def best_record(records: Sequence[SweepRecord]) -> SweepRecord:
    """The cell with the smallest simulated makespan."""
    if not records:
        raise ValidationError("no sweep records")
    return min(records, key=lambda r: (r.simulated_makespan, r.params))
