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

from repro.core.batch import BatchSpec, learn_batch
from repro.core.episode import LearningResult
from repro.core.reassign import (
    ReassignLearner,
    ReassignParams,
    SimulatedLearningClock,
)
from repro.dag.graph import Workflow
from repro.runner import ParallelRunner, Task
from repro.runner.parallel import ProgressFn, pack_payloads
from repro.sim.vm import Vm
from repro.util.validate import ValidationError

__all__ = [
    "SweepRecord",
    "sweep_parameters",
    "sweep_tasks",
    "run_sweep_batch",
    "flatten_sweep_values",
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


def run_sweep_batch(
    payload: Tuple[CellPayload, ...], seed: int
) -> List[SweepRecord]:
    """Execute a packed batch of sweep cells through the batched engine.

    ``payload`` is a tuple of :data:`CellPayload` entries (all with
    ``factory=None``) sharing one workflow/fleet configuration;
    :func:`repro.core.batch.learn_batch` learns them one after another
    over one shared kernel.  Every cell still runs from the same root
    ``seed`` the runner supplies (the paper's semantics), so the records
    are bit-identical to :func:`run_sweep_cell` run per cell.
    """
    specs = [
        BatchSpec(workflow=workflow, vms=vms, params=params, seed=seed)
        for workflow, vms, params, _factory, _timing in payload
    ]
    timing = payload[0][4]
    results = learn_batch(specs, timing=timing)
    records = []
    for (_wf, _vms, params, _factory, _timing), result in zip(
        payload, results
    ):
        learning_time = (
            result.simulated_learning_time
            if timing == "simulated"
            else result.learning_time
        )
        records.append(
            SweepRecord(
                alpha=params.alpha,
                gamma=params.gamma,
                epsilon=params.epsilon,
                learning_time=learning_time,
                simulated_makespan=result.simulated_makespan,
                result=result,
            )
        )
    return records


def flatten_sweep_values(values: Sequence[Any]) -> List[SweepRecord]:
    """Flatten mixed per-cell / per-batch task values into cell order.

    Batched tasks return ``List[SweepRecord]`` (one per packed cell, in
    pack order) while unbatched tasks return a single
    :class:`SweepRecord`; packs are consecutive grid cells, so a simple
    flatten restores grid order.
    """
    records: List[SweepRecord] = []
    for value in values:
        if isinstance(value, list):
            records.extend(value)
        else:
            records.append(value)
    return records


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
    batch: int = 1,
) -> List[Task]:
    """Build the cell tasks of one fleet's (α, γ, ε) grid.

    Exposed so callers (e.g. :func:`repro.experiments.sweeps
    .run_paper_sweep`) can combine several fleets' grids into a single
    runner batch.  Task keys are ``key_prefix + (alpha, gamma,
    epsilon)``; every cell carries the sweep's root seed explicitly
    (same-seed-per-cell is the paper's semantics).

    ``batch > 1`` packs up to that many consecutive default cells into
    one :func:`run_sweep_batch` task (keys ``key_prefix + ("batch",
    i)``), so each task learns its cells over one shared kernel — same
    records, fewer kernel builds and task round-trips.  Custom ``learner_factory`` cells are never packed
    (the factory contract is one learner per cell).  Flatten mixed
    results with :func:`flatten_sweep_values`.
    """
    if not alphas or not gammas or not epsilons:
        raise ValidationError("sweep needs non-empty parameter lists")
    if timing not in ("wall", "simulated"):
        raise ValidationError(f"timing must be wall/simulated, got {timing!r}")
    if batch < 1:
        raise ValidationError(f"batch must be >= 1, got {batch}")
    tasks: List[Task] = []
    vms = list(vms)
    # Every default cell builds the same (workflow, fleet, env-model)
    # kernel, so declare its digest once and each pool worker will build
    # that kernel at most once for the whole grid.  Custom factories may
    # configure the environment arbitrarily, so no digest is declared.
    fingerprint: Optional[str] = None
    if learner_factory is None:
        fingerprint = ReassignLearner(workflow, vms).kernel_fingerprint()
    payloads: List[CellPayload] = []
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
                payloads.append(
                    (workflow, vms, params, learner_factory, timing)
                )
    if batch > 1 and learner_factory is None:
        for i, pack in enumerate(pack_payloads(payloads, batch)):
            tasks.append(
                Task(
                    key=key_prefix + ("batch", i),
                    fn=run_sweep_batch,
                    payload=pack,
                    seed=seed,
                    kernel_fingerprint=fingerprint,
                )
            )
        return tasks
    for cell in payloads:
        _wf, _vms, params, _factory, _timing = cell
        tasks.append(
            Task(
                key=key_prefix + (params.alpha, params.gamma, params.epsilon),
                fn=run_sweep_cell,
                payload=cell,
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
    batch: int = 1,
) -> List[SweepRecord]:
    """Run a learning run per (α, γ, ε) combination on one fleet.

    ``learner_factory(workflow, vms, params, seed)`` may be supplied to
    customize the environment models; it must return a
    :class:`~repro.core.reassign.ReassignLearner`-compatible object with
    a ``learn()`` method — and must be picklable (module-level) when
    ``workers > 1``.

    ``workers`` fans cells out over a process pool (1 = serial, 0 = all
    usable cores, None = the ``REPRO_WORKERS`` environment variable); ``batch``
    packs that many consecutive cells per task into the batched engine
    (see :func:`sweep_tasks`).  Records are always returned in
    grid order (α outermost, ε innermost) and are identical for every
    worker count and batch size.
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
        batch=batch,
    )
    runner = ParallelRunner(
        workers=workers,
        run_id=f"sweep:{workflow.name}",
        seed=seed,
        progress=progress,
    )
    return flatten_sweep_values([r.value for r in runner.run(tasks)])


def best_record(records: Sequence[SweepRecord]) -> SweepRecord:
    """The cell with the smallest simulated makespan."""
    if not records:
        raise ValidationError("no sweep records")
    return min(records, key=lambda r: (r.simulated_makespan, r.params))
