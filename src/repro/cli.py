"""Command-line interface: ``python -m repro <command> ...``.

Subcommands cover the library's main entry points so the paper's
experiments can be driven without writing Python:

- ``workflow``  — generate a benchmark workflow, print its profile,
  optionally export it as Pegasus DAX or SciCumulus XML;
- ``simulate``  — run one scheduler on a workflow/fleet in the simulator
  and print the result (optionally a Gantt chart);
- ``learn``     — run ReASSIgN (Algorithm 2) and print/save the plan;
- ``pipeline``  — the full SciCumulus-RL pipeline (learn + execute on the
  simulated cloud, with provenance);
- ``table``     — regenerate one of the paper's tables (1-5);
- ``serve``     — the streaming multi-tenant scheduler service:
  continuous (Poisson or trace-driven) job arrivals multiplexed over one
  shared fleet, with throughput/utilization/latency metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional

from repro.util.validate import ValidationError
from repro.workflows.registry import available_workflows, make_workflow

if TYPE_CHECKING:
    from repro.runner.parallel import RunnerError
    from repro.schedulers.base import OnlineScheduler
    from repro.sim.kernel import HorizonExceeded

__all__ = ["main", "build_parser"]

# Scheduler choices name classes in ``repro.schedulers``; a command
# imports the one it runs (see ``_scheduler_class``).
_STATIC = {
    "heft": "HeftScheduler",
    "minmin": "MinMinScheduler",
    "maxmin": "MaxMinScheduler",
    "sufferage": "SufferageScheduler",
    "mct": "MctScheduler",
    "olb": "OlbScheduler",
}
_ONLINE = {
    "fcfs": "FcfsScheduler",
    "roundrobin": "RoundRobinScheduler",
    "random": "RandomScheduler",
    "greedy": "GreedyOnlineScheduler",
}


def _scheduler_class(name: str) -> type:
    """The ``repro.schedulers`` class a ``--scheduler`` choice names."""
    import repro.schedulers

    return getattr(repro.schedulers, _STATIC.get(name) or _ONLINE[name])


def _make_online_scheduler(name: str, seed: int) -> OnlineScheduler:
    """Instantiate an online scheduler, plumbing the run seed through."""
    cls = _scheduler_class(name)
    # seeded from --seed so one root seed governs the whole run
    return cls(seed=seed) if name == "random" else cls()


def _count_arg(name: str) -> Callable[[str], int]:
    """An argparse type for an integer >= 1: a clean error, no traceback."""

    def parse(value: str) -> int:
        try:
            count = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{name} must be an integer >= 1, got {value!r}"
            )
        if count < 1:
            raise argparse.ArgumentTypeError(
                f"{name} must be >= 1, got {count}"
            )
        return count

    return parse


@contextlib.contextmanager
def _path_arg(option: str, path: str, verb: str) -> Iterator[None]:
    """Report a ``path`` that cannot be read or written like a bad argument.

    Wraps exactly the file operation on ``path``: an ``OSError`` (or a
    SQLite open failure) inside becomes a one-line
    :class:`ValidationError` naming the option and the path, which
    :func:`main` reports with usage and exit code 2.  A fault anywhere
    else keeps its traceback.
    """
    import sqlite3

    try:
        yield
    except (OSError, sqlite3.Error) as exc:
        reason = getattr(exc, "strerror", None) or str(exc)
        raise ValidationError(
            f"argument {option}: cannot {verb} {path!r}: {reason}"
        ) from None


def _task_failure(exc: RunnerError) -> Optional[Exception]:
    """The clean error every failed runner task raised, if they agree.

    A failed task arrives as its formatted traceback, whose last line
    names the exception's class.  When every task failed with a
    :class:`ValidationError` (bad input), the first one's message comes
    back as one; when every task overran its simulated horizon (a
    ``serve --replicas`` run), a :class:`HorizonExceeded` that counts
    them does.  ``None`` when the failures differ in kind or any is
    another fault (a deadlock or an internal fault keeps its traceback).
    """
    from repro.sim.kernel import HorizonExceeded

    lines = [(f.error or "").strip().splitlines()[-1:] for f in exc.failures]
    for cls in (ValidationError, HorizonExceeded):
        prefix = f"{cls.__module__}.{cls.__qualname__}: "
        if lines and all(line and line[0].startswith(prefix) for line in lines):
            message = lines[0][0][len(prefix):]
            if cls is HorizonExceeded:
                message += f" ({len(lines)} replica(s) overran)"
            return cls(message)
    return None


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ReASSIgN reproduction: RL scheduling of cloud workflows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workflow_args(p):
        p.add_argument("--workflow", default="montage",
                       choices=available_workflows())
        p.add_argument("--size", type=int, default=None,
                       help="exact activation count (default: benchmark size)")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("workflow", help="generate/describe a workflow")
    add_workflow_args(p)
    p.add_argument("--dax", metavar="PATH", help="write Pegasus DAX here")
    p.add_argument("--xml", metavar="PATH", help="write SciCumulus XML here")

    p = sub.add_parser("simulate", help="run one scheduler in the simulator")
    add_workflow_args(p)
    p.add_argument("--scheduler", default="heft",
                   choices=sorted(_STATIC) + sorted(_ONLINE))
    p.add_argument("--vcpus", type=int, default=16, choices=(16, 32, 64))
    p.add_argument("--gantt", action="store_true", help="print a Gantt chart")

    p = sub.add_parser(
        "learn",
        help="run ReASSIgN (Algorithm 2) learning and extract its plan",
    )
    add_workflow_args(p)
    p.add_argument("--vcpus", type=int, default=16, choices=(16, 32, 64))
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--plan-out", metavar="PATH", help="write plan JSON here")

    p = sub.add_parser("pipeline", help="full SciCumulus-RL pipeline")
    add_workflow_args(p)
    p.add_argument("--vcpus", type=int, default=16, choices=(16, 32, 64))
    p.add_argument("--scheduler", default="reassign",
                   choices=["reassign"] + sorted(_STATIC))
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--provenance", metavar="PATH",
                   help="SQLite provenance DB path (default in-memory)")

    def add_workers_arg(p):
        p.add_argument(
            "--workers", type=int, default=1, metavar="N",
            help="worker processes for independent runs "
                 "(1 = serial, 0 = all usable cores; default 1)",
        )

    p = sub.add_parser("table", help="regenerate a paper table")
    p.add_argument("number", type=int, choices=(1, 2, 3, 4, 5))
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    add_workers_arg(p)

    p = sub.add_parser(
        "sweep",
        help="run the Tables II/III sweep (optionally reduced)",
    )
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--vcpus", type=int, nargs="+", default=[16, 32, 64],
                   choices=(16, 32, 64), metavar="V")
    p.add_argument("--grid", type=float, nargs="+", default=None, metavar="X",
                   help="parameter values for alpha/gamma/epsilon "
                        "(default: the paper's 0.1 0.5 1.0)")
    p.add_argument("--timing", choices=("wall", "simulated"), default="wall",
                   help="Table II metric: wall clock or the deterministic "
                        "simulated learning time")
    add_workers_arg(p)

    p = sub.add_parser("ensemble",
                       help="learn plans for a workflow ensemble campaign")
    p.add_argument("--instances", type=int, default=4)
    p.add_argument("--size", type=int, default=25,
                   help="activations per ensemble member")
    p.add_argument("--vcpus", type=int, default=16, choices=(16, 32, 64))
    p.add_argument("--episodes", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    add_workers_arg(p)

    p = sub.add_parser(
        "serve",
        help="run the streaming multi-tenant scheduler service",
    )
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--policy", default="fifo",
                   choices=("fifo", "fair", "deadline"))
    p.add_argument("--vcpus", type=int, default=16, choices=(16, 32, 64))
    p.add_argument("--tenants", type=int, default=3,
                   help="equal-weight tenant count (Poisson mode)")
    p.add_argument("--jobs", type=int, default=20,
                   help="total arrivals to generate (Poisson mode)")
    p.add_argument("--rate", type=float, default=0.02,
                   help="mean arrivals per simulated second (Poisson mode)")
    p.add_argument("--workflow", default="montage",
                   choices=available_workflows())
    p.add_argument("--size", type=int, default=20,
                   help="activations per job's DAG")
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="relative deadline stamped on every job")
    p.add_argument("--max-in-flight", type=int, default=None, metavar="N",
                   help="admission-control cap on concurrent jobs")
    p.add_argument("--horizon", type=float, default=1e9,
                   help="hard simulated-time safety limit")
    p.add_argument("--trace", metavar="PATH",
                   help="replay this arrival-trace JSON instead of Poisson")
    p.add_argument("--trace-out", metavar="PATH",
                   help="write the generated arrival schedule here")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="write the metrics JSON (with per-job records) here")
    p.add_argument("--replicas", type=_count_arg("replicas"), default=1,
                   metavar="N",
                   help="independent derived-seed service runs")
    add_workers_arg(p)

    p = sub.add_parser("reproduce",
                       help="run every experiment and write a report")
    p.add_argument("--out", default="results", metavar="DIR")
    p.add_argument("--episodes", type=int, default=0,
                   help="0 = REPRO_EPISODES env or the paper's 100")
    p.add_argument("--seed", type=int, default=1)
    add_workers_arg(p)

    return parser


def _cmd_workflow(args) -> int:
    from repro.dag.analysis import profile_dag
    from repro.dag.dax import write_dax
    from repro.scicumulus.xml_spec import workflow_to_xml
    from repro.util.tables import render_table

    wf = make_workflow(args.workflow, args.size, seed=args.seed)
    profile = profile_dag(wf)
    print(render_table(["property", "value"], profile.rows(),
                       title=f"Workflow profile: {wf.name}"))
    if args.dax:
        with _path_arg("--dax", args.dax, "write"):
            write_dax(wf, args.dax)
        print(f"wrote DAX to {args.dax}")
    if args.xml:
        with _path_arg("--xml", args.xml, "write"):
            workflow_to_xml(wf, args.xml)
        print(f"wrote SciCumulus XML to {args.xml}")
    return 0


def _cmd_simulate(args) -> int:
    from repro.experiments.environments import fleet_for
    from repro.schedulers.base import PlanFollowingScheduler
    from repro.sim.kernel import EpisodeKernel
    from repro.sim.trace import gantt_text
    from repro.util.tables import format_hms

    wf = make_workflow(args.workflow, args.size, seed=args.seed)
    fleet = fleet_for(args.vcpus)
    kernel = EpisodeKernel(wf, fleet)
    if args.scheduler in _STATIC:
        # static planners share the kernel's nominal-estimate cache
        planner = _scheduler_class(args.scheduler)(kernel.estimate_model())
        scheduler = PlanFollowingScheduler(planner.plan(wf, fleet))
    else:
        scheduler = _make_online_scheduler(args.scheduler, args.seed)
    result = kernel.run_episode(scheduler, args.seed)
    print(f"scheduler={args.scheduler} workflow={wf.name} "
          f"vcpus={args.vcpus}")
    print(f"state={result.final_state}")
    print(f"makespan={result.makespan:.2f}s ({format_hms(result.makespan)})")
    print(f"cost=${result.cost():.4f} (hourly billing)")
    if args.gantt:
        print(gantt_text(result))
    return 0 if result.succeeded else 1


def _cmd_learn(args) -> int:
    from repro.core.reassign import ReassignLearner, ReassignParams
    from repro.experiments.environments import fleet_for

    wf = make_workflow(args.workflow, args.size, seed=args.seed)
    fleet = fleet_for(args.vcpus)
    params = ReassignParams(alpha=args.alpha, gamma=args.gamma,
                            epsilon=args.epsilon, episodes=args.episodes)
    result = ReassignLearner(wf, fleet, params, seed=args.seed).learn()
    print(f"learned {wf.name} on {args.vcpus} vCPUs [{params.label()}]")
    print(f"learning time     = {result.learning_time:.2f}s "
          f"({result.n_episodes} episodes)")
    print(f"first episode     = {result.episodes[0].makespan:.2f}s")
    print(f"best episode      = {result.best_episode.makespan:.2f}s")
    print(f"plan makespan     = {result.simulated_makespan:.2f}s")
    if args.plan_out:
        text = result.plan.to_json()
        with _path_arg("--plan-out", args.plan_out, "write"):
            with open(args.plan_out, "w", encoding="utf-8") as fh:
                fh.write(text)
        print(f"wrote plan to {args.plan_out}")
    return 0


def _cmd_pipeline(args) -> int:
    from repro.core.reassign import ReassignParams
    from repro.experiments.environments import fleet_spec_for
    from repro.scicumulus.provenance import ProvenanceStore
    from repro.scicumulus.swfms import SciCumulusRL
    from repro.util.tables import format_hms

    wf = make_workflow(args.workflow, args.size, seed=args.seed)
    store = None
    if args.provenance:
        with _path_arg("--provenance", args.provenance, "open"):
            store = ProvenanceStore(args.provenance)
    swfms = SciCumulusRL(provenance=store, seed=args.seed)
    spec = fleet_spec_for(args.vcpus)
    if args.scheduler == "reassign":
        report = swfms.run_workflow(
            wf, spec, "reassign",
            ReassignParams(episodes=args.episodes),
        )
    else:
        report = swfms.run_workflow(wf, spec, _scheduler_class(args.scheduler)())
    print(f"scheduler        = {report.scheduler}")
    print(f"fleet            = {report.fleet}")
    print(f"deploy time      = {report.deploy_time:.1f}s")
    if report.learning_time:
        print(f"learning time    = {report.learning_time:.2f}s")
        print(f"sim makespan     = {report.simulated_makespan:.2f}s")
    print(f"execution time   = {format_hms(report.total_execution_time)}")
    print(f"cost             = ${report.cost:.4f}")
    return 0 if report.execution.succeeded else 1


def _cmd_table(args) -> int:
    if args.number == 1:
        from repro.experiments.environments import render_table1

        print(render_table1())
        return 0
    if args.number in (2, 3):
        from repro.experiments.sweeps import run_paper_sweep

        sweep = run_paper_sweep(episodes=args.episodes, seed=args.seed,
                                workers=args.workers)
        print(sweep.render_table2() if args.number == 2
              else sweep.render_table3())
        return 0
    if args.number == 4:
        from repro.experiments.table4 import render_table4, run_table4

        print(render_table4(run_table4(episodes=args.episodes,
                                       seed=args.seed)))
        return 0
    from repro.experiments.table5 import render_table5, run_table5

    print(render_table5(run_table5(episodes=args.episodes, seed=args.seed)))
    return 0


def _cmd_sweep(args) -> int:
    from repro.core.sweep import PAPER_GRID
    from repro.experiments.sweeps import run_paper_sweep

    grid = tuple(args.grid) if args.grid else PAPER_GRID

    def progress(done, total, result):
        print(f"\r[{done}/{total}] cells complete", end="", flush=True)

    sweep = run_paper_sweep(
        vcpu_fleets=tuple(args.vcpus),
        episodes=args.episodes,
        seed=args.seed,
        grid=grid,
        workers=args.workers,
        timing=args.timing,
        progress=progress,
    )
    print()
    print(sweep.render_table2())
    print()
    print(sweep.render_table3())
    return 0


def _cmd_ensemble(args) -> int:
    from repro.util.tables import render_table
    from repro.workflows.ensembles import run_ensemble_campaign

    results = run_ensemble_campaign(
        args.instances,
        n_activations=args.size,
        vcpus=args.vcpus,
        episodes=args.episodes,
        seed=args.seed,
        workers=args.workers,
    )
    print(render_table(
        ["member", "workflow", "seed", "simulated makespan [s]"],
        [(r.member, r.workflow_name, r.seed, round(r.simulated_makespan, 2))
         for r in results],
        title=(f"Ensemble campaign: {args.instances} x {args.size} "
               f"activations on {args.vcpus} vCPUs"),
    ))
    return 0


def _cmd_serve(args) -> int:
    import json as _json

    from repro.service import (
        SchedulerService,
        ServiceConfig,
        load_trace,
        reference_scenario,
        run_service_replicas,
        save_trace,
    )
    from repro.util.tables import format_hms, render_table

    if args.trace:
        with _path_arg("--trace", args.trace, "read"):
            arrivals = load_trace(args.trace)
    else:
        arrivals = reference_scenario(
            seed=args.seed,
            n_tenants=args.tenants,
            n_jobs=args.jobs,
            rate=args.rate,
            workflow=args.workflow,
            size=args.size,
            relative_deadline=args.deadline,
        )
    if args.trace_out:
        schedule = arrivals.schedule()
        with _path_arg("--trace-out", args.trace_out, "write"):
            save_trace(schedule, args.trace_out)
        print(f"wrote arrival trace to {args.trace_out}")
    config = ServiceConfig(
        vcpus=args.vcpus,
        policy=args.policy,
        max_in_flight=args.max_in_flight,
        horizon=args.horizon,
    )

    if args.replicas > 1:
        metrics = run_service_replicas(
            args.replicas, arrivals, config,
            seed=args.seed, workers=args.workers,
        )
        rows = []
        for i, text in enumerate(metrics):
            m = _json.loads(text)
            rows.append((
                i, m["n_jobs"], round(m["end_time"], 1),
                round(m["utilization"], 3),
                round(m["p50_latency"], 1), round(m["p99_latency"], 1),
            ))
        print(render_table(
            ["replica", "jobs", "end [s]", "util", "p50 [s]", "p99 [s]"],
            rows,
            title=(f"Service replicas: policy={args.policy} "
                   f"vcpus={args.vcpus} seed={args.seed}"),
        ))
        if args.metrics_out:
            text = _json.dumps(
                [_json.loads(t) for t in metrics], sort_keys=True, indent=1,
            ) + "\n"
            with _path_arg("--metrics-out", args.metrics_out, "write"):
                with open(args.metrics_out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            print(f"wrote replica metrics to {args.metrics_out}")
        return 0

    result = SchedulerService(arrivals, config, seed=args.seed).run()
    print(f"policy={args.policy} vcpus={args.vcpus} seed={args.seed} "
          f"tenants={len(result.tenants)}")
    print(f"jobs completed    = {result.n_jobs} "
          f"({result.n_failed} failed)")
    print(f"simulated horizon = {result.end_time:.1f}s "
          f"({format_hms(result.end_time)})")
    print(f"throughput        = {result.throughput_jobs():.4f} jobs/s, "
          f"{result.throughput_activations():.2f} activations/s (simulated)")
    print(f"fleet utilization = {100.0 * result.utilization():.1f}%")
    print(f"job latency       = p50 {result.latency_percentile(50):.1f}s, "
          f"p99 {result.latency_percentile(99):.1f}s, "
          f"mean {result.mean_latency():.1f}s")
    hit_rate = result.deadline_hit_rate()
    if hit_rate is not None:
        print(f"deadline hit rate = {100.0 * hit_rate:.1f}%")
    tenant_rows = [
        (name, int(stats["jobs"]),
         round(stats.get("mean_latency", 0.0), 1),
         round(stats.get("p99_latency", 0.0), 1))
        for name, stats in result.tenant_summary().items()
    ]
    print(render_table(
        ["tenant", "jobs", "mean latency [s]", "p99 latency [s]"],
        tenant_rows,
    ))
    if args.metrics_out:
        text = result.to_json(include_jobs=True) + "\n"
        with _path_arg("--metrics-out", args.metrics_out, "write"):
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(text)
        print(f"wrote metrics to {args.metrics_out}")
    return 0 if result.n_failed == 0 else 1


def _cmd_reproduce(args) -> int:
    from repro.experiments.report import generate_report

    report = generate_report(args.out, episodes=args.episodes, seed=args.seed,
                             workers=args.workers)
    print(report.read_text())
    print(f"artifacts written to {args.out}/")
    return 0


def _horizon_exceeded() -> type[HorizonExceeded]:
    # called from an ``except`` clause, which evaluates it only once a
    # command has raised, so a command that never loads the kernel never
    # imports it
    from repro.sim.kernel import HorizonExceeded

    return HorizonExceeded


def _runner_error() -> type[RunnerError]:
    # like _horizon_exceeded: imports the runner only once a command has
    # raised
    from repro.runner.parallel import RunnerError

    return RunnerError


_COMMANDS = {
    "workflow": _cmd_workflow,
    "simulate": _cmd_simulate,
    "learn": _cmd_learn,
    "pipeline": _cmd_pipeline,
    "table": _cmd_table,
    "sweep": _cmd_sweep,
    "ensemble": _cmd_ensemble,
    "serve": _cmd_serve,
    "reproduce": _cmd_reproduce,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Invalid input (a :class:`ValidationError` from any layer, a path
    that cannot be read or written) is reported like a bad argument:
    usage, the message, exit code 2.  A run that overruns its simulated
    horizon prints a one-line error and exits 2 too.  Runner tasks that
    all failed one of these two ways count as the command failing that
    way (:func:`_task_failure`).  Internal faults (a deadlock included)
    keep their tracebacks.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            return _COMMANDS[args.command](args)
        except _runner_error() as exc:
            failure = _task_failure(exc)
            if failure is None:
                raise
            raise failure from None
    except ValidationError as exc:
        parser.error(str(exc))
    except _horizon_exceeded() as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
