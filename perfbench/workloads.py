"""The three benchmark workloads and their output-correctness gates.

Each workload builds its inputs from a seed (``build_inputs``), runs the
timed user path once (``run``) and checks what that run produced
(``evaluate``).  ``evaluate`` applies structural invariants on every seed
and, where ``digests.json`` records one, compares the digest of the
deterministic outputs; either failure counts the affected operations as
failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

#: ``span(name)`` -> context manager; the traced mode passes the
#: recorder's, the untraced mode a no-op.
SpanFactory = Callable[[str], Any]


def no_span(_name: str):
    return contextlib.nullcontext()


def _mod(name: str):
    # module attributes are read at call time so the tracer's wrappers,
    # when installed, are the ones called
    return importlib.import_module(name)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Checked:
    """What one timed run produced, as the gate saw it."""

    ops: int  #: operations attempted (cells, pipeline runs or jobs)
    failed: int  #: operations that raised, did not finish or failed a check
    decisions: int  #: activation dispatches counted from the outputs
    episodes: int  #: simulated workflow runs counted from the outputs
    digest: str  #: digest of the deterministic outputs
    problems: List[str] = field(default_factory=list)
    learn_times: List[float] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)  #: per-layer counts from outputs


def _precedence_problems(edges, start, finish, where: str) -> List[str]:
    return [
        f"{where}: activation {child} started before parent {parent} finished"
        for parent, child in edges
        if finish[parent] > start[child]
    ]


def _apply_digest(checked: Checked, expected: Optional[str]) -> Checked:
    if expected is not None and checked.digest != expected:
        checked.problems.append(
            f"output digest {checked.digest[:16]} != recorded {expected[:16]}"
        )
        checked.failed = checked.ops
    return checked


# -- paper_grid ----------------------------------------------------------------


class PaperGrid:
    """Tables II/III: ``run_paper_sweep`` over 3 fleets x 27 cells x 100 episodes."""

    name = "paper_grid"
    uses_workers = True

    def __init__(self, scale: str) -> None:
        if scale == "paper":
            self.fleets: Tuple[int, ...] = (16, 32, 64)
            self.grid: Tuple[float, ...] = (0.1, 0.5, 1.0)
            self.episodes = 100
        else:
            self.fleets, self.grid, self.episodes = (16,), (0.1, 1.0), 3
        self.n_activations = 50
        self.ops = len(self.fleets) * len(self.grid) ** 3

    def build_inputs(self, seed: int, span: SpanFactory = no_span) -> Dict[str, Any]:
        registry = _mod("repro.workflows.registry")
        workflow = registry.make_workflow("montage", self.n_activations, seed=seed)
        environments = _mod("repro.experiments.environments")
        fleets = {v: environments.fleet_for(v) for v in self.fleets}
        return {"seed": seed, "workflow": workflow, "fleets": fleets}

    def input_digest(self, inputs) -> str:
        xml = _mod("repro.scicumulus.xml_spec").workflow_to_xml(inputs["workflow"])
        return _sha(json.dumps([xml, sorted(inputs["fleets"])]))

    def run(self, inputs, workers: int):
        return _mod("repro.experiments.sweeps").run_paper_sweep(
            inputs["workflow"],
            vcpu_fleets=self.fleets,
            episodes=self.episodes,
            seed=inputs["seed"],
            grid=self.grid,
            workers=workers,
            timing="wall",
            batch=8,
        )

    def evaluate(self, inputs, sweep, expected: Optional[str]) -> Checked:
        workflow = inputs["workflow"]
        ids = set(workflow.activation_ids)
        edges = workflow.edges
        n_cells = self.ops
        checked = Checked(ops=n_cells, failed=0, decisions=0, episodes=0, digest="")
        digest = hashlib.sha256()
        bad_cells = 0
        for vcpus in self.fleets:
            vm_ids = {vm.id for vm in inputs["fleets"][vcpus]}
            records = sweep.records.get(vcpus, [])
            if len(records) != len(self.grid) ** 3:
                checked.problems.append(f"{vcpus} vCPUs: {len(records)} cells")
                bad_cells += abs(len(self.grid) ** 3 - len(records))
            for rec in records:
                result = rec.result
                where = f"cell {vcpus}/{rec.params}"
                problems = []
                steps = [e.steps for e in result.episodes]
                if len(steps) != self.episodes:
                    problems.append(f"{where}: {len(steps)} episodes")
                if any(s != self.n_activations for s in steps):
                    problems.append(f"{where}: an episode did not dispatch every activation")
                if any(e.final_state != "successfully finished" for e in result.episodes):
                    problems.append(f"{where}: an episode did not finish")
                plan = result.plan
                if set(plan.assignment) != ids or not set(plan.assignment.values()) <= vm_ids:
                    problems.append(f"{where}: plan does not place every activation once on the fleet")
                if sorted(plan.priority) != sorted(ids):
                    problems.append(f"{where}: plan order is not a permutation")
                else:
                    rank = {a: i for i, a in enumerate(plan.priority)}
                    problems += _precedence_problems(edges, rank, rank, where)
                if not (math.isfinite(rec.simulated_makespan) and rec.simulated_makespan > 0):
                    problems.append(f"{where}: makespan {rec.simulated_makespan}")
                if problems:
                    bad_cells += 1
                    checked.problems += problems
                checked.decisions += sum(steps)
                checked.episodes += len(steps)
                checked.learn_times.append(rec.learning_time)
                digest.update(
                    json.dumps(
                        [vcpus, list(rec.params), result.qtable_json, plan.to_json(),
                         repr(rec.simulated_makespan)]
                    ).encode("utf-8")
                )
        checked.failed = min(n_cells, bad_cells)
        checked.digest = digest.hexdigest()
        checked.counts = {"core.decisions": checked.decisions}
        return _apply_digest(checked, expected)


# -- montage_pipeline ------------------------------------------------------------


class MontagePipeline:
    """Table IV: HEFT + 3 ReASSIgN runs per fleet, learn -> plan -> execute."""

    name = "montage_pipeline"
    uses_workers = False

    def __init__(self, scale: str) -> None:
        if scale == "paper":
            self.fleets: Tuple[int, ...] = (16, 32, 64)
            self.episodes = 100
        else:
            self.fleets, self.episodes = (16,), 3
        self.n_activations = 50
        self.ops = 4 * len(self.fleets)  # HEFT + three ReASSIgN runs per fleet

    def build_inputs(self, seed: int, span: SpanFactory = no_span) -> Dict[str, Any]:
        registry = _mod("repro.workflows.registry")
        workflow = registry.make_workflow("montage", self.n_activations, seed=seed)
        environments = _mod("repro.experiments.environments")
        specs = {v: environments.fleet_spec_for(v) for v in self.fleets}
        label = _mod("repro.scicumulus.swfms").fleet_label
        # provenance names an execution's fleet by its label; deploy numbers
        # the VMs as fleet_for does (micros first, from 0)
        fleet_vms = {
            label(specs[v]): {vm.id for vm in environments.fleet_for(v)} for v in self.fleets
        }
        return {"seed": seed, "workflow": workflow, "fleet_specs": specs, "fleet_vms": fleet_vms}

    def input_digest(self, inputs) -> str:
        xml = _mod("repro.scicumulus.xml_spec").workflow_to_xml(inputs["workflow"])
        return _sha(json.dumps([xml, sorted(inputs["fleet_specs"].items())]))

    def run(self, inputs, workers: int):
        store = _mod("repro.scicumulus.provenance").ProvenanceStore()
        rows = _mod("repro.experiments.table4").run_table4(
            inputs["workflow"],
            vcpu_fleets=self.fleets,
            episodes=self.episodes,
            seed=inputs["seed"],
            provenance=store,
        )
        return rows, store

    def evaluate(self, inputs, output, expected: Optional[str]) -> Checked:
        rows, store = output
        try:
            return _apply_digest(self._check(inputs, rows, store), expected)
        finally:
            store.close()

    def _check(self, inputs, rows, store) -> Checked:
        workflow = inputs["workflow"]
        ids = sorted(workflow.activation_ids)
        edges = workflow.edges
        n_runs = self.ops
        checked = Checked(ops=n_runs, failed=0, decisions=0, episodes=0, digest="")
        bad = 0
        if len(rows) != n_runs:
            checked.problems.append(f"{len(rows)} Table IV rows, expected {n_runs}")
            bad += abs(n_runs - len(rows))
        for row in rows:
            if not (math.isfinite(row.total_execution_time) and row.total_execution_time > 0):
                checked.problems.append(f"row {row}: bad execution time")
                bad += 1
        executions = store.executions()
        for execution in executions:
            where = f"execution {execution.id} ({execution.scheduler}, {execution.fleet})"
            activations = store.activation_rows(execution.id)
            # (execution_id, activation_id, activity, vm_id, ready, start, finish, attempts, failed)
            problems = []
            if [a[1] for a in activations] != ids or any(a[8] for a in activations):
                problems.append(f"{where}: not every activation ran exactly once")
            vm_ids = inputs["fleet_vms"].get(execution.fleet, set())
            if any(a[3] not in vm_ids for a in activations):
                problems.append(f"{where}: activation on a VM outside the fleet")
            if execution.final_state != "successfully finished":
                problems.append(f"{where}: {execution.final_state}")
            start = {a[1]: a[5] for a in activations}
            finish = {a[1]: a[6] for a in activations}
            if not problems:
                problems += _precedence_problems(edges, start, finish, where)
            if problems:
                bad += 1
                checked.problems += problems
            checked.decisions += len(activations)
        if len(executions) != n_runs:
            checked.problems.append(f"{len(executions)} recorded executions, expected {n_runs}")
            bad += abs(n_runs - len(executions))
        learning = store.learning_runs()
        learn_decisions = 0
        for run_id, *_rest, learning_time, _makespan in learning:
            # the store has no public reader for the episode log
            (payload,) = store._conn.execute(
                "SELECT payload FROM learning_runs WHERE id = ?", (run_id,)
            ).fetchone()
            episodes = json.loads(payload)["episodes"]
            steps = [e["steps"] for e in episodes]
            if len(steps) != self.episodes or any(s != self.n_activations for s in steps):
                checked.problems.append(f"learning run {run_id}: incomplete episodes")
                bad += 1
            learn_decisions += sum(steps)
            checked.episodes += len(steps)
            checked.learn_times.append(learning_time)
        if len(learning) != 3 * len(self.fleets):
            checked.problems.append(f"{len(learning)} learning runs recorded")
            bad += 1
        checked.decisions += learn_decisions
        checked.failed = min(n_runs, bad)
        checked.digest = _sha(
            json.dumps(
                [
                    [r.algorithm, r.vcpus, r.alpha, r.gamma, r.epsilon,
                     repr(r.total_execution_time), repr(r.cost)]
                    for r in rows
                ]
            )
        )
        checked.counts = {"core.decisions": learn_decisions}
        return checked


# -- serve_stream ----------------------------------------------------------------

#: (tenant, arrival weight, relative deadline in simulated seconds)
TENANTS: Tuple[Tuple[str, float, float], ...] = (
    ("tenant-a", 3.0, 900.0),
    ("tenant-b", 2.0, 1800.0),
    ("tenant-c", 1.0, 3600.0),
)

#: workflow families and the DAG sizes each can build in 20..30
FAMILIES: Tuple[Tuple[str, Tuple[int, ...]], ...] = (
    ("montage", tuple(range(20, 31))),
    ("cybershake", tuple(range(20, 31))),
    ("epigenomics", tuple(range(20, 31, 2))),
)

# The 16-vCPU fleet serves about 0.033 jobs per simulated second of this
# mix, so bursts arrive near twice its capacity and lulls near a third:
# the backlog builds in each burst and drains in the lull after it.
BURST_RATE = 0.06  #: arrivals per simulated second in a burst
LULL_RATE = 0.01  #: arrivals per simulated second in a lull
BURST_LEN = 2000.0  #: simulated seconds per burst
LULL_LEN = 5000.0  #: simulated seconds per lull


def bursty_trace(seed: int, n_jobs: int):
    """A seeded on/off arrival trace for the 16-vCPU fleet."""
    jobs_mod = _mod("repro.service.jobs")
    derive_seed = _mod("repro.util.rng").derive_seed
    rng = np.random.default_rng([seed, 0x5E2E])
    weights = np.array([t[1] for t in TENANTS])
    weights = weights / weights.sum()
    jobs: List[Any] = []
    now, bursting = 0.0, True
    phase_end = BURST_LEN
    while len(jobs) < n_jobs:
        gap = float(rng.exponential(1.0 / (BURST_RATE if bursting else LULL_RATE)))
        if now + gap > phase_end:
            # memoryless: restart the draw at the phase boundary
            now, bursting = phase_end, not bursting
            phase_end = now + (BURST_LEN if bursting else LULL_LEN)
            continue
        now += gap
        tenant, _weight, relative_deadline = TENANTS[int(rng.choice(len(TENANTS), p=weights))]
        family, sizes = FAMILIES[int(rng.integers(len(FAMILIES)))]
        job_id = len(jobs)
        jobs.append(
            jobs_mod.Job(
                job_id=job_id,
                tenant=tenant,
                workflow=family,
                size=int(sizes[int(rng.integers(len(sizes)))]),
                arrival_time=now,
                workflow_seed=derive_seed(seed, f"job:{job_id}"),
                deadline=now + relative_deadline,
            )
        )
    return jobs


def job_problems(job, workflow, records, vm_ids) -> List[str]:
    """Structural problems of one retired job's activation records."""
    where = f"job {job.job_id}"
    problems = []
    placed = sorted(r.activation_id for r in records)
    if placed != sorted(workflow.activation_ids) or any(r.failed for r in records):
        problems.append(f"{where}: not every activation placed exactly once")
    if any(r.vm_id not in vm_ids for r in records):
        problems.append(f"{where}: activation on an unknown VM")
    if not problems:
        start = {r.activation_id: r.start_time for r in records}
        finish = {r.activation_id: r.finish_time for r in records}
        problems += _precedence_problems(workflow.edges, start, finish, where)
    return problems


@dataclass
class RetireAudit:
    """Verdicts of the per-job checks made as each job retires."""

    retired: int = 0
    dispatches: int = 0
    bad_jobs: Set[int] = field(default_factory=set)
    problems: List[str] = field(default_factory=list)


class ServeStream:
    """A bursty multi-tenant trace replayed through ``SchedulerService`` (fair share)."""

    name = "serve_stream"
    uses_workers = False

    def __init__(self, scale: str) -> None:
        self.n_jobs = 1000 if scale == "paper" else 40
        self.vcpus = 16
        self.ops = self.n_jobs

    def build_inputs(self, seed: int, span: SpanFactory = no_span) -> Dict[str, Any]:
        with span("service.arrivals"):
            jobs = bursty_trace(seed, self.n_jobs)
            arrivals = _mod("repro.service.arrivals").TraceArrivals(jobs)
        fleet = _mod("repro.experiments.environments").fleet_for(self.vcpus)
        return {"seed": seed, "arrivals": arrivals, "vm_ids": {vm.id for vm in fleet}}

    def input_digest(self, inputs) -> str:
        arrivals = _mod("repro.service.arrivals")
        return _sha(arrivals.schedule_to_json(inputs["arrivals"].schedule()))

    def run(self, inputs, workers: int):
        service = _mod("repro.service.service")
        timeline_cls = _mod("repro.service.timeline").FleetTimeline
        audit = RetireAudit()
        retire = timeline_cls.__dict__["_retire"]
        vm_ids = inputs["vm_ids"]

        def observed_retire(timeline, run):
            problems = job_problems(run.job, run.workflow, run.records, vm_ids)
            if problems:
                audit.bad_jobs.add(run.job.job_id)
                audit.problems += problems
            audit.retired += 1
            audit.dispatches += len(run.records)
            return retire(timeline, run)

        # check each job's per-activation records as it retires and keep
        # only the verdict: the service frees the records there, and its
        # result keeps only per-job summaries
        timeline_cls._retire = observed_retire
        try:
            result = service.SchedulerService(
                inputs["arrivals"],
                service.ServiceConfig(vcpus=self.vcpus, policy="fair"),
                seed=inputs["seed"],
            ).run()
        finally:
            timeline_cls._retire = retire
        metrics_json = result.to_json(include_jobs=True)
        return result, metrics_json, audit

    def evaluate(self, inputs, output, expected: Optional[str]) -> Checked:
        result, metrics_json, audit = output
        checked = Checked(ops=self.n_jobs, failed=0, decisions=audit.dispatches,
                          episodes=0, digest=_sha(metrics_json))
        bad = set(audit.bad_jobs)
        missing = max(0, self.n_jobs - min(len(result.jobs), audit.retired))
        if missing:
            checked.problems.append(f"{len(result.jobs)} of {self.n_jobs} jobs reported")
        for rec in result.jobs:
            if rec.failed or rec.n_activations != rec.size or not (
                rec.arrival_time <= rec.admit_time <= rec.first_dispatch_time
                <= rec.completion_time
            ):
                checked.problems.append(f"job {rec.job_id}: bad record {rec}")
                bad.add(rec.job_id)
        checked.problems += audit.problems
        checked.failed = min(self.n_jobs, len(bad) + missing)
        checked.episodes = len(result.jobs)
        checked.counts = {
            "service.activations": result.n_activations,
            "service.peak_in_flight": peak_in_flight(result.jobs),
        }
        return _apply_digest(checked, expected)


def peak_in_flight(jobs: Sequence[Any]) -> int:
    """Most jobs admitted and not yet complete at one simulated instant."""
    events = sorted(
        [(r.admit_time, 1) for r in jobs] + [(r.completion_time, -1) for r in jobs]
    )  # at equal times a completion (-1) sorts before an admission
    peak = level = 0
    for _time, step in events:
        level += step
        peak = max(peak, level)
    return peak


WORKLOADS = {w.name: w for w in (PaperGrid, MontagePipeline, ServeStream)}
