"""Span recorder and layer wrappers for the traced benchmark mode.

The recorder keeps every span in memory as four parallel arrays (name id,
parent index, start, end) and computes self time -- span duration minus
the time covered by its child spans -- once the run ends.  Spans are
recorded only around the public functions listed in ``TARGETS``; the
wrappers are installed from here, never inside ``src/``, and
:meth:`Tracer.uninstall` puts every original back.

Installation patches each target on its defining module or class and on
every loaded ``repro`` module that imported the same function object by
name, so ``from repro.x import f`` call sites are traced too.  Calls made
through other references (a dict of functions, a bound method taken
before installation) are not seen.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: ``tally(tallies, captures, args, result)`` runs after a traced call.
Tally = Callable[[Dict[str, int], List[Any], tuple, Any], None]


def _count(name: str, n: Callable[[tuple, Any], int]) -> Tally:
    def tally(tallies, _captures, args, result):
        tallies[name] = tallies.get(name, 0) + n(args, result)

    return tally


def _greedy_replay(tallies, _captures, args, _result):
    # run_episode(self, scheduler, seed): a non-learning scheduler is the
    # pure-exploitation replay that extracts a plan
    if getattr(args[1], "learning", True) is False:
        tallies["core.greedy_replays"] = tallies.get("core.greedy_replays", 0) + 1


def _qtable_json(tallies, _captures, args, result):
    tallies["rl.qtable_json_bytes"] = tallies.get("rl.qtable_json_bytes", 0) + len(result)
    tallies["rl.qtable_entries"] = tallies.get("rl.qtable_entries", 0) + len(args[0])


def _runner_batch(_tallies, captures, args, result):
    # ParallelRunner.run(self, tasks): keep both for size accounting after
    # the timed region (pickling here would inflate the traced wall time)
    captures.append((args[0], list(args[1]), result))


#: (module, attribute path, span name, tally).  One span name may cover
#: several functions; a call nested directly inside a span of the same
#: name is not recorded again (``montage`` called by ``make_workflow``).
TARGETS: List[Tuple[str, str, str, Optional[Tally]]] = [
    ("repro.workflows.registry", "make_workflow", "workflows.build", None),
    ("repro.workflows.montage", "montage", "workflows.build", None),
    ("repro.sim.kernel", "EpisodeKernel.__init__", "sim.kernel_build", None),
    ("repro.sim.kernel", "kernel_fingerprint", "sim.kernel_fingerprint", None),
    ("repro.sim.kernel", "EpisodeKernel.run_episode", "sim.run_episode", _greedy_replay),
    ("repro.core.batch", "learn_batch", "core.learn", _count("core.learn_runs", lambda a, r: len(r))),
    ("repro.core.reassign", "ReassignLearner.learn", "core.learn", _count("core.learn_runs", lambda a, r: 1)),
    ("repro.core.reassign", "ReassignScheduler.select", "core.select", None),
    ("repro.core.reassign", "ReassignScheduler.on_dispatched", "core.dispatch_update", None),
    ("repro.rl.policy", "EpsilonGreedyPolicy.choose", "rl.choose", None),
    ("repro.rl.reward", "PerformanceReward.step", "rl.reward", None),
    ("repro.rl.qtable", "QTable.value", "rl.qtable", None),
    ("repro.rl.qtable", "QTable.max_value", "rl.qtable", None),
    ("repro.rl.qtable", "QTable.best_action", "rl.qtable", None),
    ("repro.rl.qtable", "QTable.add", "rl.qtable", None),
    ("repro.rl.qtable", "QTable.to_json", "rl.qtable_json", _qtable_json),
    ("repro.runner.parallel", "ParallelRunner.run", "runner.run", _runner_batch),
    ("repro.schedulers.heft", "HeftScheduler.plan", "schedulers.heft_plan", None),
    ("repro.scicumulus.xml_spec", "workflow_to_xml", "scicumulus.xml", None),
    ("repro.scicumulus.xml_spec", "workflow_from_xml", "scicumulus.xml", None),
    ("repro.scicumulus.cloud", "SimulatedCloud.deploy", "scicumulus.deploy", None),
    ("repro.scicumulus.mpi_sim", "MpiExecutionEngine.run", "scicumulus.mpi_run", None),
    ("repro.scicumulus.provenance", "ProvenanceStore.record_learning_run", "scicumulus.provenance", None),
    ("repro.scicumulus.provenance", "ProvenanceStore.record_execution", "scicumulus.provenance", None),
    ("repro.service.arrivals", "TraceArrivals.__init__", "service.arrivals", None),
    ("repro.service.arrivals", "TraceArrivals.schedule", "service.arrivals", None),
    ("repro.service.timeline", "FleetTimeline.run", "service.timeline", None),
    ("repro.service.policies", "FifoPolicy.select", "service.select", None),
    ("repro.service.policies", "FairSharePolicy.select", "service.select", None),
    ("repro.service.policies", "DeadlinePolicy.select", "service.select", None),
    ("repro.service.policies", "SchedulingPolicy.admit_index", "service.admit", None),
    ("repro.service.policies", "FairSharePolicy.admit_index", "service.admit", None),
    ("repro.service.policies", "DeadlinePolicy.admit_index", "service.admit", None),
    ("repro.service.metrics", "ServiceResult.to_json", "service.metrics_json", None),
]


class SpanRecorder:
    """In-memory spans: name, start, end and parent, written out at the end."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self.tallies: Dict[str, int] = {}
        self.captures: List[Any] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def current(self) -> int:
        """Name id of the innermost open span, or -1."""
        return self.name[self._stack[-1]] if self._stack else -1

    def open(self, nid: int) -> int:
        index = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself."""
        index = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(index)

    def summary(self) -> Tuple[Dict[str, int], Dict[str, float], Dict[str, float]]:
        """Per-name span counts, summed self seconds and summed durations."""
        n = len(self.name)
        if n == 0:
            return {}, {}, {}
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested], minlength=n)
        self_time = duration - child_time
        k = len(self.names)
        counts = np.bincount(names, minlength=k)
        seconds = np.bincount(names, weights=self_time, minlength=k)
        totals = np.bincount(names, weights=duration, minlength=k)
        return (
            {name: int(counts[i]) for i, name in enumerate(self.names)},
            {name: float(seconds[i]) for i, name in enumerate(self.names)},
            {name: float(totals[i]) for i, name in enumerate(self.names)},
        )

    def write_json(self, path) -> None:
        """Columnar span dump; times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        payload = {
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "start": [round(t - t0, 7) for t in self.start],
            "end": [round(t - t0, 7) for t in self.end],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _traced(fn: Callable, recorder: SpanRecorder, name: str, tally: Optional[Tally]) -> Callable:
    nid = recorder.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if recorder.current() == nid:
            return fn(*args, **kwargs)
        index = recorder.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if tally is not None:
            tally(recorder.tallies, recorder.captures, args, result)
        return result

    return wrapper


#: the runner alone: its captures come back from pool workers too
RUNNER_TARGETS = [t for t in TARGETS if t[2] == "runner.run"]


class Tracer:
    """Installs the wrappers of ``targets`` (default ``TARGETS``) around one
    recorder, and removes them."""

    def __init__(self, recorder: SpanRecorder, targets=None) -> None:
        self.recorder = recorder
        self.targets = TARGETS if targets is None else targets
        self._undo: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        if self._undo:
            raise RuntimeError("tracer already installed")
        for module_name, path, name, tally in self.targets:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, _traced(original, self.recorder, name, tally))
                continue
            original = getattr(module, path)
            wrapped = _traced(original, self.recorder, name, tally)
            for key, mod in sorted(sys.modules.items()):
                if mod is None or not (key == "repro" or key.startswith("repro.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()
