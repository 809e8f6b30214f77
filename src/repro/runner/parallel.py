"""The parallel experiment runner.

Every campaign in this repository — the 81-run (α, γ, ε) × fleet sweep
behind Tables II/III, the ablation arms, the seed-sensitivity study and
workflow-ensemble campaigns — decomposes into *independent* simulation or
learning runs.  :class:`ParallelRunner` fans such runs out over a process
pool while keeping the results **bit-identical** to a serial execution:

- **Deterministic seeding.**  Each task either carries an explicit seed
  or receives one derived from ``(root seed, run id, task key)`` via
  :func:`repro.util.rng.derive_seed`.  The mapping depends only on the
  task's identity — never on worker count, scheduling order or wall
  clock — so adding workers cannot change any stochastic outcome.
- **Ordered collection.**  Results are returned in submission order
  regardless of completion order (:meth:`ParallelRunner.run`), or
  streamed in submission order as they become available
  (:meth:`ParallelRunner.imap`).
- **Failure and timing capture.**  Worker exceptions never kill the
  campaign: each :class:`TaskResult` records the traceback and the
  task's wall-clock duration, and a worker process that dies fails
  every task whose result had not come back yet.
  ``run(raise_on_error=True)`` (the default) re-raises a
  :class:`RunnerError` summarizing all failures after the whole batch
  has been collected.
- **Serial fallback.**  ``workers=1`` executes everything in-process
  through the *same* task-invocation code path — the debugging mode,
  and the reference the determinism tests compare against.

Task functions must be **picklable** (module-level functions) when
``workers > 1``; payloads and return values cross process boundaries, so
they must be picklable too.  Every experiment entry point in
``repro.experiments`` follows this contract.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.util.rng import derive_seed
from repro.util.validate import ValidationError

__all__ = [
    "Task",
    "TaskResult",
    "RunnerError",
    "ParallelRunner",
    "canonical_key",
    "task_seed",
    "host_cores",
    "resolve_workers",
    "active_kernel_fingerprint",
    "shared_kernel",
    "kernel_cache_stats",
    "clear_kernel_cache",
]

#: ``fn(payload, seed) -> value`` — the task-function contract.
TaskFn = Callable[[Any, int], Any]

#: ``progress(done, total, result)`` — invoked after every completion.
ProgressFn = Callable[[int, int, "TaskResult"], None]

#: ``(index, key, fn, payload, seed, kernel_fingerprint)`` — a task as
#: shipped to a worker.
PreparedTask = Tuple[int, Any, TaskFn, Any, int, Optional[str]]


def canonical_key(key: Any) -> str:
    """A stable string form of a task key.

    Tuples/lists are flattened recursively; floats use ``repr`` so that
    e.g. ``0.1`` and ``0.10000000000000001`` map to the same label iff
    they are the same float.  The result feeds :func:`derive_seed`, so it
    must not depend on ``PYTHONHASHSEED`` or insertion order — it never
    uses ``hash()``.
    """
    if isinstance(key, (tuple, list)):
        return "(" + ",".join(canonical_key(k) for k in key) + ")"
    if isinstance(key, float):
        return repr(key)
    if isinstance(key, (str, int, bool)) or key is None:
        return str(key)
    raise ValidationError(
        f"task keys must be built from str/int/float/bool/None/tuples, "
        f"got {type(key).__name__}"
    )


def task_seed(root_seed: int, run_id: str, key: Any) -> int:
    """The deterministic ``(run_id, task_key) -> seed`` mapping.

    Stable across processes, worker counts and Python versions (it is a
    SHA-256 of the canonical label, not ``hash()``).
    """
    return derive_seed(int(root_seed), f"task:{run_id}:{canonical_key(key)}")


def host_cores() -> int:
    """Usable CPU cores (affinity-aware where the platform supports it)."""
    getaff = getattr(os, "sched_getaffinity", None)
    if getaff is not None:
        try:
            return max(1, len(getaff(0)))
        except OSError:  # pragma: no cover - platform quirk
            pass
    return max(1, os.cpu_count() or 1)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count request.

    ``None`` reads the ``REPRO_WORKERS`` environment variable (defaulting
    to 1 — serial — so library behaviour never changes silently); ``0``
    or a negative count means "all usable cores" (:func:`host_cores`,
    which honours the CPU affinity mask).
    """
    if workers is None:
        raw = os.environ.get("REPRO_WORKERS", "").strip()
        workers = int(raw) if raw else 1
    workers = int(workers)
    if workers <= 0:
        workers = host_cores()
    return workers


@dataclass(frozen=True)
class Task:
    """One unit of independent work.

    Attributes
    ----------
    key:
        Stable identity of the task (hashable scalars/tuples).  Used for
        seed derivation and for labelling results — it must be unique
        within a batch.
    fn:
        Module-level callable invoked as ``fn(payload, seed)``.
    payload:
        Arbitrary picklable argument.
    seed:
        Explicit seed.  ``None`` lets the runner derive one from
        ``(root seed, run id, key)``.
    kernel_fingerprint:
        Optional structural digest of the simulation kernel the task
        will build (see :func:`repro.sim.kernel.kernel_fingerprint`).
        While the task runs, the digest is visible to the task body via
        :func:`active_kernel_fingerprint`; consumers that recognize it
        (e.g. :class:`~repro.core.reassign.ReassignLearner`) fetch their
        kernel from the worker's :func:`shared_kernel` cache, so a batch
        of tasks against the same configuration builds the kernel at
        most once per worker process instead of once per task.  Purely
        an optimization hint: ``None`` (default) opts out, and results
        are bit-identical either way.
    """

    key: Any
    fn: TaskFn
    payload: Any = None
    seed: Optional[int] = None
    kernel_fingerprint: Optional[str] = None


@dataclass
class TaskResult:
    """Outcome of one task: value or error, plus timing provenance."""

    key: Any
    index: int  #: position in the submitted batch
    value: Any = None
    error: Optional[str] = None  #: formatted traceback when the task raised
    duration: float = 0.0  #: wall-clock seconds inside the worker
    seed: int = 0  #: the seed the task actually ran with
    worker: int = 0  #: PID of the executing process

    @property
    def ok(self) -> bool:
        return self.error is None


class RunnerError(RuntimeError):
    """One or more tasks failed; carries every failed :class:`TaskResult`."""

    def __init__(self, failures: Sequence[TaskResult]) -> None:
        self.failures = list(failures)
        heads = []
        for f in self.failures[:3]:
            first_line = (f.error or "").strip().splitlines()[-1:]
            heads.append(f"{f.key!r}: {first_line[0] if first_line else '?'}")
        more = (
            f" (+{len(self.failures) - 3} more)" if len(self.failures) > 3 else ""
        )
        super().__init__(
            f"{len(self.failures)} task(s) failed — " + "; ".join(heads) + more
        )


# -- worker-side kernel cache ----------------------------------------------
#
# Module globals, so they live exactly as long as the worker process
# (with the default ``fork`` context each worker starts with an empty
# cache — the parent only ever *declares* fingerprints, it does not run
# tasks).  Bounded FIFO: sweeps interleave at most a few distinct
# configurations per batch.

_KERNEL_CACHE_LIMIT = 4
_KERNEL_CACHE: Dict[str, Any] = {}
_KERNEL_CACHE_BUILDS = 0
_KERNEL_CACHE_HITS = 0
_ACTIVE_KERNEL_FINGERPRINT: Optional[str] = None


def active_kernel_fingerprint() -> Optional[str]:
    """The ``kernel_fingerprint`` declared by the currently running task.

    ``None`` outside a task or when the task declared none.  Consumers
    must treat the value as a *hint* and verify it against their own
    recomputed fingerprint before adopting a shared kernel.
    """
    return _ACTIVE_KERNEL_FINGERPRINT


def shared_kernel(fingerprint: str, builder: Callable[[], Any]) -> Any:
    """This process's kernel for ``fingerprint``, building it on miss.

    The cache is keyed purely by the structural digest, so a hit is
    guaranteed to be a kernel an identically-configured task built.
    """
    global _KERNEL_CACHE_BUILDS, _KERNEL_CACHE_HITS
    kernel = _KERNEL_CACHE.get(fingerprint)
    if kernel is None:
        kernel = builder()
        if len(_KERNEL_CACHE) >= _KERNEL_CACHE_LIMIT:
            _KERNEL_CACHE.pop(next(iter(_KERNEL_CACHE)))
        _KERNEL_CACHE[fingerprint] = kernel
        _KERNEL_CACHE_BUILDS += 1
    else:
        _KERNEL_CACHE_HITS += 1
    return kernel


def kernel_cache_stats() -> Dict[str, int]:
    """This process's kernel-cache counters (for tests/diagnostics)."""
    return {
        "size": len(_KERNEL_CACHE),
        "builds": _KERNEL_CACHE_BUILDS,
        "hits": _KERNEL_CACHE_HITS,
    }


def clear_kernel_cache() -> None:
    """Drop this process's cached kernels and reset the counters."""
    global _KERNEL_CACHE_BUILDS, _KERNEL_CACHE_HITS
    _KERNEL_CACHE.clear()
    _KERNEL_CACHE_BUILDS = 0
    _KERNEL_CACHE_HITS = 0


def _execute_one(
    index: int,
    key: Any,
    fn: TaskFn,
    payload: Any,
    seed: int,
    kernel_fingerprint: Optional[str] = None,
) -> TaskResult:
    """Run one task, capturing result/error and timing.

    This is the single invocation path shared by the serial mode and the
    pool workers — the determinism guarantee depends on there being no
    behavioural difference between the two.
    """
    global _ACTIVE_KERNEL_FINGERPRINT
    started = time.perf_counter()
    _ACTIVE_KERNEL_FINGERPRINT = kernel_fingerprint
    try:
        value = fn(payload, seed)
        error = None
    except Exception:  # noqa: BLE001 - reported via TaskResult
        value = None
        error = traceback.format_exc()
    finally:
        _ACTIVE_KERNEL_FINGERPRINT = None
    return TaskResult(
        key=key,
        index=index,
        value=value,
        error=error,
        duration=time.perf_counter() - started,
        seed=seed,
        worker=os.getpid(),
    )


def _execute_chunk(chunk: List[PreparedTask]) -> List[TaskResult]:
    """Worker-side entry point: run a chunk of tasks back to back."""
    return [_execute_one(*item) for item in chunk]


def _chunk_results(
    future: Future[List[TaskResult]], chunk: List[PreparedTask]
) -> List[TaskResult]:
    """A finished chunk's results, or one failure per task if it died.

    A worker process that dies mid-run (``os._exit``, a signal, the OOM
    killer) breaks the pool: every chunk not yet returned then ends in
    ``BrokenProcessPool``, with no traceback of its own.
    """
    try:
        return future.result()
    except BrokenProcessPool as exc:
        error = f"a pool worker process died before this task returned: {exc}"
        return [
            TaskResult(key=key, index=index, error=error, seed=seed)
            for index, key, _fn, _payload, seed, _fp in chunk
        ]


class ParallelRunner:
    """Fan independent tasks out over a process pool, deterministically.

    Parameters
    ----------
    workers:
        Process count.  ``1`` = serial in-process execution (the
        debugging/reference mode); ``0``/negative = all usable cores;
        ``None`` = the ``REPRO_WORKERS`` environment variable, defaulting
        to 1.
    run_id:
        Label namespacing derived task seeds — two campaigns with the
        same root seed but different run ids get independent seeds.
    seed:
        Root seed for derived task seeds (tasks with explicit seeds are
        unaffected).
    chunk_size:
        Tasks shipped to a worker per round trip.  Raise it when tasks
        are very short relative to pickling overhead.
    progress:
        Optional ``progress(done, total, result)`` callback, invoked in
        the parent process in *completion* order.
    mp_context:
        ``multiprocessing`` start-method name; default ``fork`` where
        available (fast, shares the loaded library image) else
        ``spawn``.  Override with the ``REPRO_MP_CONTEXT`` environment
        variable.

    Examples
    --------
    >>> def square(payload, seed):
    ...     return payload * payload
    >>> runner = ParallelRunner(workers=1, run_id="demo", seed=7)
    >>> [r.value for r in runner.run(
    ...     [Task(key=i, fn=square, payload=i) for i in range(4)])]
    [0, 1, 4, 9]
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        run_id: str = "run",
        seed: int = 0,
        chunk_size: int = 1,
        progress: Optional[ProgressFn] = None,
        mp_context: Optional[str] = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.run_id = str(run_id)
        self.seed = int(seed)
        if chunk_size < 1:
            raise ValidationError("chunk_size must be >= 1")
        self.chunk_size = int(chunk_size)
        self.progress = progress
        if mp_context is None:
            mp_context = os.environ.get("REPRO_MP_CONTEXT", "").strip() or None
        self._mp_context = mp_context

    # -- seeding -------------------------------------------------------------

    def seed_for(self, key: Any) -> int:
        """The seed a task with ``key`` (and no explicit seed) will get."""
        return task_seed(self.seed, self.run_id, key)

    def _prepare(self, tasks: Sequence[Task]) -> List[PreparedTask]:
        seen: Dict[str, Any] = {}
        prepared = []
        for index, t in enumerate(tasks):
            label = canonical_key(t.key)
            if label in seen:
                raise ValidationError(
                    f"duplicate task key {t.key!r} (canonical {label!r})"
                )
            seen[label] = t.key
            seed = t.seed if t.seed is not None else self.seed_for(t.key)
            prepared.append(
                (index, t.key, t.fn, t.payload, int(seed), t.kernel_fingerprint)
            )
        return prepared

    # -- execution -----------------------------------------------------------

    def run(
        self, tasks: Sequence[Task], *, raise_on_error: bool = True
    ) -> List[TaskResult]:
        """Execute every task; return results in submission order.

        With ``raise_on_error`` (default) a :class:`RunnerError` is
        raised after collection if any task failed; pass ``False`` to
        inspect per-task errors yourself.
        """
        results = list(self.imap(tasks))
        if raise_on_error:
            failures = [r for r in results if not r.ok]
            if failures:
                raise RunnerError(failures)
        return results

    def imap(self, tasks: Sequence[Task]) -> Iterator[TaskResult]:
        """Yield results in submission order as they become available.

        Like ``multiprocessing.Pool.imap``: lazy, ordered, chunked.  The
        progress callback still fires in completion order.
        """
        prepared = self._prepare(list(tasks))
        if not prepared:
            return
        if self.workers == 1:
            yield from self._imap_serial(prepared)
        else:
            yield from self._imap_pool(prepared)

    def map_values(
        self,
        fn: TaskFn,
        payloads: Iterable[Any],
        *,
        keys: Optional[Sequence[Any]] = None,
    ) -> List[Any]:
        """Convenience: run ``fn`` over payloads, return values in order.

        Keys default to the payload index.  Raises on any task failure.
        """
        payloads = list(payloads)
        if keys is None:
            keys = list(range(len(payloads)))
        tasks = [Task(key=k, fn=fn, payload=p) for k, p in zip(keys, payloads)]
        return [r.value for r in self.run(tasks)]

    # -- serial path ---------------------------------------------------------

    def _imap_serial(self, prepared) -> Iterator[TaskResult]:
        total = len(prepared)
        for done, item in enumerate(prepared, start=1):
            result = _execute_one(*item)
            if self.progress is not None:
                self.progress(done, total, result)
            yield result

    # -- pool path -----------------------------------------------------------

    def _make_executor(self) -> ProcessPoolExecutor:
        import multiprocessing as mp

        name = self._mp_context
        if name is None:
            name = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        return ProcessPoolExecutor(
            max_workers=self.workers, mp_context=mp.get_context(name)
        )

    def _imap_pool(self, prepared) -> Iterator[TaskResult]:
        total = len(prepared)
        chunks = [
            prepared[i : i + self.chunk_size]
            for i in range(0, total, self.chunk_size)
        ]
        with self._make_executor() as pool:
            pending = {pool.submit(_execute_chunk, c): c for c in chunks}
            buffered: Dict[int, TaskResult] = {}
            next_index = 0
            done_count = 0
            while pending:
                finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    for result in _chunk_results(future, pending.pop(future)):
                        done_count += 1
                        if self.progress is not None:
                            self.progress(done_count, total, result)
                        buffered[result.index] = result
                # stream everything contiguous from the front
                while next_index in buffered:
                    yield buffered.pop(next_index)
                    next_index += 1
            while next_index in buffered:  # pragma: no cover - defensive
                yield buffered.pop(next_index)
                next_index += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParallelRunner(workers={self.workers}, run_id={self.run_id!r}, "
            f"seed={self.seed}, chunk_size={self.chunk_size})"
        )
