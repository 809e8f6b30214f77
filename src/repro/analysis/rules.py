"""The reprolint rule set (RL001–RL007).

Each rule is a small AST pass over one file.  Rules receive a
:class:`FileContext` — the parsed tree plus an import-alias map and a
child→parent node map — and yield :class:`~repro.analysis.findings
.Finding` objects.  Rules restrict themselves to the code paths where
their invariant matters (see each rule's ``applies``): the determinism
contract documented in ``docs/runner.md`` covers the ``repro`` library,
not arbitrary scripts.

Why these rules exist
---------------------
The learning stage replays 100 simulated episodes per (α, γ, ε) cell and
the sweep fans them out over a process pool whose results must be
bit-identical to a serial run.  Global RNG state (RL001), wall-clock
reads (RL002), unordered-set iteration (RL003), unpicklable task
functions (RL004), backwards simulated time (RL005) and unsorted
directory listings (RL006) are exactly the defect classes that break
that guarantee *silently* — the run completes, the numbers are just
wrong.  RL007 is the one performance rule: it flags per-decision
rebuilds of the ready × idle cross product that the simulation context
already caches (``ctx.action_pairs``), the hot-loop regression class
this codebase keeps re-fixing.  ``docs/analysis.md`` documents each
rule with examples.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding

__all__ = [
    "FileContext",
    "Rule",
    "ALL_RULES",
    "RuleRL001",
    "RuleRL002",
    "RuleRL003",
    "RuleRL004",
    "RuleRL005",
    "RuleRL006",
    "RuleRL007",
]


def _norm(path: str) -> str:
    """Normalize to a ``/``-prefixed POSIX path for substring scoping."""
    p = path.replace("\\", "/")
    while p.startswith("./"):
        p = p[2:]
    return "/" + p


def in_library(path: str) -> bool:
    """True when ``path`` lies inside the ``repro`` package source."""
    return "/repro/" in _norm(path)


def in_subpackages(path: str, names: Sequence[str]) -> bool:
    """True when ``path`` is under ``repro/<name>/`` for any given name."""
    p = _norm(path)
    return in_library(path) and any(f"/{name}/" in p for name in names)


class FileContext:
    """Everything a rule needs about one parsed file."""

    def __init__(self, path: str, tree: ast.Module, source: str) -> None:
        self.path = path
        self.tree = tree
        self.source = source
        #: child node -> parent node, for wrap checks like ``sorted(...)``.
        self.parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
        self.aliases, self.imported_roots = _collect_imports(tree)

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain to a dotted module path.

        ``np.random.seed`` resolves to ``numpy.random.seed`` when the file
        has ``import numpy as np``; returns None for expressions that are
        not grounded in an import (locals shadowing a module name never
        trigger import-based rules).
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        if root not in self.aliases:
            return None
        parts.append(self.aliases[root])
        return ".".join(reversed(parts))

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
        )


def _collect_imports(tree: ast.Module) -> Tuple[Dict[str, str], Set[str]]:
    """Map locally-bound names to the dotted path they import.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from random import seed as s`` -> ``{"s": "random.seed"}``.
    """
    aliases: Dict[str, str] = {}
    roots: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[bound] = target
                roots.add(alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                aliases[bound] = f"{node.module}.{alias.name}"
                roots.add(node.module.split(".")[0])
    return aliases, roots


class Rule:
    """Base class: subclasses set ``code``/``summary`` and implement check."""

    code: str = ""
    summary: str = ""

    def applies(self, path: str) -> bool:
        return in_library(path)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for typing


# -- RL001: global random state -----------------------------------------------

#: Constructors of *local* generator objects — these are the remedy, not
#: the disease, so they are always allowed.
_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}
_STDLIB_RANDOM_ALLOWED = {"Random"}


class RuleRL001(Rule):
    """No global-state ``random.*`` / ``np.random.*`` calls in the library.

    Consuming the process-global stream couples unrelated components: a
    draw in a fluctuation model would shift which VM an ε-greedy policy
    explores.  Use :class:`repro.util.rng.RngService` /
    :func:`repro.util.rng.derive_seed`; constructing local generators
    (``np.random.default_rng(seed)``, ``random.Random(seed)``) is fine.
    """

    code = "RL001"
    summary = "global random state is forbidden; use RngService/derive_seed"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.resolve(node.func)
            if dotted is None:
                continue
            if dotted.startswith("random."):
                tail = dotted.split(".", 1)[1]
                if tail.split(".")[0] not in _STDLIB_RANDOM_ALLOWED:
                    yield ctx.finding(
                        node,
                        self.code,
                        f"call to global-state '{dotted}'; use "
                        "repro.util.rng.RngService (or a seeded "
                        "random.Random instance)",
                    )
            elif dotted.startswith("numpy.random."):
                tail = dotted.split(".")[2]
                if tail not in _NP_RANDOM_ALLOWED:
                    yield ctx.finding(
                        node,
                        self.code,
                        f"call to global-state '{dotted}'; use "
                        "repro.util.rng.RngService / "
                        "numpy.random.default_rng(derive_seed(...))",
                    )


# -- RL002: wall-clock reads ---------------------------------------------------

_BANNED_CLOCKS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


class RuleRL002(Rule):
    """No wall-clock reads inside simulation/learning code paths.

    Simulated components must take time from the event loop (``ctx.now``)
    or an injected clock callable (see
    :class:`repro.scicumulus.provenance.ProvenanceStore`); a wall-clock
    read makes two same-seed runs differ byte-for-byte.
    ``time.perf_counter`` is allowed: it only ever feeds *reported*
    wall-duration metrics (e.g. Table II learning time), never simulated
    state.
    """

    code = "RL002"
    summary = "wall-clock read in simulation/learning code; inject a clock"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.resolve(node.func)
            if dotted in _BANNED_CLOCKS:
                yield ctx.finding(
                    node,
                    self.code,
                    f"wall-clock read '{dotted}()'; inject a clock callable "
                    "(default: simulated/logical time) instead",
                )


# -- RL003: unordered set iteration -------------------------------------------


def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
    """Syntactic heuristic: does this expression produce a set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in {"set", "frozenset"}:
            return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub)
    ):
        # set algebra keeps set-ness: s1 | s2, s1 & s2, s1 - s2
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    return False


class _ScopeSetTracker(ast.NodeVisitor):
    """Collect, per lexical scope, names bound to set-valued expressions."""

    def __init__(self) -> None:
        self.iters: List[Tuple[ast.AST, ast.expr]] = []
        self._stack: List[Set[str]] = [set()]

    # scope management ------------------------------------------------------
    def _visit_scope(self, node: ast.AST) -> None:
        self._stack.append(set())
        self.generic_visit(node)
        self._stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_scope(node)

    # assignment tracking ---------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        names = self._stack[-1]
        is_set = _is_set_expr(node.value, names)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if is_set:
                    names.add(target.id)
                else:
                    names.discard(target.id)
        self.generic_visit(node)

    # iteration sites -------------------------------------------------------
    def _record(self, node: ast.AST, iter_expr: ast.expr) -> None:
        if _is_set_expr(iter_expr, self._stack[-1]):
            self.iters.append((node, iter_expr))

    def visit_For(self, node: ast.For) -> None:
        self._record(node, node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node: ast.AST, generators: List[ast.comprehension]) -> None:
        for gen in generators:
            self._record(gen.iter, gen.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comp(node, node.generators)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comp(node, node.generators)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comp(node, node.generators)


class RuleRL003(Rule):
    """No direct iteration over set-typed expressions in ordering-sensitive
    packages (``sim/``, ``schedulers/``, ``rl/``).

    Set iteration order depends on hash seeding and insertion history;
    when it feeds dispatch order or Q-table updates, two identical runs
    can diverge.  Wrap the iterable in ``sorted(...)``.  (Set iteration
    inside another set constructor, ``in`` tests etc. are order-safe but
    beyond this syntactic heuristic — suppress with
    ``# reprolint: disable=RL003`` where provably safe.)
    """

    code = "RL003"
    summary = "iteration over a set without sorted() in ordering-sensitive code"

    def applies(self, path: str) -> bool:
        return in_subpackages(path, ("sim", "schedulers", "rl"))

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        tracker = _ScopeSetTracker()
        tracker.visit(ctx.tree)
        for node, iter_expr in tracker.iters:
            desc = (
                f"'{iter_expr.id}'"
                if isinstance(iter_expr, ast.Name)
                else "a set expression"
            )
            yield ctx.finding(
                node,
                self.code,
                f"iterating {desc} (set-typed) without sorted(); "
                "set order is nondeterministic across runs",
            )


# -- RL004: unpicklable task functions ----------------------------------------

#: Call names whose function argument crosses a process boundary.
_TASK_CONSTRUCTORS = {"Task"}
_RUNNER_METHODS = {"map_values", "submit"}


class RuleRL004(Rule):
    """Functions handed to :mod:`repro.runner.parallel` must be picklable.

    Lambdas and nested functions cannot cross the process boundary with
    ``workers > 1`` — the campaign then dies only in parallel mode, which
    the serial determinism reference never exercises.  Pass module-level
    functions.
    """

    code = "RL004"
    summary = "lambda/nested function passed to the parallel runner"

    def applies(self, path: str) -> bool:  # call sites live in tests too
        return True

    @staticmethod
    def _nested_function_names(tree: ast.Module) -> Set[str]:
        nested: Set[str] = set()

        def walk(node: ast.AST, inside_function: bool) -> None:
            for child in ast.iter_child_nodes(node):
                is_fn = isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                )
                if is_fn and inside_function:
                    nested.add(child.name)  # type: ignore[union-attr]
                walk(child, inside_function or is_fn)

        walk(tree, False)
        return nested

    def _task_fn_arg(self, call: ast.Call) -> Optional[ast.expr]:
        for kw in call.keywords:
            if kw.arg == "fn":
                return kw.value
        func = call.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else ""
        )
        if name in _TASK_CONSTRUCTORS and len(call.args) >= 2:
            return call.args[1]
        if name in _RUNNER_METHODS and len(call.args) >= 1:
            return call.args[0]
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        nested = self._nested_function_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else ""
            )
            if name not in _TASK_CONSTRUCTORS | _RUNNER_METHODS:
                continue
            fn_arg = self._task_fn_arg(node)
            if fn_arg is None:
                continue
            if isinstance(fn_arg, ast.Lambda):
                yield ctx.finding(
                    fn_arg,
                    self.code,
                    f"lambda passed to {name}(); task functions must be "
                    "module-level (picklable) callables",
                )
            elif isinstance(fn_arg, ast.Name) and fn_arg.id in nested:
                yield ctx.finding(
                    fn_arg,
                    self.code,
                    f"nested function '{fn_arg.id}' passed to {name}(); "
                    "task functions must be module-level (picklable) "
                    "callables",
                )


# -- RL005: event-time monotonicity -------------------------------------------

_CLOCK_ATTRS = {"now", "_now"}


def _is_negative_literal(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, (int, float))
    )


def _is_positive_literal(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
        and node.value > 0
    )


def _is_self_clock(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr in _CLOCK_ATTRS
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


class RuleRL005(Rule):
    """Simulated time may never move backwards in Simulator classes.

    The event loop's monotone clock is the foundation of every record's
    ``start_time``/``finish_time``; a literal negative offset on
    ``self.now``/``self._now`` (``self._now -= x``,
    ``self._now = self._now - 5``) is always a bug.
    """

    code = "RL005"
    summary = "simulated clock assigned backwards in a Simulator class"

    def applies(self, path: str) -> bool:
        return True

    @staticmethod
    def _is_simulator_class(node: ast.ClassDef) -> bool:
        if "Simulator" in node.name:
            return True
        for base in node.bases:
            base_name = base.id if isinstance(base, ast.Name) else (
                base.attr if isinstance(base, ast.Attribute) else ""
            )
            if "Simulator" in base_name:
                return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef) or not self._is_simulator_class(cls):
                continue
            for node in ast.walk(cls):
                if isinstance(node, ast.AugAssign):
                    aug_target = node.target
                    if not (
                        isinstance(aug_target, ast.Attribute)
                        and _is_self_clock(aug_target)
                    ):
                        continue
                    backwards = (
                        isinstance(node.op, ast.Sub)
                        and _is_positive_literal(node.value)
                    ) or (
                        isinstance(node.op, ast.Add)
                        and _is_negative_literal(node.value)
                    )
                    if backwards:
                        yield ctx.finding(
                            node,
                            self.code,
                            f"'self.{aug_target.attr}' moved backwards; "
                            "simulated time must be monotone",
                        )
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        if not (
                            isinstance(target, ast.Attribute)
                            and _is_self_clock(target)
                        ):
                            continue
                        value = node.value
                        backwards = _is_negative_literal(value) or (
                            isinstance(value, ast.BinOp)
                            and isinstance(value.op, ast.Sub)
                            and _is_self_clock(value.left)
                            and _is_positive_literal(value.right)
                        )
                        if backwards:
                            yield ctx.finding(
                                node,
                                self.code,
                                f"'self.{target.attr}' assigned backwards; "
                                "simulated time must be monotone",
                            )


# -- RL006: unsorted directory listings ---------------------------------------

_FS_LISTING_FUNCS = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
_FS_LISTING_METHODS = {"iterdir", "glob", "rglob"}


class RuleRL006(Rule):
    """Directory-listing results must be sorted before use in the library.

    ``os.listdir``/``glob.glob``/``Path.iterdir`` return entries in
    filesystem order, which differs across machines and mounts; anything
    derived from an unsorted listing (workflow inputs, result aggregation)
    is irreproducible.  Wrap the call in ``sorted(...)``.
    """

    code = "RL006"
    summary = "unsorted filesystem listing; wrap the call in sorted()"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.resolve(node.func)
            is_listing = dotted in _FS_LISTING_FUNCS or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _FS_LISTING_METHODS
                and ctx.resolve(node.func) is None  # method, not module func
            )
            if not is_listing:
                continue
            parent = ctx.parents.get(node)
            sorted_wrapped = (
                isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id == "sorted"
                and parent.args
                and parent.args[0] is node
            )
            if not sorted_wrapped:
                label = dotted or f".{node.func.attr}(...)"  # type: ignore[union-attr]
                yield ctx.finding(
                    node,
                    self.code,
                    f"result of '{label}' used without sorted(); filesystem "
                    "order is nondeterministic across machines",
                )


# -- RL007: per-decision cross-product rebuilds --------------------------------

#: The context views whose cross product ``SimulationContext.action_pairs``
#: already caches (keyed on the ready/idle version counters).
_CACHED_VIEW_ATTRS = {"ready_activations", "idle_vms"}


class RuleRL007(Rule):
    """No per-call list rebuilds of the cached ready × idle cross product.

    ``SimulationContext.action_pairs`` hands out one interned tuple per
    (ready, idle) configuration, invalidated by the state's version
    counters.  A list comprehension that crosses ``ready_activations``
    with ``idle_vms`` rebuilds that product from scratch on *every*
    decision — exactly the hot-loop cost the cache removes — and, being
    a fresh object each call, also defeats downstream identity-keyed
    memoization (the Q-table's action-id slices).  Generator
    expressions are exempt: they stream lazily and are typically used
    for one-off membership/counting, not to materialize the product.
    """

    code = "RL007"
    summary = "ready x idle cross product rebuilt per call; use ctx.action_pairs"

    def applies(self, path: str) -> bool:
        return in_subpackages(path, ("schedulers", "rl", "core"))

    @staticmethod
    def _view_aliases(tree: ast.Module) -> Dict[str, str]:
        """Names assigned from ``<expr>.ready_activations`` / ``.idle_vms``."""
        aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if (
                isinstance(value, ast.Attribute)
                and value.attr in _CACHED_VIEW_ATTRS
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        aliases[target.id] = value.attr
        return aliases

    @staticmethod
    def _view_of(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
        if isinstance(node, ast.Attribute) and node.attr in _CACHED_VIEW_ATTRS:
            return node.attr
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        aliases = self._view_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ListComp) or len(node.generators) < 2:
                continue
            views = {
                view
                for gen in node.generators
                if (view := self._view_of(gen.iter, aliases)) is not None
            }
            if views >= _CACHED_VIEW_ATTRS:
                yield ctx.finding(
                    node,
                    self.code,
                    "list comprehension rebuilds the ready x idle cross "
                    "product per call; read the cached "
                    "'ctx.action_pairs' tuple instead",
                )


#: The default rule registry, in code order.
ALL_RULES: Tuple[Rule, ...] = (
    RuleRL001(),
    RuleRL002(),
    RuleRL003(),
    RuleRL004(),
    RuleRL005(),
    RuleRL006(),
    RuleRL007(),
)
