"""Phase 2 of reprolint: whole-program (cross-file) invariant analysis.

Phase 1 (:mod:`repro.analysis.engine`) parses every file once and calls
:func:`extract_facts` on each tree, distilling the handful of facts the
cross-file rules need — RNG stream names, ``json.dumps`` call sites,
event-type priority constants, ``EpisodeKernel`` aliases — into a small,
JSON-serializable :class:`FileFacts` record.  Phase 2 assembles the
records into a :class:`ProjectIndex` and runs every :class:`ProjectRule`
over it.

The split is what makes the incremental cache possible: facts (not
trees) are what project rules consume, so a warm run can skip parsing
entirely for unchanged files and still re-run every cross-file check
against the full project.

Rules RL008–RL013 live here; the per-file rules RL001–RL007 stay in
:mod:`repro.analysis.rules` with an unchanged API.
"""

from __future__ import annotations

import ast
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules import FileContext, in_library, in_subpackages

__all__ = [
    "FileFacts",
    "ProjectIndex",
    "ProjectRule",
    "ALL_PROJECT_RULES",
    "extract_facts",
    "RuleRL008",
    "RuleRL009",
    "RuleRL010",
    "RuleRL011",
    "RuleRL012",
    "RuleRL013",
]

#: Bump whenever the :class:`FileFacts` schema or extraction logic
#: changes; it feeds the cache fingerprint so stale facts are never
#: replayed into newer project rules.
FACTS_SCHEMA_VERSION = 1


# -- fact records --------------------------------------------------------------


@dataclass(frozen=True)
class StreamCall:
    """A named RNG stream derivation: ``.stream("x")``, ``.spawn_seed("x")``
    or ``derive_seed(root, "x")`` with a literal name."""

    name: str
    line: int
    col: int
    kind: str  # "stream" | "derive_seed" | "spawn_seed"


@dataclass(frozen=True)
class DumpsCall:
    """One ``json.dumps`` call site."""

    line: int
    col: int
    sort_keys: bool
    func: str  # enclosing function name ("" at module level)


@dataclass(frozen=True)
class RngConstruction:
    """Construction of a generator object (``default_rng``, ``Random``…)."""

    factory: str
    line: int
    col: int
    n_args: int
    seeded: bool  # an argument is grounded in a seed/derive_seed expression


@dataclass(frozen=True)
class UnusedSeedParam:
    """A function that accepts ``seed`` but never reads it while
    constructing randomness."""

    func: str
    line: int
    col: int


@dataclass(frozen=True)
class EventEnumFact:
    """An ``IntEnum`` of event types: member (name, value, line) triples."""

    name: str
    line: int
    members: Tuple[Tuple[str, int, int], ...]


@dataclass(frozen=True)
class PriorityTableFact:
    """A module-level literal ``PRIORITY_TABLE`` of (name, value) pairs."""

    line: int
    entries: Tuple[Tuple[str, int], ...]


@dataclass(frozen=True)
class KernelMutation:
    """An attribute assignment/deletion on an EpisodeKernel-typed object."""

    target: str
    line: int
    col: int


@dataclass(frozen=True)
class UnorderedReduction:
    """``sum``/``max``/``min`` over a set expression or ``.values()`` view."""

    func: str
    kind: str  # "set" | "dict_values"
    has_key: bool
    line: int
    col: int


@dataclass
class FileFacts:
    """Everything the project rules need to know about one file."""

    path: str
    module: str
    stream_calls: List[StreamCall] = field(default_factory=list)
    dumps_calls: List[DumpsCall] = field(default_factory=list)
    rng_constructions: List[RngConstruction] = field(default_factory=list)
    unused_seed_params: List[UnusedSeedParam] = field(default_factory=list)
    event_enums: List[EventEnumFact] = field(default_factory=list)
    priority_table: Optional[PriorityTableFact] = None
    kernel_mutations: List[KernelMutation] = field(default_factory=list)
    unordered_reductions: List[UnorderedReduction] = field(default_factory=list)
    writes_files: bool = False
    defines_kernel_class: bool = False

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (lists of plain dicts/lists)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FileFacts":
        """Inverse of :meth:`to_dict` (tolerates JSON's tuple->list)."""
        table = data.get("priority_table")
        return cls(
            path=str(data["path"]),
            module=str(data["module"]),
            stream_calls=[StreamCall(**d) for d in data.get("stream_calls", [])],
            dumps_calls=[DumpsCall(**d) for d in data.get("dumps_calls", [])],
            rng_constructions=[
                RngConstruction(**d) for d in data.get("rng_constructions", [])
            ],
            unused_seed_params=[
                UnusedSeedParam(**d) for d in data.get("unused_seed_params", [])
            ],
            event_enums=[
                EventEnumFact(
                    name=str(d["name"]),
                    line=int(d["line"]),
                    members=tuple(
                        (str(n), int(v), int(ln)) for n, v, ln in d["members"]
                    ),
                )
                for d in data.get("event_enums", [])
            ],
            priority_table=(
                None
                if table is None
                else PriorityTableFact(
                    line=int(table["line"]),
                    entries=tuple(
                        (str(n), int(v)) for n, v in table["entries"]
                    ),
                )
            ),
            kernel_mutations=[
                KernelMutation(**d) for d in data.get("kernel_mutations", [])
            ],
            unordered_reductions=[
                UnorderedReduction(**d)
                for d in data.get("unordered_reductions", [])
            ],
            writes_files=bool(data.get("writes_files", False)),
            defines_kernel_class=bool(data.get("defines_kernel_class", False)),
        )


# -- fact extraction -----------------------------------------------------------


def _module_of(path: str) -> str:
    """Dotted module guess: ``src/repro/rl/td.py`` -> ``repro.rl.td``."""
    posix = path.replace("\\", "/")
    parts = [p for p in posix.split("/") if p]
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


_RNG_FACTORIES = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "random.Random",
}

_SEED_CALL_NAMES = {"derive_seed", "spawn_seed", "stream", "child", "seed_for"}

_REDUCTIONS = {"sum", "max", "min"}


def _dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for pure Name/Attribute chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _mentions_seed(nodes: Sequence[ast.expr]) -> bool:
    """True when any expression is grounded in a seed-like source."""
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and "seed" in node.id.lower():
                return True
            if isinstance(node, ast.Attribute) and "seed" in node.attr.lower():
                return True
            if isinstance(node, ast.Constant) and isinstance(node.value, int):
                # a literal seed: deterministic, blessed by RL001
                return True
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and (
                    func.id in _SEED_CALL_NAMES or func.id == "RngService"
                ):
                    return True
                if isinstance(func, ast.Attribute) and (
                    func.attr in _SEED_CALL_NAMES
                ):
                    return True
    return False


def _is_set_like(node: ast.expr) -> bool:
    """Syntactic set detector (no name tracking; direct expressions only)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in {"set", "frozenset"}:
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub)
    ):
        return _is_set_like(node.left) or _is_set_like(node.right)
    return False


def _is_values_view(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "values"
        and not node.args
        and not node.keywords
    )


def _reduction_kind(arg: ast.expr) -> Optional[str]:
    """Classify a reduction's first argument, looking through genexprs."""
    if isinstance(arg, ast.GeneratorExp) and arg.generators:
        return _reduction_kind(arg.generators[0].iter)
    if _is_set_like(arg):
        return "set"
    if _is_values_view(arg):
        return "dict_values"
    return None


def _function_args(node: ast.FunctionDef) -> List[ast.arg]:
    a = node.args
    return [*a.posonlyargs, *a.args, *a.kwonlyargs]


def _annotation_mentions(ann: Optional[ast.expr], name: str) -> bool:
    if ann is None:
        return False
    for node in ast.walk(ann):
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if name in node.value:
                return True
    return False


def _enclosing_function(ctx: FileContext, node: ast.AST) -> str:
    cur: Optional[ast.AST] = node
    while cur is not None:
        cur = ctx.parents.get(cur)
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return cur.name
    return ""


def _literal_str(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _is_int_enum_base(ctx: FileContext, base: ast.expr) -> bool:
    dotted = ctx.resolve(base)
    if dotted == "enum.IntEnum":
        return True
    name = base.id if isinstance(base, ast.Name) else (
        base.attr if isinstance(base, ast.Attribute) else ""
    )
    return name == "IntEnum"


def _extract_event_enums(ctx: FileContext) -> List[EventEnumFact]:
    out: List[EventEnumFact] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if "Event" not in node.name:
            continue
        if not any(_is_int_enum_base(ctx, base) for base in node.bases):
            continue
        members: List[Tuple[str, int, int]] = []
        for stmt in node.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, int)
                and not isinstance(stmt.value.value, bool)
            ):
                members.append(
                    (stmt.targets[0].id, stmt.value.value, stmt.lineno)
                )
        if members:
            out.append(
                EventEnumFact(
                    name=node.name, line=node.lineno, members=tuple(members)
                )
            )
    return out


def _extract_priority_table(ctx: FileContext) -> Optional[PriorityTableFact]:
    for stmt in ctx.tree.body:
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        if not (isinstance(target, ast.Name) and target.id == "PRIORITY_TABLE"):
            continue
        if not isinstance(value, (ast.Tuple, ast.List)):
            continue
        entries: List[Tuple[str, int]] = []
        for elt in value.elts:
            if not isinstance(elt, (ast.Tuple, ast.List)) or len(elt.elts) != 2:
                return PriorityTableFact(line=stmt.lineno, entries=tuple(entries))
            name = _literal_str(elt.elts[0])
            val = elt.elts[1]
            if name is None or not (
                isinstance(val, ast.Constant) and isinstance(val.value, int)
            ):
                return PriorityTableFact(line=stmt.lineno, entries=tuple(entries))
            entries.append((name, val.value))
        return PriorityTableFact(line=stmt.lineno, entries=tuple(entries))
    return None


def _extract_kernel_mutations(
    ctx: FileContext,
) -> Tuple[List[KernelMutation], bool]:
    defines = any(
        isinstance(node, ast.ClassDef) and node.name == "EpisodeKernel"
        for node in ast.walk(ctx.tree)
    )
    # pass 1: names/attribute chains that hold an EpisodeKernel
    kernel_exprs: set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in _function_args(node):
                if _annotation_mentions(arg.annotation, "EpisodeKernel"):
                    kernel_exprs.add(arg.arg)
        elif isinstance(node, ast.AnnAssign):
            dotted = _dotted_name(node.target) if isinstance(
                node.target, (ast.Name, ast.Attribute)
            ) else None
            if dotted and _annotation_mentions(node.annotation, "EpisodeKernel"):
                kernel_exprs.add(dotted)
    # pass 2 (fixpoint-free, two sweeps): propagate through assignments
    for _ in range(2):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Assign):
                continue
            value_dotted = _dotted_name(node.value) if isinstance(
                node.value, (ast.Name, ast.Attribute)
            ) else None
            is_kernel_value = value_dotted in kernel_exprs
            if isinstance(node.value, ast.Call):
                callee = _dotted_name(node.value.func)
                if callee is not None and callee.split(".")[-1] == "EpisodeKernel":
                    is_kernel_value = True
            if not is_kernel_value:
                continue
            for target in node.targets:
                if isinstance(target, (ast.Name, ast.Attribute)):
                    dotted = _dotted_name(target)
                    if dotted:
                        kernel_exprs.add(dotted)
    # pass 3: attribute writes whose base is a tracked kernel expression
    mutations: List[KernelMutation] = []

    def record(target: ast.expr) -> None:
        if not isinstance(target, ast.Attribute):
            return
        base = _dotted_name(target.value)
        if base in kernel_exprs:
            mutations.append(
                KernelMutation(
                    target=f"{base}.{target.attr}",
                    line=target.lineno,
                    col=target.col_offset,
                )
            )

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                record(target)
        elif isinstance(node, ast.AugAssign):
            record(node.target)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                record(target)
    return mutations, defines


def extract_facts(ctx: FileContext) -> FileFacts:
    """Distill one parsed file into the facts the project rules consume."""
    facts = FileFacts(path=ctx.path, module=_module_of(ctx.path))

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func

        # named stream derivations ----------------------------------------
        if isinstance(func, ast.Attribute) and func.attr in {
            "stream",
            "spawn_seed",
        }:
            if node.args:
                name = _literal_str(node.args[0])
                if name is not None:
                    facts.stream_calls.append(
                        StreamCall(
                            name=name,
                            line=node.lineno,
                            col=node.col_offset,
                            kind=func.attr,
                        )
                    )
        dotted = ctx.resolve(func)
        if (
            dotted == "repro.util.rng.derive_seed"
            or (isinstance(func, ast.Name) and func.id == "derive_seed")
        ) and len(node.args) >= 2:
            name = _literal_str(node.args[1])
            if name is not None:
                facts.stream_calls.append(
                    StreamCall(
                        name=name,
                        line=node.lineno,
                        col=node.col_offset,
                        kind="derive_seed",
                    )
                )

        # json.dumps call sites -------------------------------------------
        if dotted == "json.dumps":
            sort_keys = any(
                kw.arg == "sort_keys"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in node.keywords
            )
            facts.dumps_calls.append(
                DumpsCall(
                    line=node.lineno,
                    col=node.col_offset,
                    sort_keys=sort_keys,
                    func=_enclosing_function(ctx, node),
                )
            )

        # generator constructions -----------------------------------------
        if dotted in _RNG_FACTORIES:
            arg_exprs = list(node.args) + [kw.value for kw in node.keywords]
            facts.rng_constructions.append(
                RngConstruction(
                    factory=dotted,
                    line=node.lineno,
                    col=node.col_offset,
                    n_args=len(arg_exprs),
                    seeded=_mentions_seed(arg_exprs),
                )
            )

        # file-write markers ----------------------------------------------
        if isinstance(func, ast.Name) and func.id == "open":
            mode: Optional[str] = None
            if len(node.args) >= 2:
                mode = _literal_str(node.args[1])
            for kw in node.keywords:
                if kw.arg == "mode":
                    mode = _literal_str(kw.value)
            if mode is not None and any(c in mode for c in "wxa"):
                facts.writes_files = True
        if isinstance(func, ast.Attribute) and func.attr == "write_text":
            facts.writes_files = True

        # order-sensitive reductions --------------------------------------
        if (
            isinstance(func, ast.Name)
            and func.id in _REDUCTIONS
            and node.args
        ):
            kind = _reduction_kind(node.args[0])
            if kind is not None:
                facts.unordered_reductions.append(
                    UnorderedReduction(
                        func=func.id,
                        kind=kind,
                        has_key=any(kw.arg == "key" for kw in node.keywords),
                        line=node.lineno,
                        col=node.col_offset,
                    )
                )

    # seed parameters never threaded into randomness ----------------------
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not any(arg.arg == "seed" for arg in _function_args(node)):
            continue
        seed_read = False
        constructs_rng = False
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name) and inner.id == "seed":
                seed_read = True
            if isinstance(inner, ast.Call):
                inner_dotted = ctx.resolve(inner.func)
                if inner_dotted in _RNG_FACTORIES or inner_dotted == (
                    "repro.util.rng.RngService"
                ):
                    constructs_rng = True
                inner_func = inner.func
                if isinstance(inner_func, ast.Name) and inner_func.id == (
                    "RngService"
                ):
                    constructs_rng = True
                if isinstance(inner_func, ast.Attribute) and inner_func.attr == (
                    "stream"
                ):
                    constructs_rng = True
        if constructs_rng and not seed_read:
            facts.unused_seed_params.append(
                UnusedSeedParam(
                    func=node.name, line=node.lineno, col=node.col_offset
                )
            )

    facts.event_enums = _extract_event_enums(ctx)
    facts.priority_table = _extract_priority_table(ctx)
    facts.kernel_mutations, facts.defines_kernel_class = (
        _extract_kernel_mutations(ctx)
    )
    return facts


# -- the project index ---------------------------------------------------------


class ProjectIndex:
    """Sorted, queryable collection of every analyzed file's facts."""

    def __init__(self, facts: Sequence[FileFacts]) -> None:
        self.files: Tuple[FileFacts, ...] = tuple(
            sorted(facts, key=lambda f: f.path)
        )
        self.by_path: Dict[str, FileFacts] = {f.path: f for f in self.files}

    def library_files(self) -> Iterator[FileFacts]:
        """Facts for files inside the ``repro`` package source."""
        for facts in self.files:
            if in_library(facts.path):
                yield facts


# -- project rules -------------------------------------------------------------


class ProjectRule:
    """Base class for cross-file rules; subclasses implement :meth:`check`.

    Unlike :class:`repro.analysis.rules.Rule`, a project rule sees the
    whole :class:`ProjectIndex` at once, so it can relate call sites in
    different modules.  Findings must be yielded in a deterministic
    order (the index is pre-sorted by path).
    """

    code: str = ""
    summary: str = ""
    default_severity: str = "error"

    def finding(
        self,
        facts: FileFacts,
        line: int,
        col: int,
        message: str,
        severity: Optional[str] = None,
    ) -> Finding:
        return Finding(
            path=facts.path,
            line=line,
            col=col,
            rule=self.code,
            message=message,
            severity=severity or self.default_severity,
        )

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for typing


class RuleRL008(ProjectRule):
    """Cross-module RNG stream-name collisions.

    :func:`repro.util.rng.derive_seed` maps (root seed, name) to a
    stream, so two modules deriving the *same literal name* from equal
    root seeds draw from identical streams — draws in one silently
    correlate with draws in the other, which is exactly the isolation
    the named-stream design exists to prevent.  Give each module its own
    prefix (``"service-arrivals"``, ``"reassign-policy"`` …).
    """

    code = "RL008"
    summary = "same RNG stream name derived in more than one module"

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        owners: Dict[str, List[Tuple[FileFacts, StreamCall]]] = {}
        for facts in index.library_files():
            for call in facts.stream_calls:
                owners.setdefault(call.name, []).append((facts, call))
        for name in sorted(owners):
            sites = owners[name]
            modules = sorted({facts.module for facts, _ in sites})
            if len(modules) < 2:
                continue
            for facts, call in sites:
                others = ", ".join(m for m in modules if m != facts.module)
                yield self.finding(
                    facts,
                    call.line,
                    call.col,
                    f"RNG stream name '{name}' is also derived in {others}; "
                    "equal root seeds would make the streams identical — "
                    "use a module-specific stream name",
                )


class RuleRL009(ProjectRule):
    """Non-canonical JSON for persisted artifacts.

    Serializers that feed fixtures, metrics, baselines or provenance
    must emit canonical JSON (``sort_keys=True``): dict iteration order
    is insertion history, so a refactor that builds the same payload in
    a different order silently changes the bytes every golden-fixture
    and byte-identity test compares.  Flags ``json.dumps`` without
    ``sort_keys=True`` inside ``to_json``-style serializers and in
    modules that write files.
    """

    code = "RL009"
    summary = "json.dumps without sort_keys=True in artifact-writing code"

    @staticmethod
    def _is_serializer(func: str) -> bool:
        return (
            func == "to_json"
            or func.endswith("_to_json")
            or func.startswith(("save_", "write_", "dump_"))
        )

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        for facts in index.library_files():
            for call in facts.dumps_calls:
                if call.sort_keys:
                    continue
                if self._is_serializer(call.func) or facts.writes_files:
                    where = (
                        f"in serializer '{call.func}'"
                        if self._is_serializer(call.func)
                        else "in a file-writing module"
                    )
                    yield self.finding(
                        facts,
                        call.line,
                        call.col,
                        f"json.dumps {where} without sort_keys=True; "
                        "persisted artifacts must be canonical JSON",
                    )


class RuleRL010(ProjectRule):
    """Broken seed plumbing around generator construction.

    A ``default_rng()`` with no arguments seeds from OS entropy — two
    same-seed runs then differ.  A generator whose arguments are not
    grounded in a seed expression (``derive_seed``/``RngService``/
    a ``seed``-named value/a literal), or a ``seed`` parameter that a
    randomness-constructing function accepts but never reads, are the
    same defect one step removed.
    """

    code = "RL010"
    summary = "RNG constructed without derived-seed plumbing"

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        for facts in index.library_files():
            for ctor in facts.rng_constructions:
                if ctor.n_args == 0:
                    yield self.finding(
                        facts,
                        ctor.line,
                        ctor.col,
                        f"'{ctor.factory}()' with no seed draws from OS "
                        "entropy; pass derive_seed(...)/RngService-derived "
                        "state",
                    )
                elif not ctor.seeded:
                    yield self.finding(
                        facts,
                        ctor.line,
                        ctor.col,
                        f"'{ctor.factory}(...)' arguments are not grounded "
                        "in a seed expression; thread derive_seed(...)/"
                        "RngService through",
                    )
            for param in facts.unused_seed_params:
                yield self.finding(
                    facts,
                    param.line,
                    param.col,
                    f"'{param.func}' accepts a 'seed' parameter but never "
                    "reads it while constructing randomness; thread the "
                    "seed into the generator",
                )


class RuleRL011(ProjectRule):
    """Event-type priorities must be unique, ordered and table-checked.

    The event loop orders simultaneous events by ``int(EventType)``; a
    duplicate value silently merges two priorities and reorders the
    loop, and a member defined out of value order hides the real
    processing order from readers.  The enum must also match the
    machine-readable ``PRIORITY_TABLE`` literal next to it, so adding an
    event type is a conscious two-line change the diff shows clearly.
    """

    code = "RL011"
    summary = "event-type priorities must be unique/ordered and match PRIORITY_TABLE"

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        for facts in index.library_files():
            if not in_subpackages(facts.path, ("sim",)):
                continue
            for enum in facts.event_enums:
                seen: Dict[int, str] = {}
                prev_value: Optional[int] = None
                for name, value, line in enum.members:
                    if value in seen:
                        yield self.finding(
                            facts,
                            line,
                            0,
                            f"{enum.name}.{name} reuses priority {value} "
                            f"(already {enum.name}.{seen[value]}); duplicate "
                            "priorities silently reorder the event loop",
                        )
                    else:
                        seen[value] = name
                    if prev_value is not None and value < prev_value:
                        yield self.finding(
                            facts,
                            line,
                            0,
                            f"{enum.name}.{name} = {value} is defined out of "
                            "priority order; keep members sorted by value",
                        )
                    prev_value = value
                if facts.priority_table is None:
                    yield self.finding(
                        facts,
                        enum.line,
                        0,
                        f"{enum.name} has no machine-readable PRIORITY_TABLE "
                        "literal; add one so priority changes are explicit "
                        "in diffs",
                    )
                else:
                    enum_pairs = tuple((n, v) for n, v, _ in enum.members)
                    if facts.priority_table.entries != enum_pairs:
                        yield self.finding(
                            facts,
                            facts.priority_table.line,
                            0,
                            f"PRIORITY_TABLE does not match {enum.name} "
                            "(names, values and order must be identical)",
                        )


class RuleRL012(ProjectRule):
    """No mutation of kernel-owned state outside the kernel module.

    :class:`repro.sim.kernel.EpisodeKernel` is immutable by contract —
    it is shared across episodes, planners and (fingerprint-validated)
    worker processes.  Assigning to an attribute of a kernel-typed
    object anywhere else aliases mutable state into that shared
    structure and breaks single-tenancy; put per-episode state on
    ``EpisodeState`` instead.
    """

    code = "RL012"
    summary = "attribute mutation on an EpisodeKernel-typed object"

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        for facts in index.library_files():
            if facts.defines_kernel_class:
                continue  # the kernel module builds itself
            for mutation in facts.kernel_mutations:
                yield self.finding(
                    facts,
                    mutation.line,
                    mutation.col,
                    f"assignment to '{mutation.target}' mutates an "
                    "EpisodeKernel; kernels are immutable — move the "
                    "state onto EpisodeState",
                )


class RuleRL013(ProjectRule):
    """Order-sensitive float reductions over unordered collections.

    Float addition is not associative: ``sum()`` over a ``set`` (order
    depends on hash/insertion history) or over ``dict.values()`` (order
    is insertion history, one refactor away from changing) yields bytes
    that drift when the iteration order does.  ``max``/``min`` are only
    order-sensitive when a ``key=`` makes ties possible.  Reduce over
    ``sorted(...)`` keys instead.  Set reductions are errors; dict-value
    reductions are warnings (deterministic today, fragile tomorrow).
    """

    code = "RL013"
    summary = "sum/max/min over a set or dict.values() in order-sensitive code"

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        for facts in index.library_files():
            in_scope = in_subpackages(facts.path, ("sim", "rl")) or (
                facts.path.replace("\\", "/").endswith("/metrics.py")
            )
            if not in_scope:
                continue
            for red in facts.unordered_reductions:
                order_sensitive = red.func == "sum" or (
                    red.func in {"max", "min"} and red.has_key
                )
                if not order_sensitive:
                    continue
                severity = "error" if red.kind == "set" else "warning"
                source = (
                    "a set expression"
                    if red.kind == "set"
                    else "dict.values()"
                )
                yield self.finding(
                    facts,
                    red.line,
                    red.col,
                    f"{red.func}() over {source}: float reduction order "
                    "follows iteration order; iterate sorted keys instead",
                    severity=severity,
                )


#: The default project-rule registry, in code order.
ALL_PROJECT_RULES: Tuple[ProjectRule, ...] = (
    RuleRL008(),
    RuleRL009(),
    RuleRL010(),
    RuleRL011(),
    RuleRL012(),
    RuleRL013(),
)
