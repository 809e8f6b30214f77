"""Cross-file rule tests (RL008–RL013): fixture pairs, scoping, severity.

Project rules need a whole-program index, so these tests drive
:func:`repro.analysis.analyze_sources` with *virtual* library paths
(``src/repro/...``) — the same trick the per-file fixture tests use,
extended to multi-file programs for the cross-module rules.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analysis import ALL_PROJECT_RULES, analyze_sources, extract_facts
from repro.analysis.project import FileFacts, ProjectIndex, _module_of
from repro.analysis.registry import ALL_RULE_CODES, rule_catalog, rule_range
from repro.analysis.rules import FileContext

FIXTURES = Path(__file__).parent / "fixtures"

#: single-file rules: code -> (virtual path used for scoping, expected flags)
CASES = {
    "RL009": ("src/repro/provenance/fixture.py", 2),
    "RL010": ("src/repro/workflows/fixture.py", 3),
    "RL011": ("src/repro/sim/fixture.py", 3),
    "RL012": ("src/repro/core/fixture.py", 3),
    "RL013": ("src/repro/sim/fixture.py", 3),
}

#: RL008 needs two modules; (virtual path, fixture file) per side
RL008_FLAG = [
    ("src/repro/service/fixture_a.py", "rl008_flag_a.py"),
    ("src/repro/rl/fixture_b.py", "rl008_flag_b.py"),
]
RL008_OK = [
    ("src/repro/service/fixture_a.py", "rl008_ok_a.py"),
    ("src/repro/rl/fixture_b.py", "rl008_ok_b.py"),
]


def _read(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def _analyze(named):
    return analyze_sources([(path, _read(name)) for path, name in named])


def _by_rule(findings, code):
    return [f for f in findings if f.rule == code]


# -- fixture pairs ------------------------------------------------------------


@pytest.mark.parametrize("code", sorted(CASES))
def test_rule_flags_its_fixture(code):
    virtual_path, expected = CASES[code]
    findings = _analyze([(virtual_path, f"{code.lower()}_flag.py")])
    flagged = _by_rule(findings, code)
    assert len(flagged) == expected, [str(f) for f in findings]
    for f in flagged:
        assert f.path == virtual_path
        assert f.line > 0
        assert f.severity in {"error", "warning"}


@pytest.mark.parametrize("code", sorted(CASES))
def test_rule_passes_clean_fixture(code):
    virtual_path, _ = CASES[code]
    findings = _analyze([(virtual_path, f"{code.lower()}_ok.py")])
    assert _by_rule(findings, code) == [], [str(f) for f in findings]


def test_every_project_rule_has_a_fixture_pair():
    codes = {rule.code for rule in ALL_PROJECT_RULES}
    assert codes == set(CASES) | {"RL008"}


# -- RL008: cross-module stream collisions ------------------------------------


def test_rl008_flags_both_colliding_sites():
    findings = _by_rule(_analyze(RL008_FLAG), "RL008")
    assert len(findings) == 2, [str(f) for f in findings]
    by_path = {f.path: f for f in findings}
    assert set(by_path) == {path for path, _ in RL008_FLAG}
    # each site names the *other* module and the colliding stream
    assert "repro.rl.fixture_b" in by_path["src/repro/service/fixture_a.py"].message
    assert "repro.service.fixture_a" in by_path["src/repro/rl/fixture_b.py"].message
    for f in findings:
        assert "shared-jitter" in f.message


def test_rl008_passes_module_prefixed_names():
    assert _by_rule(_analyze(RL008_OK), "RL008") == []


def test_rl008_ignores_collisions_outside_the_library():
    named = [
        ("tests/helpers/fixture_a.py", "rl008_flag_a.py"),
        ("tests/helpers/fixture_b.py", "rl008_flag_b.py"),
    ]
    assert _by_rule(_analyze(named), "RL008") == []


def test_rl008_same_module_repetition_is_not_a_collision():
    named = [("src/repro/service/fixture_a.py", "rl008_ok_a.py")]
    assert _by_rule(_analyze(named), "RL008") == []


# -- severities ---------------------------------------------------------------


def test_rl013_set_reduction_is_error_values_view_is_warning():
    path, _ = CASES["RL013"]
    findings = _by_rule(_analyze([(path, "rl013_flag.py")]), "RL013")
    severities = sorted((f.line, f.severity) for f in findings)
    assert [sev for _, sev in severities] == ["error", "warning", "warning"]


def test_rl011_and_rl012_apply_only_in_scope():
    # the same sources under non-library paths produce nothing
    for code in ("RL011", "RL012", "RL013"):
        findings = _analyze([("tools/fixture.py", f"{code.lower()}_flag.py")])
        assert _by_rule(findings, code) == []
    # RL011 is sim-scoped even inside the library
    findings = _analyze([("src/repro/core/fixture.py", "rl011_flag.py")])
    assert _by_rule(findings, "RL011") == []


# -- suppression of project-rule findings -------------------------------------


def test_project_finding_is_suppressible_inline():
    path, _ = CASES["RL013"]
    source = _read("rl013_flag.py").replace(
        "return sum(times.values())  # flag (warning): dict insertion order",
        "return sum(times.values())  # reprolint: disable=RL013",
    )
    findings = [
        f for f in analyze_sources([(path, source)]) if f.rule == "RL013"
    ]
    # the suppressed line is gone; the other two sites still flag
    assert len(findings) == 2
    assert all("values" not in f.message or f.line != 8 for f in findings)


# -- the real tree obeys its own rules ----------------------------------------


def test_real_events_module_passes_rl011():
    events = Path(__file__).resolve().parents[2] / "src" / "repro" / "sim" / "events.py"
    source = events.read_text(encoding="utf-8")
    findings = analyze_sources([("src/repro/sim/events.py", source)])
    assert _by_rule(findings, "RL011") == [], [str(f) for f in findings]


def test_events_priority_table_matches_enum():
    from repro.sim.events import PRIORITY_TABLE, EventType

    assert PRIORITY_TABLE == tuple((m.name, m.value) for m in EventType)


# -- facts plumbing -----------------------------------------------------------


def test_file_facts_roundtrip_through_json_dicts():
    source = _read("rl011_flag.py") + _read("rl013_flag.py")
    ctx = FileContext("src/repro/sim/fixture.py", ast.parse(source), source)
    facts = extract_facts(ctx)
    assert facts.event_enums and facts.unordered_reductions
    clone = FileFacts.from_dict(facts.to_dict())
    assert clone == facts
    # and the round-trip drives project rules identically
    for rule in ALL_PROJECT_RULES:
        original = list(rule.check(ProjectIndex([facts])))
        replayed = list(rule.check(ProjectIndex([clone])))
        assert original == replayed


@pytest.mark.parametrize(
    "path,module",
    [
        ("src/repro/rl/double_q.py", "repro.rl.double_q"),
        ("src/repro/sim/__init__.py", "repro.sim"),
        ("src\\repro\\util\\rng.py", "repro.util.rng"),
        ("tools/bench_guard.py", "bench_guard"),
    ],
)
def test_module_of(path, module):
    assert _module_of(path) == module


# -- registry -----------------------------------------------------------------


def test_rule_range_spans_all_rules():
    assert rule_range() == "RL001-RL013"
    assert len(ALL_RULE_CODES) == 13


def test_rule_catalog_kinds():
    catalog = rule_catalog()
    kinds = {code: kind for code, kind, _ in catalog}
    assert kinds["RL001"] == "per-file"
    assert kinds["RL008"] == "project"
    assert [code for code, _, _ in catalog] == sorted(ALL_RULE_CODES)
