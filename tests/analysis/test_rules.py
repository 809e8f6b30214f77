"""Per-rule fixture tests: each rule must flag its `_flag` snippet and
stay silent on the `_ok` twin.

Fixtures live under ``tests/analysis/fixtures/`` — a directory name the
engine excludes from discovery by default, so ``reprolint src/ tests/``
stays clean while the deliberately-seeded violations remain on disk.
Each fixture is analyzed under a *virtual* path inside the scope its
rule applies to (e.g. ``src/repro/sim/…`` for RL003).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import analyze_source
from repro.analysis.findings import SYNTAX_ERROR_RULE
from repro.analysis.rules import ALL_RULES

FIXTURES = Path(__file__).parent / "fixtures"

#: rule code -> (virtual path used for scoping, expected flag count)
CASES = {
    "RL001": ("src/repro/workflows/fixture.py", 4),
    "RL002": ("src/repro/scicumulus/fixture.py", 3),
    "RL003": ("src/repro/sim/fixture.py", 2),
    "RL004": ("src/repro/experiments/fixture.py", 3),
    "RL005": ("src/repro/sim/fixture.py", 3),
    "RL006": ("src/repro/workflows/fixture.py", 3),
    "RL007": ("src/repro/schedulers/fixture.py", 2),
}


def _analyze_fixture(name: str, virtual_path: str):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return analyze_source(source, virtual_path)


@pytest.mark.parametrize("code", sorted(CASES))
def test_rule_flags_its_fixture(code):
    virtual_path, expected = CASES[code]
    findings = _analyze_fixture(f"{code.lower()}_flag.py", virtual_path)
    flagged = [f for f in findings if f.rule == code]
    assert len(flagged) == expected, [str(f) for f in findings]
    for f in flagged:
        assert f.path == virtual_path
        assert f.line > 0
        assert code in str(f)


@pytest.mark.parametrize("code", sorted(CASES))
def test_rule_passes_clean_fixture(code):
    virtual_path, _ = CASES[code]
    findings = _analyze_fixture(f"{code.lower()}_ok.py", virtual_path)
    assert [f for f in findings if f.rule == code] == []


def test_every_rule_has_a_fixture_pair():
    codes = {rule.code for rule in ALL_RULES}
    assert codes == set(CASES)
    for code in codes:
        assert (FIXTURES / f"{code.lower()}_flag.py").is_file()
        assert (FIXTURES / f"{code.lower()}_ok.py").is_file()


# -- rule scoping -------------------------------------------------------------


def test_rl001_rl002_do_not_apply_outside_the_library():
    source = "import time\nimport random\nrandom.seed(1)\nt = time.time()\n"
    assert analyze_source(source, "tests/test_foo.py") == []
    findings = analyze_source(source, "src/repro/sim/foo.py")
    assert {f.rule for f in findings} == {"RL001", "RL002"}


def test_rl003_scoped_to_ordering_sensitive_packages():
    source = "def f(xs):\n    return [x for x in set(xs)]\n"
    assert analyze_source(source, "src/repro/workflows/foo.py") == []
    assert [f.rule for f in analyze_source(source, "src/repro/rl/foo.py")] == [
        "RL003"
    ]
    assert [
        f.rule for f in analyze_source(source, "src/repro/schedulers/foo.py")
    ] == ["RL003"]


def test_rl007_scoped_to_decision_loop_packages():
    source = (
        "def f(ctx):\n"
        "    return [(a, v) for a in ctx.ready_activations"
        " for v in ctx.idle_vms]\n"
    )
    assert analyze_source(source, "src/repro/sim/foo.py") == []
    for pkg in ("schedulers", "rl", "core"):
        assert [
            f.rule for f in analyze_source(source, f"src/repro/{pkg}/foo.py")
        ] == ["RL007"]


def test_rl004_applies_everywhere_including_tests():
    source = "t = Task(key=1, fn=lambda p, s: p)\n"
    assert [f.rule for f in analyze_source(source, "tests/test_foo.py")] == [
        "RL004"
    ]


# -- suppression --------------------------------------------------------------


def test_same_line_suppression_by_code():
    source = (
        "import time\n"
        "t = time.time()  # reprolint: disable=RL002\n"
        "u = time.time()\n"
    )
    findings = analyze_source(source, "src/repro/sim/foo.py")
    assert [f.line for f in findings] == [3]


def test_suppression_disable_all_and_multiple_codes():
    source = (
        "import time, random\n"
        "t = time.time()  # reprolint: disable=all\n"
        "u = random.random()  # reprolint: disable=RL001,RL002\n"
    )
    assert analyze_source(source, "src/repro/sim/foo.py") == []


def test_suppression_of_wrong_code_does_not_hide_finding():
    source = "import time\nt = time.time()  # reprolint: disable=RL001\n"
    findings = analyze_source(source, "src/repro/sim/foo.py")
    assert [f.rule for f in findings] == ["RL002"]


# -- parse failures -----------------------------------------------------------


def test_syntax_error_reported_as_rl000():
    findings = analyze_source("def broken(:\n", "src/repro/sim/foo.py")
    assert [f.rule for f in findings] == [SYNTAX_ERROR_RULE]


# -- resolution details -------------------------------------------------------


def test_aliased_numpy_import_is_resolved():
    source = "import numpy.random as npr\nnpr.shuffle([1, 2])\n"
    assert [f.rule for f in analyze_source(source, "src/repro/rl/foo.py")] == [
        "RL001"
    ]


def test_local_variable_shadowing_random_is_not_flagged():
    # no `import random` -> the name is just a local, not the module
    source = "def f(random):\n    return random.random()\n"
    assert analyze_source(source, "src/repro/rl/foo.py") == []


def test_from_import_of_wall_clock_is_resolved():
    source = "from time import monotonic\nx = monotonic()\n"
    assert [f.rule for f in analyze_source(source, "src/repro/sim/foo.py")] == [
        "RL002"
    ]
