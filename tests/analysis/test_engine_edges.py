"""Engine edge cases: suppression syntax, baseline hygiene, and the cache.

The cache contract under test is the strong one the docs promise:
findings are byte-identical with and without ``cache_file``, across
warm/cold runs, and regardless of the order the paths are given in.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.cache import ruleset_fingerprint
from repro.analysis.engine import (
    BaselineError,
    analyze_project,
    analyze_source,
    apply_baseline,
    iter_python_files,
    load_baseline,
    suppressed_lines,
    write_baseline,
)
from repro.analysis.cli import main
from repro.analysis.registry import select_rules
from repro.analysis.report import render

SIM = "src/repro/sim/x.py"


# -- suppression comments -----------------------------------------------------


def test_multi_code_suppression_silences_both_rules():
    noisy = "import random\nimport time\nrandom.seed(int(time.time()))\n"
    assert {f.rule for f in analyze_source(noisy, SIM)} >= {"RL001", "RL002"}
    quiet = noisy.replace(
        "time.time()))", "time.time()))  # reprolint: disable=RL001,RL002"
    )
    assert analyze_source(quiet, SIM) == []


def test_disable_all_silences_every_rule_on_the_line():
    source = (
        "import random\n"
        "import time\n"
        "random.seed(int(time.time()))  # reprolint: disable=all\n"
    )
    assert analyze_source(source, SIM) == []


def test_suppression_on_the_opening_line_of_a_multiline_call():
    source = (
        "import time\n"
        "stamp = time.time(  # reprolint: disable=RL002\n"
        ")\n"
    )
    assert analyze_source(source, SIM) == []


def test_suppression_on_a_continuation_line_does_not_apply():
    # the comment must sit on the line the finding is *reported* at
    # (the call's first line), not on a later continuation line
    source = (
        "import time\n"
        "stamp = time.time(\n"
        ")  # reprolint: disable=RL002\n"
    )
    assert [f.rule for f in analyze_source(source, SIM)] == ["RL002"]


def test_suppressed_lines_parses_spacing_and_accumulates():
    source = (
        "a = 1  # reprolint: disable=RL001 , RL003\n"
        "b = 2  # reprolint: disable=all\n"
        "c = 3  # unrelated comment\n"
    )
    assert suppressed_lines(source) == {
        1: {"RL001", "RL003"},
        2: {"all"},
    }


# -- baseline hygiene ---------------------------------------------------------


def _baseline_error(tmp_path, text):
    bad = tmp_path / "baseline.json"
    bad.write_text(text, encoding="utf-8")
    with pytest.raises(BaselineError):
        load_baseline(str(bad))


def test_baseline_must_be_an_object_with_findings(tmp_path):
    _baseline_error(tmp_path, "[]")
    _baseline_error(tmp_path, '{"version": 1}')


def test_baseline_rejects_invalid_json_and_missing_file(tmp_path):
    _baseline_error(tmp_path, "{not json")
    with pytest.raises(BaselineError):
        load_baseline(str(tmp_path / "missing.json"))


def test_baseline_rejects_malformed_entries(tmp_path):
    _baseline_error(tmp_path, '{"findings": [{"rule": "RL001"}]}')
    _baseline_error(tmp_path, '{"findings": [null]}')


def test_baseline_roundtrip_is_idempotent(tmp_path):
    noisy = "import time\nstamp = time.time()\n"
    findings = analyze_source(noisy, SIM)
    assert findings
    baseline = tmp_path / "baseline.json"

    write_baseline(str(baseline), findings)
    first = baseline.read_text(encoding="utf-8")
    assert apply_baseline(findings, load_baseline(str(baseline))) == []

    # re-writing the same findings is byte-stable
    write_baseline(str(baseline), findings)
    assert baseline.read_text(encoding="utf-8") == first

    # a baseline written from *zero* findings silences nothing
    write_baseline(str(baseline), [])
    assert load_baseline(str(baseline)) == set()
    assert apply_baseline(findings, set()) == findings


# -- incremental cache --------------------------------------------------------


@pytest.fixture()
def tree(tmp_path):
    pkg = tmp_path / "src" / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("X = 1\n", encoding="utf-8")
    (pkg / "b.py").write_text(
        "import time\nstamp = time.time()\n", encoding="utf-8"
    )
    (pkg / "c.py").write_text(
        "def busy(times):\n"
        "    return sum(times.values())  # reprolint: disable=RL013\n",
        encoding="utf-8",
    )
    return tmp_path


def test_cold_then_warm_run_hits_every_file(tree, tmp_path):
    cache = str(tmp_path / "cache.json")
    cold = analyze_project([str(tree)], cache_file=cache)
    assert cold.cache is not None
    assert (cold.cache.hits, cold.cache.misses) == (0, 3)

    warm = analyze_project([str(tree)], cache_file=cache)
    assert warm.cache is not None
    assert (warm.cache.hits, warm.cache.misses) == (3, 0)
    assert warm.findings == cold.findings
    assert warm.files_scanned == cold.files_scanned


def test_findings_identical_with_and_without_cache(tree, tmp_path):
    cache = str(tmp_path / "cache.json")
    plain = analyze_project([str(tree)])
    assert plain.cache is None
    for _ in range(2):  # cold, then warm
        cached = analyze_project([str(tree)], cache_file=cache)
        assert cached.findings == plain.findings
        assert render(cached.findings, cached.files_scanned, "json") == render(
            plain.findings, plain.files_scanned, "json"
        )


def test_changed_file_misses_alone(tree, tmp_path):
    cache = str(tmp_path / "cache.json")
    analyze_project([str(tree)], cache_file=cache)
    target = tree / "src" / "repro" / "sim" / "b.py"
    target.write_text("X = 2\n", encoding="utf-8")

    warm = analyze_project([str(tree)], cache_file=cache)
    assert warm.cache is not None
    assert (warm.cache.hits, warm.cache.misses) == (2, 1)
    assert [f for f in warm.findings if f.rule == "RL002"] == []


def test_rule_selection_changes_the_fingerprint(tree, tmp_path):
    cache = str(tmp_path / "cache.json")
    analyze_project([str(tree)], cache_file=cache)

    rules, project_rules = select_rules("RL002")
    subset = analyze_project(
        [str(tree)], rules=rules, project_rules=project_rules, cache_file=cache
    )
    assert subset.cache is not None
    assert subset.cache.hits == 0  # full-set entries must not replay
    assert {f.rule for f in subset.findings} == {"RL002"}


def test_corrupt_cache_is_treated_as_empty(tree, tmp_path):
    cache = tmp_path / "cache.json"
    cache.write_text("{definitely not json", encoding="utf-8")
    report = analyze_project([str(tree)], cache_file=str(cache))
    assert report.cache is not None
    assert (report.cache.hits, report.cache.misses) == (0, 3)
    # and the bad file was replaced by a loadable one
    payload = json.loads(cache.read_text(encoding="utf-8"))
    assert sorted(payload) == ["files", "fingerprint", "version"]
    assert len(payload["files"]) == 3


def test_suppressions_survive_the_cache(tree, tmp_path):
    cache = str(tmp_path / "cache.json")
    cold = analyze_project([str(tree)], cache_file=cache)
    warm = analyze_project([str(tree)], cache_file=cache)
    # c.py's RL013 site is suppressed; the (live) project phase must
    # honour the *cached* suppression map on warm runs too
    assert [f for f in cold.findings if f.rule == "RL013"] == []
    assert [f for f in warm.findings if f.rule == "RL013"] == []
    assert warm.cache is not None and warm.cache.hits == 3


def test_path_order_does_not_change_findings(tree):
    sim = tree / "src" / "repro" / "sim"
    forward = analyze_project([str(sim / "a.py"), str(sim / "b.py"),
                               str(sim / "c.py")])
    backward = analyze_project([str(sim / "c.py"), str(sim / "b.py"),
                                str(sim / "a.py")])
    assert forward.findings == backward.findings
    assert forward.files_scanned == backward.files_scanned


def test_fingerprint_is_stable_and_code_sensitive():
    a = ruleset_fingerprint(["RL001", "RL002"])
    b = ruleset_fingerprint(["RL002", "RL001"])
    c = ruleset_fingerprint(["RL001"])
    assert a == b  # order-insensitive (codes are sorted)
    assert a != c


def test_cache_survives_missing_parent_gracefully(tree, tmp_path):
    # an unwritable cache path must not fail the lint gate
    cache = str(tmp_path / "no" / "such" / "dir" / "cache.json")
    report = analyze_project([str(tree)], cache_file=cache)
    assert report.cache is not None
    assert report.cache.misses == 3


# -- CLI integration for the new knobs ----------------------------------------


def test_cli_cache_flag_reports_hits_on_the_warm_run(tree, tmp_path, capsys):
    cache = str(tmp_path / "cache.json")
    assert main([str(tree), "--cache-file", cache]) == 1
    cold_out = capsys.readouterr().out
    assert "(cache: 0 hits, 3 misses)" in cold_out
    assert main([str(tree), "--cache-file", cache]) == 1
    warm_out = capsys.readouterr().out
    assert "(cache: 3 hits, 0 misses)" in warm_out
    # findings themselves are byte-identical across the two runs
    assert cold_out.split(" (cache")[0] == warm_out.split(" (cache")[0]


def test_cli_exclude_path_fragment(tree, capsys):
    assert main([str(tree), "--exclude", "repro/sim"]) == 0
    assert "0 findings in 0 file(s)" in capsys.readouterr().out


def test_cli_exclude_bare_directory_name(tree, capsys):
    assert main([str(tree), "--exclude", "sim"]) == 0
    assert "0 findings in 0 file(s)" in capsys.readouterr().out


def test_fixture_exclusion_is_scoped_to_tests_analysis(tmp_path):
    # satellite regression: only tests/analysis/fixtures is exempt —
    # a fixtures/ directory elsewhere is linted like any other package
    linted = tmp_path / "src" / "repro" / "fixtures"
    linted.mkdir(parents=True)
    (linted / "data.py").write_text("X = 1\n", encoding="utf-8")
    exempt = tmp_path / "tests" / "analysis" / "fixtures"
    exempt.mkdir(parents=True)
    (exempt / "bad.py").write_text("X = 1\n", encoding="utf-8")
    files = iter_python_files([str(tmp_path)])
    assert [f.name for f in files] == ["data.py"]
