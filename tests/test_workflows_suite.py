"""Tests for the other Pegasus workflows + the registry + properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dag import profile_dag
from repro.util.validate import ValidationError
from repro.workflows import (
    CyberShakeRecipe,
    available_workflows,
    cybershake,
    epigenomics,
    inspiral,
    make_workflow,
    sipht,
)
from repro.workflows.registry import recipe_class


class TestCyberShake:
    def test_exact_size(self):
        for n in (5, 17, 30, 60):
            assert len(cybershake(n)) == n

    def test_four_levels(self):
        assert len(cybershake(30).levels()) == 4

    def test_activities(self):
        acts = {ac.activity for ac in cybershake(30)}
        assert acts == {"ExtractSGT", "SeismogramSynthesis", "ZipSeis",
                        "PeakValCalcOkaya", "ZipPSA"}

    def test_zips_are_sinks(self):
        wf = cybershake(30)
        exits = {wf.activation(i).activity for i in wf.exits()}
        assert exits == {"ZipSeis", "ZipPSA"}

    def test_too_small(self):
        with pytest.raises(ValidationError):
            cybershake(CyberShakeRecipe.min_activations() - 1)


class TestEpigenomics:
    def test_exact_size(self):
        for n in (8, 24, 32):
            assert len(epigenomics(n)) == n

    def test_chain_heavy(self):
        # epigenomics is deep: at least 6 levels even when small
        assert len(epigenomics(8).levels()) >= 6

    def test_pileup_is_sink(self):
        wf = epigenomics(24)
        assert [wf.activation(i).activity for i in wf.exits()] == ["pileup"]

    def test_map_dominates_runtime(self):
        wf = epigenomics(24)
        map_time = sum(ac.runtime for ac in wf if ac.activity == "map")
        assert map_time > 0.5 * sum(ac.runtime for ac in wf)


class TestInspiral:
    def test_exact_size(self):
        for n in (6, 22, 30, 44):
            assert len(inspiral(n)) == n

    def test_six_levels(self):
        assert len(inspiral(30).levels()) == 6

    def test_structure(self):
        wf = inspiral(30)
        counts = {}
        for ac in wf:
            counts[ac.activity] = counts.get(ac.activity, 0) + 1
        assert counts["TmpltBank"] == counts["Inspiral"]
        assert counts["TrigBank"] == counts["Inspiral2"]
        assert counts["Thinca"] == counts["Thinca2"]


class TestSipht:
    def test_exact_size(self):
        for n in (13, 30, 60):
            assert len(sipht(n)) == n

    def test_annotate_is_single_sink(self):
        wf = sipht(30)
        assert [wf.activation(i).activity for i in wf.exits()] == ["SRNA_annotate"]

    def test_patser_pool_scales(self):
        small = sum(1 for ac in sipht(13) if ac.activity == "Patser")
        large = sum(1 for ac in sipht(40) if ac.activity == "Patser")
        assert small == 1 and large == 28


class TestRegistry:
    def test_lists_all_five(self):
        assert available_workflows() == [
            "cybershake", "epigenomics", "inspiral", "montage", "sipht"
        ]

    def test_make_by_name(self):
        wf = make_workflow("montage", 25, seed=4)
        assert wf.name == "montage-25"

    def test_defaults(self):
        assert len(make_workflow("montage")) == 50  # the paper's size

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            make_workflow("nonexistent")


RECIPE_RANGES = [
    ("montage", 11, 59),
    ("cybershake", 5, 59),
    ("epigenomics", 8, 59),
    ("inspiral", 6, 59),
    ("sipht", 13, 59),
]


def _draw_size(data, name, lo, hi):
    """Draw a target size and snap it to the nearest constructible one."""
    target = data.draw(st.integers(min_value=lo, max_value=hi))
    return recipe_class(name).nearest_constructible(target)


class TestGeneratorProperties:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_all_recipes_yield_valid_exact_dags(self, data):
        name, lo, hi = data.draw(st.sampled_from(RECIPE_RANGES))
        n = _draw_size(data, name, lo, hi)
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        wf = make_workflow(name, n, seed=seed)
        assert len(wf) == n
        wf.validate()
        # all runtimes positive, all files non-negative
        for ac in wf:
            assert ac.runtime > 0
            for f in list(ac.inputs) + list(ac.outputs):
                assert f.size_bytes >= 0

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_single_entry_component_reachability(self, data):
        """Every activation is reachable from some entry (no orphans)."""
        name, lo, hi = data.draw(st.sampled_from(RECIPE_RANGES))
        n = _draw_size(data, name, lo, hi)
        wf = make_workflow(name, n, seed=0)
        reached = set(wf.entries())
        frontier = list(reached)
        while frontier:
            node = frontier.pop()
            for child in wf.children(node):
                if child not in reached:
                    reached.add(child)
                    frontier.append(child)
        assert reached == set(wf.activation_ids)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_parallelism_exceeds_one(self, data):
        """Each benchmark workflow has exploitable parallelism."""
        name, lo, hi = data.draw(st.sampled_from(RECIPE_RANGES))
        n = _draw_size(data, name, max(lo, 20), hi)
        p = profile_dag(make_workflow(name, n, seed=1))
        assert p.parallelism > 1.0
