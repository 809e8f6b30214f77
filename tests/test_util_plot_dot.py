"""Tests for the ASCII plotting and DOT export utilities."""

import pytest

from repro.dag import to_dot
from repro.util import ascii_plot, sparkline
from repro.util.validate import ValidationError
from repro.workflows import montage


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_monotone_series(self):
        s = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert s[0] == "▁" and s[-1] == "█"
        assert len(s) == 8

    def test_extremes_mapped(self):
        s = sparkline([10.0, 0.0, 10.0])
        assert s == "█▁█"


class TestAsciiPlot:
    def test_basic_shape(self):
        text = ascii_plot([1, 5, 3, 8, 2], width=20, height=5, title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert len(lines) == 1 + 5 + 1  # title + rows + axis
        assert "8.0" in lines[1]  # max label on top row
        assert "1.0" in lines[5]  # min label on bottom row

    def test_downsampling(self):
        series = list(range(1000))
        text = ascii_plot(series, width=50, height=6)
        body = [line for line in text.splitlines() if "|" in line]
        assert all(len(line.split("|")[1]) <= 50 for line in body)

    def test_every_point_plotted(self):
        text = ascii_plot([1, 2, 3], width=30, height=4)
        assert text.count("*") == 3

    def test_y_label(self):
        text = ascii_plot([1, 2], y_label="episode")
        assert text.splitlines()[-1].strip() == "episode"

    def test_validation(self):
        with pytest.raises(ValidationError):
            ascii_plot([])
        with pytest.raises(ValidationError):
            ascii_plot([1, 2], width=5)

    def test_learning_curve_integration(self, montage25, fleet16):
        from repro.core import ReassignLearner, ReassignParams

        result = ReassignLearner(
            montage25, fleet16,
            ReassignParams(episodes=5), seed=1,
        ).learn()
        text = ascii_plot(result.makespan_curve(), title="learning curve")
        assert "learning curve" in text


class TestDotExport:
    def test_structure(self, diamond):
        dot = to_dot(diamond)
        assert dot.startswith('digraph "diamond"')
        assert dot.rstrip().endswith("}")
        for i in range(4):
            assert f"n{i} [" in dot
        assert "n0 -> n1;" in dot and "n2 -> n3;" in dot

    def test_activity_colours_consistent(self):
        wf = montage(25, seed=1)
        dot = to_dot(wf)
        # all mProjectPP nodes share one fill colour
        colours = {
            line.split('fillcolor="')[1].split('"')[0]
            for line in dot.splitlines()
            if "mProjectPP" in line
        }
        assert len(colours) == 1

    def test_runtime_toggle(self, diamond):
        with_rt = to_dot(diamond)
        without = to_dot(diamond, include_runtimes=False)
        assert "(10.0s)" in with_rt
        assert "(10.0s)" not in without

    def test_file_output(self, diamond, tmp_path):
        path = tmp_path / "wf.dot"
        to_dot(diamond, path)
        assert path.read_text().startswith("digraph")

    def test_quote_escaping(self):
        from repro.dag import Workflow
        from tests.conftest import make_activation

        wf = Workflow('we"ird')
        wf.add_activation(make_activation(0))
        assert r"\"" in to_dot(wf)
