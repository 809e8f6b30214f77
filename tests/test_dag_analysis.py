"""Tests for repro.dag.analysis — DAG metrics."""

import networkx as nx
import pytest

from repro.dag import (
    Workflow,
    critical_path,
    critical_path_length,
    level_widths,
    profile_dag,
    serial_runtime,
)

from tests.conftest import make_activation


class TestSerialRuntime:
    def test_chain(self, chain):
        assert serial_runtime(chain) == pytest.approx(1 + 2 + 3 + 4 + 5)

    def test_empty(self):
        assert serial_runtime(Workflow("w")) == 0.0


class TestCriticalPath:
    def test_diamond_takes_heavier_branch(self, diamond):
        path, length = critical_path(diamond)
        assert path == [0, 1, 3]  # branch through runtime-20 node
        assert length == pytest.approx(10 + 20 + 8)

    def test_chain_is_whole_chain(self, chain):
        path, length = critical_path(chain)
        assert path == [0, 1, 2, 3, 4]
        assert length == pytest.approx(15.0)

    def test_empty(self):
        assert critical_path(Workflow("w")) == ([], 0.0)

    def test_single_node(self):
        wf = Workflow("w")
        wf.add_activation(make_activation(0, runtime=7.0))
        assert critical_path(wf) == ([0], 7.0)

    def test_path_is_connected(self, montage25):
        path, _ = critical_path(montage25)
        for a, b in zip(path, path[1:]):
            assert b in montage25.children(a)

    def test_matches_networkx_longest_path(self, montage25):
        g = nx.DiGraph()
        g.add_nodes_from(montage25.activation_ids)
        g.add_edges_from(montage25.edges)
        # node-weighted longest path by dynamic programming in topological
        # order
        dist = {}
        for node in nx.topological_sort(g):
            preds = list(g.predecessors(node))
            base = max((dist[p] for p in preds), default=0.0)
            dist[node] = base + montage25.activation(node).runtime
        assert critical_path_length(montage25) == pytest.approx(max(dist.values()))


class TestLevelWidths:
    def test_fork_join(self, fork_join):
        assert level_widths(fork_join) == [1, 6, 1]


class TestProfile:
    def test_montage_profile(self, montage50):
        p = profile_dag(montage50)
        assert p.n_activations == 50
        assert p.n_levels == 9  # Montage's nine activity levels
        assert p.parallelism > 1.0
        assert p.serial_runtime > p.critical_path_runtime

    def test_rows_renderable(self, diamond):
        rows = profile_dag(diamond).rows()
        assert ("activations", 4) in rows

    def test_parallelism_of_chain_is_one(self, chain):
        assert profile_dag(chain).parallelism == pytest.approx(1.0)

    def test_empty_workflow(self):
        p = profile_dag(Workflow("w"))
        assert p.n_activations == 0
        assert p.parallelism == 0.0
