"""Every graph constructor yields the same stored form.

``InterferenceGraph`` keeps one adjacency representation (canonical CSR)
and derives every other view from it, so the five ways of building a
graph must agree on every query and on ``==``/``hash``.  The property
test draws edge lists with duplicates and reversed pairs and covers the
degenerate sizes (N=0, N=1) and the empty and complete graphs.
"""

from __future__ import annotations

from typing import List, Tuple

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MarketConfigurationError
from repro.interference.graph import InterferenceGraph, InterferenceMap


@st.composite
def edge_lists(draw) -> Tuple[int, List[Tuple[int, int]]]:
    """``(n, edges)`` with possibly duplicated and reversed pairs."""
    n = draw(st.integers(min_value=0, max_value=12))
    shape = draw(st.sampled_from(["random", "empty", "complete"]))
    if n < 2 or shape == "empty":
        return n, []
    if shape == "complete":
        edges = [(j, k) for j in range(n) for k in range(j + 1, n)]
        # Reverse a drawn subset and repeat another, so the complete
        # graph is reached through the normaliser's merge path too.
        flips = draw(st.lists(st.sampled_from(edges), max_size=4))
        return n, edges + [(k, j) for j, k in flips]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    return n, draw(st.lists(pair, max_size=3 * n))


def _all_constructors(n: int, edges: List[Tuple[int, int]]):
    matrix = np.zeros((n, n), dtype=bool)
    for j, k in edges:
        matrix[j, k] = matrix[k, j] = True
    u = np.array([j for j, _ in edges], dtype=np.int64)
    v = np.array([k for _, k in edges], dtype=np.int64)
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(range(n))
    nx_graph.add_edges_from(edges)
    clique_map = InterferenceMap([InterferenceGraph(n)])
    for j, k in edges:
        clique_map = clique_map.with_clique([j, k])
    return {
        "init": InterferenceGraph(n, edges),
        "matrix": InterferenceGraph.from_adjacency_matrix(matrix),
        "edge_arrays": InterferenceGraph.from_edge_arrays(n, u, v),
        "networkx": InterferenceGraph.from_networkx(nx_graph, num_buyers=n),
        "with_clique": clique_map[0],
    }


def _assert_same_graph(graph: InterferenceGraph, reference: InterferenceGraph):
    n = reference.num_buyers
    assert graph == reference
    assert hash(graph) == hash(reference)
    assert graph.num_buyers == n
    assert graph.num_edges == reference.num_edges
    assert list(graph.edges()) == list(reference.edges())
    for j in range(n):
        assert graph.neighbors(j) == reference.neighbors(j)
        assert graph.degree(j) == reference.degree(j)
        for k in range(n):
            assert graph.interferes(j, k) == reference.interferes(j, k)
    for got, want in zip(graph.neighbor_csr(), reference.neighbor_csr()):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(graph.packed_rows(), reference.packed_rows())
    for got, want in zip(graph.edge_arrays(), reference.edge_arrays()):
        np.testing.assert_array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(case=edge_lists())
def test_constructors_agree_on_every_view(case):
    n, edges = case
    expected = sorted({(min(j, k), max(j, k)) for j, k in edges})
    graphs = _all_constructors(n, edges)
    reference = graphs["init"]
    assert list(reference.edges()) == expected
    assert reference.num_edges == len(expected)
    for name, graph in graphs.items():
        try:
            _assert_same_graph(graph, reference)
        except AssertionError as exc:
            raise AssertionError(f"{name} differs from init on n={n}") from exc


class TestMalformedInput:
    """Malformed endpoints end in ``MarketConfigurationError``."""

    def test_fractional_edge_arrays_rejected(self):
        # Casting would silently truncate this to the edge (0, 1).
        with pytest.raises(MarketConfigurationError):
            InterferenceGraph.from_edge_arrays(3, [0.5], [1.7])

    def test_fractional_edge_pair_rejected(self):
        with pytest.raises(MarketConfigurationError):
            InterferenceGraph(3, [(0.5, 1)])

    def test_nan_adjacency_entries_rejected(self):
        matrix = np.zeros((3, 3))
        matrix[0, 1] = matrix[1, 0] = np.nan
        with pytest.raises(MarketConfigurationError):
            InterferenceGraph.from_adjacency_matrix(matrix)

    def test_ragged_edge_pairs_rejected(self):
        with pytest.raises(MarketConfigurationError):
            InterferenceGraph(3, [(0, 1, 2)])

    def test_unequal_edge_arrays_rejected(self):
        with pytest.raises(MarketConfigurationError):
            InterferenceGraph.from_edge_arrays(3, [0, 1], [2])
