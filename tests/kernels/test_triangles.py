"""Numpy triangle counting vs the scipy triple-product oracle."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.datasets import list_datasets, load_dataset
from repro.graph.generators import complete_graph, ring_graph
from repro.kernels import reference, triangle
from repro.kernels.triangle import TriangleCounting


def counts(graph: CSRGraph) -> np.ndarray:
    kernel = TriangleCounting()
    return kernel.result(kernel.run_host(graph))


def messy_graph() -> CSRGraph:
    # Self-loops, duplicate edges and reciprocal pairs around two
    # triangles sharing the edge (1, 2), plus a pendant vertex.
    src = [0, 1, 2, 0, 0, 1, 2, 3, 3, 1, 2, 4, 4, 0]
    dst = [1, 2, 0, 1, 0, 1, 1, 1, 2, 3, 2, 0, 4, 2]
    return CSRGraph.from_edges(src, dst, 6)


@pytest.mark.parametrize("name", list_datasets())
def test_matches_oracle_on_tiny_datasets(name):
    graph, _spec = load_dataset(name, tier="tiny")
    assert np.array_equal(counts(graph), reference.triangles(graph))


@pytest.mark.parametrize(
    "graph",
    [complete_graph(7), ring_graph(9), CSRGraph.empty(4), messy_graph()],
    ids=["complete", "ring", "empty", "loops-duplicates-reciprocal"],
)
def test_matches_oracle_on_small_graphs(graph):
    assert np.array_equal(counts(graph), reference.triangles(graph))


def test_messy_graph_counts():
    # Triangles {0,1,2} and {1,2,3}; self-loops and repeats add nothing.
    assert counts(messy_graph()).tolist() == [1, 2, 2, 1, 0, 0]


@pytest.mark.parametrize("block", [1, 7])
def test_block_boundaries(block, lj_tiny):
    expected = reference.triangles(lj_tiny)
    with mock.patch.object(triangle, "_WEDGE_BLOCK", block):
        assert np.array_equal(counts(lj_tiny), expected)
        assert np.array_equal(counts(complete_graph(9)), np.full(9, 28))


@st.composite
def edge_lists(draw, max_vertices=30, max_edges=150):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return CSRGraph.from_edges(src, dst, n)


@given(edge_lists(), st.sampled_from([1, 3, 1 << 22]))
@settings(max_examples=60, deadline=None)
def test_matches_oracle_on_random_edge_lists(graph, block):
    with mock.patch.object(triangle, "_WEDGE_BLOCK", block):
        assert np.array_equal(counts(graph), reference.triangles(graph))
