"""Property-based tests on the graph substrate (hypothesis)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import csr
from repro.graph.csr import CSRGraph
from repro.graph.stats import gini
from repro.graph.traversal import bfs_levels, weak_component_labels


@st.composite
def edge_lists(draw, max_vertices=40, max_edges=120):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    dst = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    return n, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_csr_structural_invariants(data):
    n, src, dst = data
    g = CSRGraph.from_edges(src, dst, n)
    # indptr monotone, covers all edges
    assert g.indptr[0] == 0
    assert g.indptr[-1] == g.num_edges == src.size
    assert np.all(np.diff(g.indptr) >= 0)
    # degrees consistent
    assert g.out_degrees.sum() == g.num_edges
    assert g.in_degrees.sum() == g.num_edges
    g.validate()


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_edge_multiset_preserved(data):
    n, src, dst = data
    g = CSRGraph.from_edges(src, dst, n)
    s2, d2 = g.edge_array()
    original = sorted(zip(src.tolist(), dst.tolist()))
    rebuilt = sorted(zip(s2.tolist(), d2.tolist()))
    assert original == rebuilt


@given(edge_lists())
@settings(max_examples=40, deadline=None)
def test_reverse_involution(data):
    n, src, dst = data
    g = CSRGraph.from_edges(src, dst, n)
    assert g.reverse().reverse() == g
    # reverse swaps degree roles
    assert np.array_equal(g.reverse().out_degrees, g.in_degrees)


@given(edge_lists())
@settings(max_examples=40, deadline=None)
def test_symmetrized_is_symmetric_and_superset(data):
    n, src, dst = data
    g = CSRGraph.from_edges(src, dst, n, dedup=True)
    s = g.symmetrized()
    assert np.array_equal(s.out_degrees, s.in_degrees)
    # every original edge survives
    ss, sd = s.edge_array()
    pairs = set(zip(ss.tolist(), sd.tolist()))
    for u, v in zip(*g.edge_array()):
        assert (int(u), int(v)) in pairs


@given(edge_lists())
@settings(max_examples=40, deadline=None)
def test_dedup_idempotent(data):
    n, src, dst = data
    once = CSRGraph.from_edges(src, dst, n, dedup=True)
    s, d = once.edge_array()
    twice = CSRGraph.from_edges(s, d, n, dedup=True)
    assert once == twice


def _lexsort_oracle(n, src, dst, weights, dedup, sort_neighbors):
    """``(indptr, indices, weights)`` as the two-key lexsort build gives them."""
    if sort_neighbors or dedup:
        order = np.lexsort((dst, src))
    else:
        order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    weights = None if weights is None else weights[order]
    if dedup and src.size:
        keep = np.ones(src.size, dtype=bool)
        keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst = src[keep], dst[keep]
        weights = None if weights is None else weights[keep]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    return indptr, dst, weights


@pytest.mark.parametrize("path", ["key", "lexsort"])
@given(
    edge_lists(max_vertices=12, max_edges=150),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_from_edges_matches_lexsort_oracle(path, data, weighted, dedup, sort_neighbors):
    # Few vertices and many edges make duplicate pairs the common case;
    # distinct weights show which duplicate dedup kept.
    n, src, dst = data
    weights = np.arange(src.size, dtype=np.float64) if weighted else None
    # ``n`` is the largest count sorted on the single key, ``n - 1`` the
    # smallest that falls back to lexsort.
    key_max_n = n if path == "key" else n - 1
    with mock.patch.object(csr, "_KEY_MAX_N", key_max_n):
        g = CSRGraph.from_edges(
            src, dst, n, weights, dedup=dedup, sort_neighbors=sort_neighbors
        )
    indptr, indices, w = _lexsort_oracle(n, src, dst, weights, dedup, sort_neighbors)
    assert np.array_equal(g.indptr, indptr)
    assert np.array_equal(g.indices, indices)
    if weighted:
        assert np.array_equal(g.weights, w)
    else:
        assert g.weights is None


@given(edge_lists())
@settings(max_examples=30, deadline=None)
def test_bfs_levels_are_shortest(data):
    n, src, dst = data
    g = CSRGraph.from_edges(src, dst, n)
    levels = bfs_levels(g, 0)
    assert levels[0] == 0
    # every edge relaxes by at most one level
    for u, v in zip(*g.edge_array()):
        if levels[u] >= 0:
            assert levels[v] >= 0
            assert levels[v] <= levels[u] + 1


@given(edge_lists())
@settings(max_examples=30, deadline=None)
def test_component_labels_are_fixpoints(data):
    n, src, dst = data
    g = CSRGraph.from_edges(src, dst, n)
    labels = weak_component_labels(g)
    # endpoints of every edge share a label; labels are component minima
    for u, v in zip(*g.edge_array()):
        assert labels[u] == labels[v]
    for comp in np.unique(labels):
        members = np.nonzero(labels == comp)[0]
        assert comp == members.min()


@given(
    st.lists(st.integers(0, 1000), min_size=1, max_size=60).map(np.asarray)
)
@settings(max_examples=50, deadline=None)
def test_gini_bounds(values):
    v = gini(values.astype(np.float64))
    assert -1e-9 <= v < 1.0
