"""Tests for the LDG streaming partitioner and its registry entry."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph
from repro.partition import (
    HashPartitioner,
    LDGStreamingPartitioner,
    edge_cut,
    get_partitioner,
    list_partitioners,
)


def two_cliques(size=8):
    import itertools

    edges = [(u, v) for u, v in itertools.permutations(range(size), 2)]
    edges += [(u + size, v + size) for u, v in edges]
    edges.append((0, size))
    src, dst = zip(*edges)
    return CSRGraph.from_edges(np.array(src), np.array(dst), 2 * size)


class TestLDG:
    def test_contract(self, tiny_rmat):
        a = LDGStreamingPartitioner().partition(tiny_rmat, 5, seed=1)
        assert a.num_parts == 5
        assert a.sizes().sum() == tiny_rmat.num_vertices

    def test_capacity_respected(self, tiny_rmat):
        slack = 0.1
        a = LDGStreamingPartitioner(slack=slack).partition(tiny_rmat, 4, seed=2)
        cap = (1 + slack) * tiny_rmat.num_vertices / 4
        assert a.sizes().max() <= np.ceil(cap)

    def test_beats_hash_on_structured_graph(self, lj_tiny):
        ldg_cut = edge_cut(
            lj_tiny, LDGStreamingPartitioner().partition(lj_tiny, 8, seed=1)
        )
        hash_cut = edge_cut(lj_tiny, HashPartitioner().partition(lj_tiny, 8))
        assert ldg_cut < hash_cut

    def test_two_cliques(self):
        g = two_cliques()
        a = LDGStreamingPartitioner(order="bfs").partition(g, 2, seed=4)
        # one clique should end up (mostly) whole on one side
        assert edge_cut(g, a) < g.num_edges / 4

    @pytest.mark.parametrize("order", ["random", "natural", "bfs"])
    def test_stream_orders(self, order, tiny_er):
        a = LDGStreamingPartitioner(order=order).partition(tiny_er, 4, seed=5)
        assert a.sizes().sum() == tiny_er.num_vertices

    def test_deterministic(self, tiny_rmat):
        a = LDGStreamingPartitioner().partition(tiny_rmat, 4, seed=7)
        b = LDGStreamingPartitioner().partition(tiny_rmat, 4, seed=7)
        assert a == b

    def test_param_validation(self):
        with pytest.raises(PartitionError):
            LDGStreamingPartitioner(slack=-0.1)
        with pytest.raises(PartitionError):
            LDGStreamingPartitioner(order="chaotic")

    def test_empty_graph(self):
        a = LDGStreamingPartitioner().partition(CSRGraph.empty(0), 1)
        assert a.num_vertices == 0


class TestRegistryUpdated:
    def test_new_names_registered(self):
        names = list_partitioners()
        assert "ldg" in names

    def test_factory_kwargs(self):
        p = get_partitioner("ldg", slack=0.25)
        assert p.slack == 0.25
