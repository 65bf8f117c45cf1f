"""Unit tests for partition assignments and quality metrics."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph
from repro.graph.generators import complete_graph, ring_graph, star_graph
from repro.partition.base import (
    PartitionAssignment,
    balance_ratio,
    communication_volume,
    edge_balance_ratio,
    edge_cut,
    partition_quality,
)


def assign(parts, k):
    return PartitionAssignment(np.asarray(parts, dtype=np.int64), k)


class TestPartitionAssignment:
    def test_basic_accessors(self):
        a = assign([0, 1, 0, 1], 2)
        assert a.num_vertices == 4
        assert a.num_parts == 2
        assert a.part_of(1) == 1
        assert list(a.vertices_of(0)) == [0, 2]
        assert list(a.sizes()) == [2, 2]

    def test_empty_parts_allowed(self):
        a = assign([0, 0], 3)
        assert list(a.sizes()) == [2, 0, 0]

    def test_out_of_range_part_rejected(self):
        with pytest.raises(PartitionError, match="part ids"):
            assign([0, 2], 2)

    def test_negative_part_rejected(self):
        with pytest.raises(PartitionError):
            assign([-1, 0], 2)

    def test_zero_parts_rejected(self):
        with pytest.raises(PartitionError):
            assign([], 0)

    def test_vertices_of_range_check(self):
        a = assign([0], 1)
        with pytest.raises(PartitionError):
            a.vertices_of(1)

    def test_edge_sizes(self):
        g = star_graph(4)  # hub 0 has 4 out-edges
        a = assign([0, 1, 1, 1, 1], 2)
        assert list(a.edge_sizes(g)) == [4, 0]

    def test_graph_size_mismatch(self):
        g = ring_graph(5)
        a = assign([0, 1], 2)
        with pytest.raises(PartitionError, match="covers"):
            a.edge_sizes(g)

    def test_parts_are_read_only(self):
        a = assign([0, 1, 1], 2)
        with pytest.raises(ValueError):
            a.parts[0] = 1
        assert list(a.parts) == [0, 1, 1]

    def test_equality(self):
        assert assign([0, 1], 2) == assign([0, 1], 2)
        assert assign([0, 1], 2) != assign([1, 0], 2)
        assert assign([0, 1], 2) != assign([0, 1], 3)


class TestEdgeCut:
    def test_all_local(self):
        g = CSRGraph.from_edges([0, 1], [1, 0], 4)
        a = assign([0, 0, 1, 1], 2)
        assert edge_cut(g, a) == 0

    def test_all_cut(self):
        g = CSRGraph.from_edges([0, 2], [2, 0], 4)
        a = assign([0, 0, 1, 1], 2)
        assert edge_cut(g, a) == 2

    def test_single_part_no_cut(self, tiny_er):
        a = assign(np.zeros(tiny_er.num_vertices), 1)
        assert edge_cut(tiny_er, a) == 0

    def test_cut_bounded_by_edges(self, tiny_rmat):
        a = assign(np.arange(tiny_rmat.num_vertices) % 4, 4)
        assert 0 <= edge_cut(tiny_rmat, a) <= tiny_rmat.num_edges


class TestCommunicationVolume:
    def test_counts_distinct_sender_parts(self):
        # Vertex 3 receives from parts 0 and 1 -> volume 2, not 3.
        g = CSRGraph.from_edges([0, 1, 2], [3, 3, 3], 4)
        a = assign([0, 0, 1, 2], 3)
        assert communication_volume(g, a) == 2

    def test_local_edges_free(self):
        g = CSRGraph.from_edges([0, 1], [1, 0], 2)
        a = assign([0, 0], 1)
        assert communication_volume(g, a) == 0

    def test_volume_at_most_cut(self, tiny_rmat):
        a = assign(np.arange(tiny_rmat.num_vertices) % 8, 8)
        assert communication_volume(g := tiny_rmat, a) <= edge_cut(g, a)


class TestBalance:
    def test_perfect(self):
        assert balance_ratio(assign([0, 1, 0, 1], 2)) == 1.0

    def test_skewed(self):
        assert balance_ratio(assign([0, 0, 0, 1], 2)) == 1.5

    def test_edge_balance(self):
        g = star_graph(3)
        perfect = assign([0, 1, 0, 1], 2)
        # hub (3 edges) on part 0; ideal 1.5 per part -> ratio 2.0
        assert edge_balance_ratio(g, perfect) == pytest.approx(2.0)

    def test_edge_balance_empty_graph(self):
        g = CSRGraph.empty(4)
        assert edge_balance_ratio(g, assign([0, 1, 0, 1], 2)) == 1.0


class TestPartitionQuality:
    def test_bundle_consistent(self, tiny_rmat):
        a = assign(np.arange(tiny_rmat.num_vertices) % 4, 4)
        q = partition_quality(tiny_rmat, a)
        assert q.num_parts == 4
        assert q.edge_cut == edge_cut(tiny_rmat, a)
        assert q.cut_fraction == pytest.approx(q.edge_cut / tiny_rmat.num_edges)
        assert q.communication_volume == communication_volume(tiny_rmat, a)
        assert q.balance >= 1.0
        assert q.replication >= 1.0

    def test_single_part_is_trivial(self, tiny_rmat):
        a = assign(np.zeros(tiny_rmat.num_vertices), 1)
        q = partition_quality(tiny_rmat, a)
        assert q.edge_cut == 0
        assert q.replication == 1.0
