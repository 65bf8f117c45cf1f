"""Unit tests for Gluon-style master/mirror construction."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph
from repro.partition.base import PartitionAssignment, communication_volume
from repro.partition.mirrors import build_mirror_table, replication_factor


def assign(parts, k):
    return PartitionAssignment(np.asarray(parts, dtype=np.int64), k)


@pytest.fixture
def cross_graph():
    # 0,1 on part 0; 2,3 on part 1.  Edges: 0->2, 1->2, 0->1, 2->3.
    g = CSRGraph.from_edges([0, 1, 0, 2], [2, 2, 1, 3], 4)
    return g, assign([0, 0, 1, 1], 2)


class TestPushMirrors:
    def test_mirror_pairs(self, cross_graph):
        g, a = cross_graph
        table = build_mirror_table(g, a)
        # Only vertex 2 is written from a remote part (part 0).
        assert table.num_mirrors == 1
        assert list(table.mirror_vertices) == [2]
        assert list(table.mirror_parts) == [0]

    def test_counts(self, cross_graph):
        g, a = cross_graph
        table = build_mirror_table(g, a)
        per_vertex = table.mirrors_per_vertex()
        assert per_vertex[2] == 1
        assert per_vertex.sum() == 1
        assert list(table.mirrors_per_part()) == [1, 0]

    def test_lookup_helpers(self, cross_graph):
        g, a = cross_graph
        table = build_mirror_table(g, a)
        assert list(table.mirror_parts_of(2)) == [0]
        assert list(table.vertices_mirrored_on(0)) == [2]
        assert table.mirror_parts_of(0).size == 0

    def test_matches_communication_volume(self, tiny_rmat):
        # Push mirrors are exactly the (dst, remote part) pairs, i.e. the
        # communication volume metric.
        a = assign(np.arange(tiny_rmat.num_vertices) % 4, 4)
        table = build_mirror_table(tiny_rmat, a)
        assert table.num_mirrors == communication_volume(tiny_rmat, a)

    def test_arrays_are_read_only(self, cross_graph):
        g, a = cross_graph
        table = build_mirror_table(g, a)
        with pytest.raises(ValueError):
            table.mirror_vertices[0] = 0
        with pytest.raises(ValueError):
            table.mirror_parts[0] = 1

    def test_dedup_multiple_edges(self):
        # Many edges from one part to one vertex -> one mirror.
        g = CSRGraph.from_edges([0, 1, 2], [3, 3, 3], 4)
        a = assign([0, 0, 0, 1], 2)
        table = build_mirror_table(g, a)
        assert table.num_mirrors == 1


class TestPullMirrors:
    def test_direction(self, cross_graph):
        g, a = cross_graph
        table = build_mirror_table(g, a, direction="pull")
        # Pull: destinations' parts hold mirrors of remote sources: part 1
        # reads vertices 0 and 1 (edges 0->2, 1->2).
        assert set(zip(table.mirror_vertices.tolist(), table.mirror_parts.tolist())) == {
            (0, 1),
            (1, 1),
        }

    def test_bad_direction(self, cross_graph):
        g, a = cross_graph
        with pytest.raises(PartitionError):
            build_mirror_table(g, a, direction="sideways")


class TestReplicationFactor:
    def test_no_cut(self):
        g = CSRGraph.from_edges([0, 1], [1, 0], 4)
        table = build_mirror_table(g, assign([0, 0, 1, 1], 2))
        assert replication_factor(table) == 1.0

    def test_counts_mirrors(self, cross_graph):
        g, a = cross_graph
        table = build_mirror_table(g, a)
        assert replication_factor(table) == pytest.approx(1.25)

    def test_grows_with_parts(self, tiny_rmat):
        n = tiny_rmat.num_vertices
        r2 = replication_factor(
            build_mirror_table(tiny_rmat, assign(np.arange(n) % 2, 2))
        )
        r8 = replication_factor(
            build_mirror_table(tiny_rmat, assign(np.arange(n) % 8, 8))
        )
        assert r8 > r2

    def test_empty_graph(self):
        g = CSRGraph.empty(0)
        table = build_mirror_table(g, PartitionAssignment(np.empty(0, dtype=np.int64), 1))
        assert replication_factor(table) == 1.0
