"""Gluon-style master/mirror construction (paper Fig. 2).

Each vertex has one *master* on its owning part.  Under the push execution
model, a part that traverses an edge ``u → v`` whose destination is owned
elsewhere keeps a local *mirror* of ``v``: it accumulates partial updates
there and ships one reduced update per (vertex, part) pair to the master in
the apply phase.  The number of mirrors therefore bounds per-iteration
communication — the quantity METIS-style partitioning minimizes and
in-network aggregation collapses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph
from repro.partition.base import PartitionAssignment


@dataclass(frozen=True)
class MirrorTable:
    """All (vertex, part) mirror pairs for one partitioned graph.

    Attributes
    ----------
    mirror_vertices / mirror_parts:
        parallel arrays; pair ``i`` says part ``mirror_parts[i]`` holds a
        mirror of vertex ``mirror_vertices[i]``.  Sorted by vertex then part.
    num_vertices / num_parts:
        dimensions of the underlying assignment.
    direction:
        ``"push"`` — mirrors of remote *destinations* on the source's part
        (updates flow mirror → master), or ``"pull"`` — mirrors of remote
        *sources* on the destination's part.
    """

    mirror_vertices: np.ndarray
    mirror_parts: np.ndarray
    num_vertices: int
    num_parts: int
    direction: str = "push"

    def __post_init__(self) -> None:
        # Shared by reference like the graph it mirrors: read-only arrays.
        self.mirror_vertices.setflags(write=False)
        self.mirror_parts.setflags(write=False)

    @property
    def num_mirrors(self) -> int:
        """Total mirror (vertex, part) pairs."""
        return int(self.mirror_vertices.size)

    def mirrors_per_vertex(self) -> np.ndarray:
        """``int64[n]`` mirror count of every vertex."""
        return np.bincount(
            self.mirror_vertices, minlength=self.num_vertices
        ).astype(np.int64)

    def mirrors_per_part(self) -> np.ndarray:
        """``int64[k]`` mirrors hosted on every part."""
        return np.bincount(self.mirror_parts, minlength=self.num_parts).astype(
            np.int64
        )

    def mirror_parts_of(self, vertex: int) -> np.ndarray:
        """Parts holding a mirror of ``vertex``."""
        mask = self.mirror_vertices == vertex
        return self.mirror_parts[mask]

    def vertices_mirrored_on(self, part: int) -> np.ndarray:
        """Vertices that have a mirror on ``part``."""
        mask = self.mirror_parts == part
        return self.mirror_vertices[mask]


def build_mirror_table(
    graph: CSRGraph,
    assignment: PartitionAssignment,
    *,
    direction: str = "push",
) -> MirrorTable:
    """Build the :class:`MirrorTable` for ``graph`` under ``assignment``."""
    assignment._check_graph(graph)
    if direction not in ("push", "pull"):
        raise PartitionError(f"direction must be 'push' or 'pull', got {direction!r}")
    src, dst = graph.edge_array()
    p_src = assignment.parts[src]
    p_dst = assignment.parts[dst]
    cross = p_src != p_dst
    if direction == "push":
        vert, part = dst[cross], p_src[cross]
    else:
        vert, part = src[cross], p_dst[cross]
    if vert.size:
        keys = np.unique(vert * np.int64(assignment.num_parts) + part)
        vert = keys // assignment.num_parts
        part = keys % assignment.num_parts
    return MirrorTable(
        mirror_vertices=vert.astype(np.int64),
        mirror_parts=part.astype(np.int64),
        num_vertices=graph.num_vertices,
        num_parts=assignment.num_parts,
        direction=direction,
    )


def replication_factor(table: MirrorTable) -> float:
    """Average replicas per vertex: ``(masters + mirrors) / masters``."""
    if table.num_vertices == 0:
        return 1.0
    return 1.0 + table.num_mirrors / table.num_vertices
