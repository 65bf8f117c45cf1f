"""Partitioner interface, assignment container, and quality metrics.

A partition assigns every vertex to exactly one part (the paper's 1-D
model: a vertex's out-edge list lives on the memory node that owns the
vertex).  Quality is judged on the metrics the paper's Fig. 6 turns on:
edge cut and communication volume drive partial-update traffic, balance
drives memory-pool utilization.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike

_uid_counter = itertools.count()


class PartitionAssignment:
    """An immutable vertex → part mapping.

    Parameters
    ----------
    parts:
        ``int[n]`` part id per vertex, each in ``[0, num_parts)``.
    num_parts:
        total part count (parts may be empty).
    """

    __slots__ = ("parts", "num_parts", "uid", "_edge_parts_graph", "_edge_parts")

    def __init__(self, parts: np.ndarray, num_parts: int) -> None:
        parts = np.ascontiguousarray(parts, dtype=np.int64)
        if parts.ndim != 1:
            raise PartitionError("parts must be a 1-D array")
        if num_parts < 1:
            raise PartitionError(f"num_parts must be >= 1, got {num_parts}")
        if parts.size and (parts.min() < 0 or parts.max() >= num_parts):
            raise PartitionError(
                f"part ids must lie in [0, {num_parts}), saw "
                f"[{parts.min()}, {parts.max()}]"
            )
        # Assignments are shared by reference (dataset memo, serve pool,
        # uid-keyed caches): freeze the array, as CSRGraph does.
        parts.setflags(write=False)
        self.parts = parts
        self.num_parts = int(num_parts)
        #: Monotonically issued token (never reused, unlike ``id()``);
        #: structural caches key on it.
        self.uid = next(_uid_counter)
        self._edge_parts_graph: Optional[CSRGraph] = None
        self._edge_parts: Optional[np.ndarray] = None

    @property
    def num_vertices(self) -> int:
        return int(self.parts.size)

    def part_of(self, vertex: int) -> int:
        """Owning part of one vertex."""
        return int(self.parts[vertex])

    def vertices_of(self, part: int) -> np.ndarray:
        """Ids of vertices owned by ``part``."""
        if not 0 <= part < self.num_parts:
            raise PartitionError(f"part {part} out of range [0, {self.num_parts})")
        return np.nonzero(self.parts == part)[0].astype(np.int64)

    def sizes(self) -> np.ndarray:
        """Vertex count per part."""
        return np.bincount(self.parts, minlength=self.num_parts).astype(np.int64)

    def edge_source_parts(self, graph: CSRGraph) -> np.ndarray:
        """``int64[m]`` owning part of each edge's *source*, CSR-aligned.

        ``result[e] == parts[src(e)]`` for the edge stored at
        ``graph.indices[e]``.  Computed once per (assignment, graph) pair
        and cached read-only — the engine's structural profiling keys every
        traversed edge by its source part, and rebuilding that |E|-sized
        gather each iteration dominates the full-frontier hot loop.
        """
        self._check_graph(graph)
        if self._edge_parts is None or self._edge_parts_graph is not graph:
            edge_parts = np.repeat(self.parts, np.diff(graph.indptr))
            edge_parts.setflags(write=False)
            self._edge_parts_graph = graph
            self._edge_parts = edge_parts
        return self._edge_parts

    def edge_sizes(self, graph: CSRGraph) -> np.ndarray:
        """Out-edge count stored on each part (edge lists follow their source)."""
        self._check_graph(graph)
        out = np.zeros(self.num_parts, dtype=np.int64)
        np.add.at(out, self.parts, graph.out_degrees)
        return out

    def _check_graph(self, graph: CSRGraph) -> None:
        if graph.num_vertices != self.num_vertices:
            raise PartitionError(
                f"assignment covers {self.num_vertices} vertices but graph has "
                f"{graph.num_vertices}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartitionAssignment):
            return NotImplemented
        return self.num_parts == other.num_parts and np.array_equal(
            self.parts, other.parts
        )

    def __repr__(self) -> str:
        return f"PartitionAssignment(n={self.num_vertices}, k={self.num_parts})"


class Partitioner(abc.ABC):
    """Strategy interface: produce a :class:`PartitionAssignment` for a graph."""

    #: short name used by the registry and experiment configs
    name: str = "abstract"

    @abc.abstractmethod
    def partition(
        self, graph: CSRGraph, num_parts: int, *, seed: SeedLike = None
    ) -> PartitionAssignment:
        """Partition ``graph`` into ``num_parts`` parts."""

    def _check_args(self, graph: CSRGraph, num_parts: int) -> None:
        if num_parts < 1:
            raise PartitionError(f"num_parts must be >= 1, got {num_parts}")
        if graph.num_vertices == 0 and num_parts > 1:
            raise PartitionError("cannot split an empty graph into multiple parts")

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


# ---------------------------------------------------------------------- #
# Balance helpers
# ---------------------------------------------------------------------- #


def fill_lightest(sizes: np.ndarray, count: int) -> np.ndarray:
    """Part ids for ``count`` sequential lightest-part picks, vectorized.

    Reproduces exactly the scalar loop ``for _ in range(count): p =
    argmin(sizes); sizes[p] += 1`` (ties broken towards the lowest part id)
    without per-pick Python.  The greedy sequence visits picks in increasing
    ``(size-at-pick, part)`` order, and part ``p`` with starting size ``s_p``
    is picked at sizes ``s_p, s_p + 1, ...`` — so the picks are the ``count``
    smallest elements of that implicit multiset.  ``sizes`` is updated in
    place, matching the scalar loop's final state.

    Returns ``int64[count]`` part ids in pick order.
    """
    sizes = np.asarray(sizes)
    k = sizes.size
    if count < 0:
        raise PartitionError(f"count must be >= 0, got {count}")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if k == 0:
        raise PartitionError("cannot fill parts of an empty assignment")
    if count < 8:
        # Short fills are cheaper as the scalar loop they replace.
        picked = np.empty(count, dtype=np.int64)
        for i in range(count):
            p = int(np.argmin(sizes))
            picked[i] = p
            sizes[p] += 1
        return picked
    # Largest level T with #{keys < T} <= count, by binary search on the
    # monotone key-count sum(max(0, T - s_p)).
    lo = int(sizes.min())
    hi = lo + count + 1
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        below = int(np.maximum(mid - sizes, 0).sum())
        if below <= count:
            lo = mid
        else:
            hi = mid
    level = lo
    picks_per_part = np.maximum(level - sizes, 0).astype(np.int64)
    remainder = count - int(picks_per_part.sum())
    if remainder:
        # Ties at key == level go to the lowest-indexed eligible parts.
        eligible = np.flatnonzero(sizes <= level)[:remainder]
        picks_per_part[eligible] += 1
    part_ids = np.repeat(np.arange(k, dtype=np.int64), picks_per_part)
    # Key of part p's j-th pick is s_p + j (its size at that moment).
    slice_start = np.zeros(k, dtype=np.int64)
    np.cumsum(picks_per_part[:-1], out=slice_start[1:])
    within = np.arange(count, dtype=np.int64) - slice_start[part_ids]
    keys = sizes[part_ids] + within
    order = np.lexsort((part_ids, keys))
    picked = part_ids[order]
    sizes += picks_per_part
    return picked


# ---------------------------------------------------------------------- #
# Quality metrics
# ---------------------------------------------------------------------- #


def edge_cut(graph: CSRGraph, assignment: PartitionAssignment) -> int:
    """Number of directed edges whose endpoints lie in different parts."""
    assignment._check_graph(graph)
    src, dst = graph.edge_array()
    return int(np.count_nonzero(assignment.parts[src] != assignment.parts[dst]))


def communication_volume(graph: CSRGraph, assignment: PartitionAssignment) -> int:
    """Total communication volume: Σ_v #distinct remote parts sending to v.

    This counts, for every vertex, how many parts other than its owner hold
    at least one in-edge of it — exactly the per-iteration partial-update
    message count when all vertices are active (PageRank steady state).
    """
    assignment._check_graph(graph)
    src, dst = graph.edge_array()
    p_src = assignment.parts[src]
    p_dst = assignment.parts[dst]
    cross = p_src != p_dst
    if not cross.any():
        return 0
    pairs = np.unique(
        dst[cross] * np.int64(assignment.num_parts) + p_src[cross]
    )
    return int(pairs.size)


def balance_ratio(assignment: PartitionAssignment) -> float:
    """Vertex balance: max part size over ideal size (1.0 = perfect)."""
    sizes = assignment.sizes()
    if assignment.num_vertices == 0:
        return 1.0
    ideal = assignment.num_vertices / assignment.num_parts
    return float(sizes.max() / ideal)


def edge_balance_ratio(graph: CSRGraph, assignment: PartitionAssignment) -> float:
    """Edge balance: max per-part stored edges over ideal (1.0 = perfect)."""
    if graph.num_edges == 0:
        return 1.0
    sizes = assignment.edge_sizes(graph)
    ideal = graph.num_edges / assignment.num_parts
    return float(sizes.max() / ideal)


@dataclass(frozen=True)
class PartitionQuality:
    """Bundle of all quality metrics for one assignment."""

    num_parts: int
    edge_cut: int
    cut_fraction: float
    communication_volume: int
    balance: float
    edge_balance: float
    replication: float


def partition_quality(
    graph: CSRGraph,
    assignment: PartitionAssignment,
    *,
    mirror_table: Optional[object] = None,
) -> PartitionQuality:
    """Compute the full :class:`PartitionQuality` bundle."""
    from repro.partition.mirrors import build_mirror_table, replication_factor

    cut = edge_cut(graph, assignment)
    table = mirror_table if mirror_table is not None else build_mirror_table(graph, assignment)
    return PartitionQuality(
        num_parts=assignment.num_parts,
        edge_cut=cut,
        cut_fraction=cut / graph.num_edges if graph.num_edges else 0.0,
        communication_volume=communication_volume(graph, assignment),
        balance=balance_ratio(assignment),
        edge_balance=edge_balance_ratio(graph, assignment),
        replication=replication_factor(table),
    )
