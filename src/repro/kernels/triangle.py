"""Triangle counting — a host-only kernel that does *not* fit NDP offload.

Neighbor-list intersection needs random access across adjacency lists and
integer-heavy set operations, which the scatter/gather message model (and
the weaker Table I devices) cannot express.  It is included to exercise the
capability checker: the runtime must refuse to offload it and fall back to
host execution, the negative case of Section IV.A's "which operations to
offload" decision.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import KernelError
from repro.graph.csr import CSRGraph
from repro.kernels.base import (
    ComputeProfile,
    KernelState,
    MessageSpec,
    VertexProgram,
)

#: Wedges enumerated per block of source edges; bounds peak memory.
_WEDGE_BLOCK = 1 << 22


class TriangleCounting(VertexProgram):
    """Exact triangle count on the symmetrized simple graph."""

    name = "triangles"
    message = MessageSpec(value_bytes=8, reduce="sum")
    prop_push_bytes = 16
    compute = ComputeProfile(
        traverse_flops_per_edge=0.0,
        traverse_intops_per_edge=8.0,  # sorted-merge intersection per edge
        apply_flops_per_update=0.0,
        apply_intops_per_update=1.0,
        needs_fp=False,
        needs_int_muldiv=True,  # hash/merge index arithmetic
    )
    requires_symmetric = True
    supports_engine = False
    max_iterations = 1

    def initial_state(
        self, graph: CSRGraph, *, source: Optional[int] = None
    ) -> KernelState:
        state = KernelState(graph=graph)
        state.props["triangles"] = np.zeros(graph.num_vertices)
        return state

    def edge_messages(self, state, src, dst, weights):  # pragma: no cover
        raise KernelError("triangle counting cannot run through the message engine")

    def apply(self, state, touched, reduced):  # pragma: no cover
        raise KernelError("triangle counting cannot run through the message engine")

    def run_host(self, graph: CSRGraph) -> KernelState:
        """Execute on the host: per-vertex counts by the "forward" algorithm.

        Each undirected edge is oriented from the lower ``(degree, id)``
        rank to the higher one, so every triangle is found exactly once,
        as a wedge ``(v, w)`` inside its lowest corner's out-list closed
        by the oriented edge ``v -> w``.  Wedges are enumerated in blocks
        of about :data:`_WEDGE_BLOCK` to bound peak memory.
        """
        und = graph.symmetrized().without_self_loops()
        n = und.num_vertices
        state = self.initial_state(und)
        if und.num_edges == 0:
            return state
        order = np.argsort(und.out_degrees, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        src, dst = und.edge_array()
        src, dst = rank[src], rank[dst]
        up = src < dst
        # One int64 key sorts the oriented edges by (source, target) rank.
        key = np.sort(src[up] * n + dst[up])
        src, dst = np.divmod(key, n)
        starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=starts[1:])
        # Edge e = (u, v) opens one wedge with each later edge of u's list.
        edge_ids = np.arange(key.size)
        wedges = starts[src + 1] - edge_ids - 1
        ends = np.cumsum(wedges)
        counts = np.zeros(n, dtype=np.int64)
        e0 = 0
        while e0 < key.size:
            before = ends[e0] - wedges[e0]
            e1 = int(np.searchsorted(ends, before + _WEDGE_BLOCK, side="right"))
            e1 = max(e1, e0 + 1)
            per_edge = wedges[e0:e1]
            # Position of w in the key: e + 1 + (offset within e's run).
            first = np.cumsum(per_edge) - per_edge
            w_pos = np.repeat(edge_ids[e0:e1] + 1 - first, per_edge)
            w_pos += np.arange(ends[e1 - 1] - before)
            v = np.repeat(dst[e0:e1], per_edge)
            w = dst[w_pos]
            query = v * n + w
            hit = np.searchsorted(key, query)
            np.minimum(hit, key.size - 1, out=hit)
            closed = key[hit] == query
            u = np.repeat(src[e0:e1], per_edge)
            for corner in (u, v, w):
                counts += np.bincount(corner[closed], minlength=n)
            e0 = e1
        state.props["triangles"][order] = counts
        state.converged = True
        return state

    def result(self, state: KernelState) -> np.ndarray:
        return state.prop("triangles").astype(np.int64)

    def total(self, state: KernelState) -> int:
        """Total triangle count (each counted once)."""
        return int(round(state.prop("triangles").sum() / 3.0))
