"""Breadth-first search — the frontier-driven baseline kernel (Fig. 4).

BFS has the most dynamic frontier of the four paper kernels: it starts at
one vertex, balloons over 2-4 iterations on small-diameter graphs, then
collapses — which is exactly why per-iteration offload decisions pay off
(Section IV.D).  Messages carry the candidate parent id and reduce with
``min`` for deterministic parents.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.kernels.base import (
    ComputeProfile,
    KernelState,
    MessageSpec,
    VertexProgram,
)


class BFS(VertexProgram):
    """Level-synchronous BFS producing levels and parents."""

    name = "bfs"
    message = MessageSpec(value_bytes=8, reduce="min")  # candidate parent id
    prop_push_bytes = 16
    compute = ComputeProfile(
        traverse_flops_per_edge=0.0,
        traverse_intops_per_edge=1.0,  # visited check
        apply_flops_per_update=0.0,
        apply_intops_per_update=2.0,  # level store + parent store
        needs_fp=False,
        needs_int_muldiv=False,
    )
    needs_source = True
    # The traversal emits the source id, which each memory node knows
    # locally: only frontier *membership* needs to cross the network.
    pushes_values = False

    def initial_state(
        self, graph: CSRGraph, *, source: Optional[int] = None
    ) -> KernelState:
        src = self.check_source(graph, source)
        n = graph.num_vertices
        state = KernelState(graph=graph)
        level = np.full(n, -1, dtype=np.int64)
        parent = np.full(n, -1, dtype=np.int64)
        level[src] = 0
        parent[src] = src
        state.props["level"] = level
        state.props["parent"] = parent
        state.frontier = np.asarray([src], dtype=np.int64)
        return state

    def edge_messages(
        self,
        state: KernelState,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        return src.astype(np.float64)

    def apply(
        self, state: KernelState, touched: np.ndarray, reduced: np.ndarray
    ) -> np.ndarray:
        level = state.prop("level")
        parent = state.prop("parent")
        fresh = level[touched] < 0
        discovered = touched[fresh]
        level[discovered] = state.iteration + 1
        parent[discovered] = reduced[fresh].astype(np.int64)
        return discovered

    def result(self, state: KernelState) -> np.ndarray:
        return state.prop("level")
