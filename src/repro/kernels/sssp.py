"""Single-source shortest paths (frontier Bellman–Ford).

The delta-relaxation kernel of the paper's quartet: weighted edges, ``min``
reduction, frontier = vertices whose distance improved.  Its frontier decays
more slowly than BFS, giving the Fig. 7b-style per-iteration movement curve
with a mid-run crossover between offload and fetch.
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


class SSSP(VertexProgram):
    """Frontier-driven Bellman–Ford with non-negative float weights."""

    name = "sssp"
    message = MessageSpec(value_bytes=8, reduce="min")  # candidate distance
    prop_push_bytes = 16
    compute = ComputeProfile(
        traverse_flops_per_edge=2.0,  # dist + weight, compare
        traverse_intops_per_edge=1.0,
        apply_flops_per_update=1.0,  # min against current distance
        apply_intops_per_update=1.0,
        needs_fp=True,
        needs_int_muldiv=False,
    )
    needs_source = True
    uses_weights = True

    def initial_state(
        self, graph: CSRGraph, *, source: Optional[int] = None
    ) -> KernelState:
        src = self.check_source(graph, source)
        n = graph.num_vertices
        state = KernelState(graph=graph)
        dist = np.full(n, np.inf)
        dist[src] = 0.0
        state.props["distance"] = dist
        state.frontier = np.asarray([src], dtype=np.int64)
        return state

    def edge_messages(
        self,
        state: KernelState,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        return state.prop("distance")[src] + weights

    def apply(
        self, state: KernelState, touched: np.ndarray, reduced: np.ndarray
    ) -> np.ndarray:
        dist = state.prop("distance")
        improved = reduced < dist[touched]
        winners = touched[improved]
        dist[winners] = reduced[improved]
        return winners

    def result(self, state: KernelState) -> np.ndarray:
        return state.prop("distance")
