"""Connected components via label propagation (Fig. 7a's workload).

Weakly connected components on the symmetrized graph: every vertex starts
with its own id as label, labels propagate with ``min`` reduction, and the
frontier is the set of vertices whose label dropped.  The frontier starts at
|V| and decays geometrically — the movement trace the paper shows for CC on
Twitter7 with 32 partitions.
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


class ConnectedComponents(VertexProgram):
    """Min-label propagation (weak components; graph is symmetrized)."""

    name = "cc"
    message = MessageSpec(value_bytes=8, reduce="min")  # candidate label
    prop_push_bytes = 16
    compute = ComputeProfile(
        traverse_flops_per_edge=0.0,
        traverse_intops_per_edge=1.0,  # label compare
        apply_flops_per_update=0.0,
        apply_intops_per_update=1.0,
        needs_fp=False,
        needs_int_muldiv=False,
    )
    requires_symmetric = True

    def initial_state(
        self, graph: CSRGraph, *, source: Optional[int] = None
    ) -> KernelState:
        n = graph.num_vertices
        state = KernelState(graph=graph)
        state.props["label"] = np.arange(n, dtype=np.float64)
        state.frontier = np.arange(n, dtype=np.int64)
        return state

    def edge_messages(
        self,
        state: KernelState,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        return state.prop("label")[src]

    def apply(
        self, state: KernelState, touched: np.ndarray, reduced: np.ndarray
    ) -> np.ndarray:
        label = state.prop("label")
        improved = reduced < label[touched]
        winners = touched[improved]
        label[winners] = reduced[improved]
        return winners

    def result(self, state: KernelState) -> np.ndarray:
        return state.prop("label").astype(np.int64)
