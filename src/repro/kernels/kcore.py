"""k-core decomposition by iterative peeling.

An extension kernel beyond the paper's quartet: vertices below degree ``k``
are removed in rounds, each removal decrementing its neighbors' residual
degrees (``sum`` reduction of unit messages).  The frontier is the set of
vertices peeled this round — small and bursty, a stress case for the
dynamic offload policy.
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


class KCore(VertexProgram):
    """Membership in the k-core of the symmetrized graph.

    Parameters
    ----------
    k:
        core order; vertices with residual degree < ``k`` are peeled.
    """

    name = "kcore"
    message = MessageSpec(value_bytes=4, reduce="sum")  # degree decrement
    prop_push_bytes = 8
    pushes_values = False  # decrement messages need only the peeled set
    compute = ComputeProfile(
        traverse_flops_per_edge=0.0,
        traverse_intops_per_edge=1.0,
        apply_flops_per_update=0.0,
        apply_intops_per_update=2.0,  # decrement + threshold test
        needs_fp=False,
        needs_int_muldiv=False,
    )
    requires_symmetric = True

    def __init__(self, k: int = 3) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = int(k)

    def initial_state(
        self, graph: CSRGraph, *, source: Optional[int] = None
    ) -> KernelState:
        n = graph.num_vertices
        state = KernelState(graph=graph)
        degree = graph.out_degrees.astype(np.float64)  # symmetric: out == total
        alive = np.ones(n, dtype=bool)
        doomed = np.nonzero(degree < self.k)[0].astype(np.int64)
        alive[doomed] = False
        state.props["residual_degree"] = degree
        state.props["alive"] = alive.astype(np.float64)
        state.frontier = doomed  # peeled this round; notify neighbors
        return state

    def edge_messages(
        self,
        state: KernelState,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        return np.ones(src.size)

    def apply(
        self, state: KernelState, touched: np.ndarray, reduced: np.ndarray
    ) -> np.ndarray:
        degree = state.prop("residual_degree")
        alive = state.prop("alive")
        degree[touched] -= reduced
        newly_doomed = touched[
            (alive[touched] > 0) & (degree[touched] < self.k)
        ]
        alive[newly_doomed] = 0.0
        return newly_doomed

    def result(self, state: KernelState) -> np.ndarray:
        return state.prop("alive") > 0
