"""Degree centrality — the simplest engine kernel.

One iteration: every vertex emits ``1`` along its out-edges, ``sum``
reduction yields the in-degree.  Useful as a minimal integration test of the
full traverse/reduce/apply path and as the cheapest offloadable aggregation
(a pure counting workload any Table I device supports).
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


class DegreeCentrality(VertexProgram):
    """In-degree counting in a single traversal iteration."""

    name = "degree"
    message = MessageSpec(value_bytes=4, reduce="sum")  # a bare counter
    prop_push_bytes = 8  # id only; no property value needed near-data
    pushes_values = False  # unit messages: membership suffices near-data
    compute = ComputeProfile(
        traverse_flops_per_edge=0.0,
        traverse_intops_per_edge=1.0,
        apply_flops_per_update=0.0,
        apply_intops_per_update=1.0,
        needs_fp=False,
        needs_int_muldiv=False,
    )
    max_iterations = 1

    def initial_state(
        self, graph: CSRGraph, *, source: Optional[int] = None
    ) -> KernelState:
        state = KernelState(graph=graph)
        state.props["in_degree"] = np.zeros(graph.num_vertices)
        state.frontier = np.arange(graph.num_vertices, dtype=np.int64)
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
        state.prop("in_degree")[touched] = reduced
        return touched

    def update_frontier(
        self, state: KernelState, changed: np.ndarray
    ) -> np.ndarray:
        return np.empty(0, dtype=np.int64)  # single-shot kernel

    def result(self, state: KernelState) -> np.ndarray:
        return state.prop("in_degree").astype(np.int64)
