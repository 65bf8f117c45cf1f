"""The engine's two per-edge hot loops and their bit-identity contract.

The ragged gather (:func:`repro.graph.traversal._gather`) must equal an
exact slice concatenation, and the reduce
(:meth:`repro.kernels.base.MessageSpec.combine_at`) is unbuffered
``ufunc.at`` in array order.  That order is what makes blocked edge
streaming invisible: a streamed run reduces the same consecutive edge
ranges an unstreamed run concatenates, so results and profiles match bit
for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.trace import record_trace
from repro.errors import KernelError
from repro.graph.generators import rmat
from repro.graph.traversal import _gather
from repro.kernels.base import MessageSpec
from repro.kernels.registry import get_kernel

INDEX_DTYPES = (np.uint32, np.int64)

#: forces multi-block streaming on rmat(12, 16) (see
#: tests/arch/test_memory_budget.py for the per-kernel budget sweep)
TIGHT_BUDGET = 64 * 1024


def ragged_case(seed, *, index_dtype, n_values=500, n_slices=60):
    """Random (values, starts, lens) triple simulating CSR frontier slices."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n_values)
    starts = rng.integers(0, n_values, size=n_slices)
    lens = rng.integers(0, 12, size=n_slices)
    lens = np.minimum(lens, n_values - starts)
    return values, starts.astype(index_dtype), lens.astype(np.int64)


def gather_reference(values, starts, lens):
    out = [values[int(s) : int(s) + int(l)] for s, l in zip(starts, lens)]
    return np.concatenate(out) if out else np.empty(0, dtype=values.dtype)


class TestGather:
    @pytest.mark.parametrize("index_dtype", INDEX_DTYPES)
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_slice_concatenation(self, seed, index_dtype):
        values, starts, lens = ragged_case(seed, index_dtype=index_dtype)
        got = _gather(values, starts, lens)
        np.testing.assert_array_equal(got, gather_reference(values, starts, lens))

    def test_empty_frontier(self):
        out = _gather(
            np.arange(10.0),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
        assert out.size == 0

    @pytest.mark.parametrize("index_dtype", INDEX_DTYPES)
    def test_preserves_value_dtype(self, index_dtype):
        values = np.arange(20, dtype=np.uint32)
        starts = np.asarray([0, 10], dtype=index_dtype)
        lens = np.asarray([5, 5], dtype=np.int64)
        assert _gather(values, starts, lens).dtype == np.uint32


class TestCombineAt:
    @pytest.mark.parametrize("index_dtype", INDEX_DTYPES)
    @pytest.mark.parametrize("op,ufunc", [
        ("sum", np.add),
        ("min", np.minimum),
        ("max", np.maximum),
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_ufunc_at(self, seed, op, ufunc, index_dtype):
        rng = np.random.default_rng(seed)
        n = 64
        idx = rng.integers(0, n, size=900).astype(index_dtype)
        values = rng.standard_normal(900)
        spec = MessageSpec(value_bytes=8, reduce=op)

        got = np.full(n, spec.identity)
        spec.combine_at(got, idx, values)
        want = np.full(n, spec.identity)
        ufunc.at(want, idx, values)
        np.testing.assert_array_equal(got, want)

    def test_unknown_op_rejected_at_construction(self):
        with pytest.raises(KernelError, match="reduce must be one of"):
            MessageSpec(value_bytes=8, reduce="prod")


@pytest.fixture(scope="module")
def streaming_graph():
    return rmat(12, 16, seed=11)


def _record(graph, kernel_name, *, budget):
    kernel = get_kernel(kernel_name)
    source = int(graph.out_degrees.argmax()) if kernel.needs_source else None
    return record_trace(
        graph,
        kernel,
        num_parts=8,
        source=source,
        max_iterations=5,
        seed=3,
        with_mirrors=False,
        memory_budget_bytes=budget,
    )


@pytest.mark.parametrize("kernel_name", ("pagerank", "bfs", "sssp"))
def test_streamed_matches_unstreamed(streaming_graph, kernel_name):
    """Blocked streaming under a tight budget: bit-identical numerics."""
    streamed = _record(streaming_graph, kernel_name, budget=TIGHT_BUDGET)
    unstreamed = _record(streaming_graph, kernel_name, budget=None)
    assert streamed.streamed_iterations > 0
    assert streamed.edge_blocks >= streamed.streamed_iterations
    assert unstreamed.streamed_iterations == 0

    assert streamed.num_iterations == unstreamed.num_iterations
    kernel = get_kernel(kernel_name)
    np.testing.assert_array_equal(
        kernel.result(streamed.final_state),
        kernel.result(unstreamed.final_state),
    )
    for sp, up in zip(streamed.profiles, unstreamed.profiles):
        assert sp.edges_traversed == up.edges_traversed
        np.testing.assert_array_equal(sp.touched, up.touched)
        np.testing.assert_array_equal(sp.changed, up.changed)
        np.testing.assert_array_equal(sp.pair_dst, up.pair_dst)
        np.testing.assert_array_equal(sp.pair_part, up.pair_part)
