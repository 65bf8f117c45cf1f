"""Shared numeric execution engine.

All four architecture simulators drive one kernel iteration through this
module, so their *results* are bit-identical; they differ only in how they
account the movement and time of what happened here.  This mirrors the
paper's prototype, which runs the real Galois computation while separately
tracking how many bytes each deployment strategy would have moved.

The per-iteration work is split into two halves:

* **structural profiling** (:func:`frontier_structure`) — everything that
  depends only on the graph topology, the frontier, and the partition map:
  the gathered edge arrays, edges traversed per partition, distinct
  destinations per partition (``|D_p|``, the partial-update counts), the
  global distinct-destination set, and the per-destination fan-in histogram
  the switch model consumes.  The distinct sets are computed in O(|E| +
  |V|) with epoch-stamped mark arrays and ``bincount`` passes over
  persistent scratch buffers (:class:`ProfileScratch`) — no sorting of |E|
  keys anywhere on the hot path.  The sort-based formulation survives as a
  differential oracle in :mod:`repro.arch.reference`, and the structure can
  be cached across iterations whose frontier is unchanged
  (:class:`StructuralProfileCache`) — the common case for topology-driven
  kernels like PageRank, where the frontier is all vertices every
  iteration.

* **numeric execution** (:func:`apply_numeric`) — the traverse → reduce →
  apply pipeline that actually mutates the kernel state.  This half runs
  exactly once per iteration no matter how many architectures account it;
  :func:`numeric_execution_count` exposes a process-wide counter so tests
  can assert the execute-once property.

When a ``memory_budget_bytes`` is set and one frontier's gathered edge set
would exceed it, both halves switch to **blocked edge streaming**: the
frontier is cut into consecutive CSR-ordered vertex ranges whose edges fit
the budget, and each block accumulates into the same scratch arrays.  The
resulting :class:`IterationProfile` and the kernel numerics are bit-for-bit
identical to the unblocked path (``ufunc.at`` reduction visits edges in the
same order either way); only the peak working set changes.  The
:class:`EngineTelemetry` sink records peak tracked bytes and block counts.

:func:`execute_iteration` composes the two halves and returns the
architecture-neutral :class:`IterationProfile` the accounting hooks consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.graph.traversal import _gather
from repro.kernels.base import KernelState, VertexProgram
from repro.obs.span import CATEGORY_PHASE
from repro.partition.base import PartitionAssignment

#: Process-wide count of numeric kernel executions (traverse+reduce+apply).
_numeric_executions = 0

#: Conservative per-edge working-set estimate of the streamed path: block
#: src (8) + gathered dst (4–8) + source parts (8) + compressed keys (8) +
#: message values (8), rounded up.
_STREAM_BYTES_PER_EDGE = 48

#: Floor on the edges per streamed block — below this the per-block fixed
#: costs (bincount, ufunc dispatch) dominate and throughput collapses.
_MIN_BLOCK_EDGES = 1 << 15


def numeric_execution_count() -> int:
    """How many kernel iterations have been numerically executed.

    Incremented once per :func:`execute_iteration` (equivalently, once per
    :func:`apply_numeric`) — *not* per architecture accounting pass.  Tests
    use the delta across a :func:`~repro.arch.compare.compare_architectures`
    call to assert the kernel ran exactly once per iteration.
    """
    return _numeric_executions


def reset_numeric_execution_count() -> None:
    """Reset the process-wide execution counter (test helper)."""
    global _numeric_executions
    _numeric_executions = 0


@dataclass
class EngineTelemetry:
    """Mutable per-run sink for the engine's memory/streaming telemetry.

    ``peak_tracked_bytes`` is the high-water mark of the engine's own
    transient working set (gather buffers, key arrays, message values, and
    the persistent profiling scratch) — the quantity a ``--memory-budget``
    bounds.  The resident inputs (CSR arrays, kernel state) are not
    included: they exist with or without the engine.
    """

    peak_tracked_bytes: int = 0
    edge_blocks: int = 0
    streamed_iterations: int = 0

    def track(self, nbytes: int) -> None:
        """Record one working-set observation; keeps the maximum."""
        if nbytes > self.peak_tracked_bytes:
            self.peak_tracked_bytes = int(nbytes)


class ProfileScratch:
    """Persistent scratch for O(|E| + |V|) structural profiling.

    ``marks`` hands out an epoch-stamped int64 mark array plus a rank
    array, both sized to the graph: bumping the epoch invalidates every
    stale entry at once, so there is no O(|V|) clearing between iterations.
    ``pair_flags`` is a growable bool array kept all-``False`` between
    calls — users set the flags they need and clear exactly those back
    (a targeted O(|pairs|) clear, not O(capacity)).
    """

    __slots__ = ("_mark", "_rank", "_epoch", "_pair_seen")

    def __init__(self) -> None:
        self._mark: Optional[np.ndarray] = None
        self._rank: Optional[np.ndarray] = None
        self._epoch = 0
        self._pair_seen: Optional[np.ndarray] = None

    def marks(self, n: int) -> Tuple[np.ndarray, np.ndarray, int]:
        """Return ``(mark, rank, epoch)`` sized for ``n`` vertices."""
        if self._mark is None or self._mark.size < n:
            self._mark = np.zeros(max(n, 1), dtype=np.int64)
            self._rank = np.empty(max(n, 1), dtype=np.int64)
            self._epoch = 0
        self._epoch += 1
        return self._mark, self._rank, self._epoch

    def pair_flags(self, capacity: int) -> np.ndarray:
        """All-``False`` bool scratch with at least ``capacity`` slots."""
        if self._pair_seen is None or self._pair_seen.size < capacity:
            self._pair_seen = np.zeros(max(capacity, 1), dtype=bool)
        return self._pair_seen

    def tracked_nbytes(self) -> int:
        """Bytes currently held by the scratch buffers."""
        total = 0
        for arr in (self._mark, self._rank, self._pair_seen):
            if arr is not None:
                total += arr.nbytes
        return total


#: Fallback scratch for direct :func:`frontier_structure` calls without a
#: cache; simulator runs get a private one via their per-run cache.
_DEFAULT_SCRATCH = ProfileScratch()


@dataclass(frozen=True)
class IterationProfile:
    """Structural facts about one executed iteration (architecture-neutral)."""

    iteration: int
    frontier_size: int
    edges_traversed: int
    touched: np.ndarray  # distinct destinations (sorted)
    changed: np.ndarray  # vertices whose property changed
    frontier_per_part: np.ndarray  # |F ∩ V_p|
    edges_per_part: np.ndarray  # Σ outdeg(F ∩ V_p)
    pair_dst: np.ndarray  # distinct (dst, part): destination ids
    pair_part: np.ndarray  # distinct (dst, part): source parts
    partials_per_part: np.ndarray  # |D_p|
    updates_per_destination: np.ndarray  # fan-in per distinct destination
    changed_mirror_pairs: int  # Σ_{v in changed} #mirror parts of v
    #: memo for :meth:`cross_update_pairs` — ``(owner array, value)``; one
    #: profile is accounted by up to four architectures against the same
    #: owner map, so the cross-pair count is computed once.  The memo holds
    #: the array itself (compared with ``is``), not its ``id()`` — CPython
    #: reuses ids after garbage collection, so an id match alone could
    #: silently credit a different owner map.
    _cross_memo: Optional[Tuple[np.ndarray, int]] = field(
        default=None, compare=False, repr=False
    )
    _active_parts: Optional[int] = field(default=None, compare=False, repr=False)
    _partial_active_parts: Optional[int] = field(
        default=None, compare=False, repr=False
    )

    @property
    def partial_update_pairs(self) -> int:
        """Σ_p |D_p| — total partial updates shipped under NDP offload."""
        return int(self.pair_dst.size)

    @property
    def distinct_destinations(self) -> int:
        """|∪_p D_p| — updates after perfect in-network aggregation."""
        return int(self.touched.size)

    @property
    def active_parts(self) -> int:
        """Parts holding at least one frontier vertex (memoized)."""
        if self._active_parts is None:
            object.__setattr__(
                self,
                "_active_parts",
                int(np.count_nonzero(self.frontier_per_part)),
            )
        return self._active_parts

    @property
    def partial_active_parts(self) -> int:
        """Parts that produced at least one partial update (memoized)."""
        if self._partial_active_parts is None:
            object.__setattr__(
                self,
                "_partial_active_parts",
                int(np.count_nonzero(self.partials_per_part)),
            )
        return self._partial_active_parts

    def cross_update_pairs(self, owner_of: np.ndarray) -> int:
        """Pairs whose source part is not the destination's owner.

        ``owner_of`` maps a vertex to the part owning its master — the
        mirror→master update count of the distributed architectures.
        Memoized per owner map: during trace replay the same profile is
        accounted by several simulators against the same partition map.
        """
        if self.pair_dst.size == 0:
            return 0
        if self._cross_memo is not None and self._cross_memo[0] is owner_of:
            return self._cross_memo[1]
        value = int(np.count_nonzero(owner_of[self.pair_dst] != self.pair_part))
        object.__setattr__(self, "_cross_memo", (owner_of, value))
        return value


@dataclass(frozen=True)
class FrontierStructure:
    """Topology-only facts for one frontier under one partition map.

    Everything here is a pure function of ``(graph, frontier, assignment)``
    — no property values — so consecutive iterations with an identical
    frontier can share one instance (see :class:`StructuralProfileCache`).
    The arrays are marked read-only when cached because they may be aliased
    across several :class:`IterationProfile`\\ s.

    Under blocked streaming (``streamed=True``) the full per-edge arrays
    are never materialized: ``src``/``dst``/``weights`` are ``None`` and
    ``block_bounds`` holds the frontier-index boundaries the numeric pass
    re-gathers block by block.  Every aggregate field is bit-identical to
    what the unblocked path produces.
    """

    frontier: np.ndarray
    src: Optional[np.ndarray]
    dst: Optional[np.ndarray]
    weights: Optional[np.ndarray]
    touched: np.ndarray
    edges_traversed: int
    frontier_per_part: np.ndarray
    edges_per_part: np.ndarray
    pair_dst: np.ndarray
    pair_part: np.ndarray
    partials_per_part: np.ndarray
    updates_per_destination: np.ndarray
    #: the frontier is exactly ``0..n-1`` (enables zero-copy CSR views)
    all_vertices: bool = False
    #: blocked-streaming mode: per-edge arrays elided, see ``block_bounds``
    streamed: bool = False
    #: ``int64[num_blocks + 1]`` frontier-index block boundaries
    block_bounds: Optional[np.ndarray] = None

    @property
    def num_blocks(self) -> int:
        """Edge blocks the numeric pass will stream (1 when unblocked)."""
        if self.block_bounds is None:
            return 1
        return int(self.block_bounds.size - 1)


class StructuralProfileCache:
    """One-entry cache of the last frontier's :class:`FrontierStructure`.

    Topology-driven kernels (PageRank, and label propagation until labels
    settle) present the *same* frontier every iteration; re-deriving the
    partition-level arrays means re-scanning |E| destination keys for no
    new information.  The cache compares the incoming frontier against the
    previous one (cheap O(|F|) equality against an O(|E|) recompute) and
    replays the stored structure on a match.

    A mismatch in frontier contents, graph, or partition assignment
    invalidates the entry — a shrinking BFS/CC frontier therefore misses
    every iteration, paying only the comparison.  Graphs and assignments
    are recognized by their monotonically issued ``uid`` tokens, never by
    ``id()``: CPython reuses object ids after garbage collection, and a
    stale id hit would silently replay the wrong structure.

    The cache also owns the :class:`ProfileScratch` its profiling calls
    reuse, making the scratch per-run (one cache is created per simulator
    run) rather than global.
    """

    __slots__ = ("hits", "misses", "scratch", "_entry", "_graph_uid", "_assignment_uid")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.scratch = ProfileScratch()
        self._entry: Optional[FrontierStructure] = None
        self._graph_uid = -1
        self._assignment_uid = -1

    def lookup(
        self,
        graph: CSRGraph,
        frontier: np.ndarray,
        assignment: PartitionAssignment,
    ) -> Optional[FrontierStructure]:
        """Return the cached structure if it matches, else ``None``."""
        entry = self._entry
        if (
            entry is None
            or self._graph_uid != graph.uid
            or self._assignment_uid != assignment.uid
            or entry.frontier.size != frontier.size
            or not np.array_equal(entry.frontier, frontier)
        ):
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def store(
        self,
        graph: CSRGraph,
        assignment: PartitionAssignment,
        entry: FrontierStructure,
    ) -> None:
        """Install ``entry`` as the cached structure for ``graph``/``assignment``."""
        for arr in (
            entry.frontier,
            entry.src,
            entry.dst,
            entry.touched,
            entry.frontier_per_part,
            entry.edges_per_part,
            entry.pair_dst,
            entry.pair_part,
            entry.partials_per_part,
            entry.updates_per_destination,
            entry.block_bounds,
        ):
            if arr is not None:
                arr.setflags(write=False)
        self._entry = entry
        self._graph_uid = graph.uid
        self._assignment_uid = assignment.uid


def prepare_graph(graph: CSRGraph, kernel: VertexProgram) -> CSRGraph:
    """Apply the kernel's structural requirements to the input graph."""
    g = graph
    if kernel.requires_symmetric:
        g = g.symmetrized()
    if kernel.uses_weights and not g.has_weights:
        g = g.with_uniform_weights(1.0)
    return g


def _distinct_pairs(
    dst: np.ndarray,
    src_parts: np.ndarray,
    num_parts: int,
    n: int,
    scratch: ProfileScratch,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """O(|E| + |V|) distinct destinations and (dst, part) pairs.

    Returns ``(touched, pair_dst, pair_part, updates_per_destination)``,
    all int64 and ordered exactly as the sort-based oracle orders them:
    ``touched`` ascending, pairs lexicographic by ``(dst, part)``.  The
    equivalence holds because ranks are assigned in ascending ``touched``
    order, so ascending compressed keys ``rank * P + part`` enumerate the
    same sequence as ascending ``dst * P + part`` keys.
    """
    mark, rank, epoch = scratch.marks(n)
    mark[dst] = epoch
    touched = np.flatnonzero(mark[:n] == epoch).astype(np.int64, copy=False)
    t = touched.size
    rank[touched] = np.arange(t, dtype=np.int64)
    keys = rank[dst] * np.int64(num_parts) + src_parts
    seen = scratch.pair_flags(t * num_parts)
    seen[keys] = True
    pair_idx = np.flatnonzero(seen[: t * num_parts])
    # Targeted clear: restore the all-False invariant in O(|pairs|).
    seen[pair_idx] = False
    pair_rank = pair_idx // num_parts
    pair_dst = touched[pair_rank]
    pair_part = pair_idx % num_parts
    # Every touched vertex contributes >= 1 pair, so the per-rank counts
    # are exactly the per-destination fan-in, already in touched order.
    updates_per_destination = np.bincount(pair_rank, minlength=t)
    return touched, pair_dst, pair_part, updates_per_destination


def _estimated_edge_transient_bytes(graph: CSRGraph, all_vertices: bool) -> int:
    """Per-edge transient bytes of one unblocked profiling+numeric pass."""
    # src repeat (8) + source parts (8) + compressed keys (8) + messages (8)
    per_edge = 32
    if not all_vertices:
        # Gathered dst copy and (for weighted graphs) gathered weights.
        per_edge += graph.indices.dtype.itemsize
        if graph.weights is not None:
            per_edge += 8
    return per_edge


def _block_bounds(
    graph: CSRGraph,
    frontier: np.ndarray,
    block_edges: int,
    all_vertices: bool,
) -> np.ndarray:
    """Cut the frontier into consecutive ranges of ~``block_edges`` edges.

    Each block is a contiguous frontier slice whose total out-degree stays
    at or below ``block_edges`` (a single vertex heavier than the cap gets
    a block of its own), so streaming the blocks in order visits every
    edge exactly once, in CSR order.
    """
    size = frontier.size
    if all_vertices:
        cum = graph.indptr[1:]
    else:
        lens = graph.indptr[frontier + 1] - graph.indptr[frontier]
        cum = np.cumsum(lens)
    bounds = [0]
    while bounds[-1] < size:
        i0 = bounds[-1]
        base = int(cum[i0 - 1]) if i0 else 0
        i1 = int(np.searchsorted(cum, base + block_edges, side="right"))
        if i1 <= i0:
            i1 = i0 + 1
        bounds.append(min(i1, size))
    return np.asarray(bounds, dtype=np.int64)


def _iter_block_edges(
    graph: CSRGraph,
    frontier: np.ndarray,
    bounds: np.ndarray,
    *,
    all_vertices: bool,
    with_weights: bool,
    with_src: bool,
):
    """Yield ``(src, dst, weights, frontier_slice, lens)`` per streamed block.

    For the all-vertices frontier the per-block ``dst``/``weights`` are
    zero-copy views into the CSR arrays; the generic path gathers them.
    ``src`` and ``weights`` are ``None`` when not requested (the structural
    pass keys edges by source *part*, never by source id).
    """
    indptr = graph.indptr
    for b in range(bounds.size - 1):
        i0, i1 = int(bounds[b]), int(bounds[b + 1])
        fb = frontier[i0:i1]
        if all_vertices:
            e0, e1 = int(indptr[i0]), int(indptr[i1])
            lens = np.diff(indptr[i0 : i1 + 1])
            dst = graph.indices[e0:e1]
            weights = None
            if with_weights:
                weights = (
                    graph.weights[e0:e1]
                    if graph.weights is not None
                    else _uniform_weights(dst.size)
                )
        else:
            starts = indptr[fb]
            lens = indptr[fb + 1] - starts
            dst = _gather(graph.indices, starts, lens)
            weights = None
            if with_weights:
                weights = (
                    _gather(graph.weights, starts, lens)
                    if graph.weights is not None
                    else _uniform_weights(dst.size)
                )
        src = np.repeat(fb, lens) if with_src else None
        yield src, dst, weights, fb, lens


def _streamed_structure(
    graph: CSRGraph,
    frontier: np.ndarray,
    assignment: PartitionAssignment,
    *,
    all_vertices: bool,
    block_edges: int,
    scratch: ProfileScratch,
    telemetry: Optional[EngineTelemetry],
) -> FrontierStructure:
    """Blocked structural profiling: one streaming pass, bounded peak RSS.

    Uses the direct ``dst * P + part`` keyspace (an ``n * P`` bool flag
    array) instead of the rank-compressed one, because ranks require the
    full ``touched`` set before any key can be formed — a second pass the
    streaming mode exists to avoid.  Flag positions sorted ascending are
    exactly the oracle's lexicographic ``(dst, part)`` order, so every
    output array is bit-identical to the unblocked path's.
    """
    parts = assignment.parts
    num_parts = assignment.num_parts
    n = graph.num_vertices
    mark, rank, epoch = scratch.marks(n)
    seen = scratch.pair_flags(n * num_parts)
    edges_per_part = np.zeros(num_parts, dtype=np.int64)
    edges_traversed = 0
    num_blocks = 0

    bounds = _block_bounds(graph, frontier, block_edges, all_vertices)
    for _, dst_b, _, fb, lens_b in _iter_block_edges(
        graph,
        frontier,
        bounds,
        all_vertices=all_vertices,
        with_weights=False,
        with_src=False,
    ):
        parts_b = np.repeat(parts[fb], lens_b)
        mark[dst_b] = epoch
        keys_b = dst_b * np.int64(num_parts) + parts_b
        seen[keys_b] = True
        edges_per_part += np.bincount(parts_b, minlength=num_parts)
        edges_traversed += int(dst_b.size)
        num_blocks += 1
        if telemetry is not None:
            block_bytes = (
                (0 if all_vertices else dst_b.nbytes)
                + parts_b.nbytes
                + keys_b.nbytes
            )
            telemetry.track(block_bytes + scratch.tracked_nbytes())

    touched = np.flatnonzero(mark[:n] == epoch).astype(np.int64, copy=False)
    t = touched.size
    pair_idx = np.flatnonzero(seen[: n * num_parts])
    seen[pair_idx] = False
    pair_dst = pair_idx // num_parts
    pair_part = pair_idx % num_parts
    partials_per_part = np.bincount(pair_part, minlength=num_parts).astype(
        np.int64, copy=False
    )
    rank[touched] = np.arange(t, dtype=np.int64)
    updates_per_destination = np.bincount(rank[pair_dst], minlength=t)

    frontier_per_part = (
        np.bincount(parts[frontier], minlength=num_parts).astype(np.int64)
        if frontier.size
        else np.zeros(num_parts, dtype=np.int64)
    )
    return FrontierStructure(
        frontier=frontier.copy(),
        src=None,
        dst=None,
        weights=None,
        touched=touched,
        edges_traversed=edges_traversed,
        frontier_per_part=frontier_per_part,
        edges_per_part=edges_per_part,
        pair_dst=pair_dst,
        pair_part=pair_part,
        partials_per_part=partials_per_part,
        updates_per_destination=updates_per_destination,
        all_vertices=all_vertices,
        streamed=True,
        block_bounds=bounds,
    )


def frontier_structure(
    graph: CSRGraph,
    frontier: np.ndarray,
    assignment: PartitionAssignment,
    *,
    cache: Optional[StructuralProfileCache] = None,
    memory_budget_bytes: Optional[int] = None,
    telemetry: Optional[EngineTelemetry] = None,
) -> FrontierStructure:
    """Structural profiling step: everything accounting needs except values.

    With a ``cache``, an unchanged frontier (same graph and assignment)
    reuses the previous iteration's arrays instead of re-gathering and
    re-scanning them.  With a ``memory_budget_bytes``, a frontier whose
    gathered edge set would exceed the budget is profiled block by block
    (see :func:`_streamed_structure`) with identical outputs.
    """
    if cache is not None:
        entry = cache.lookup(graph, frontier, assignment)
        if entry is not None:
            return entry

    scratch = cache.scratch if cache is not None else _DEFAULT_SCRATCH
    parts = assignment.parts
    num_parts = assignment.num_parts
    n = graph.num_vertices

    all_vertices = frontier.size == n and np.array_equal(
        frontier, np.arange(n, dtype=np.int64)
    )

    if all_vertices:
        edges = graph.num_edges
    elif frontier.size:
        edges = int(
            (graph.indptr[frontier + 1] - graph.indptr[frontier]).sum()
        )
    else:
        edges = 0

    if (
        memory_budget_bytes is not None
        and edges * _estimated_edge_transient_bytes(graph, all_vertices)
        > memory_budget_bytes
    ):
        block_edges = max(
            memory_budget_bytes // _STREAM_BYTES_PER_EDGE, _MIN_BLOCK_EDGES
        )
        entry = _streamed_structure(
            graph,
            frontier,
            assignment,
            all_vertices=all_vertices,
            block_edges=int(block_edges),
            scratch=scratch,
            telemetry=telemetry,
        )
        if cache is not None:
            cache.store(graph, assignment, entry)
        return entry

    if all_vertices:
        # All-vertices fast path: the edge arrays are the CSR arrays
        # themselves, and the per-edge source parts come precomputed from
        # the assignment — no ragged gathers at all.
        src = np.repeat(frontier, np.diff(graph.indptr))
        dst = graph.indices
        weights = (
            graph.weights
            if graph.weights is not None
            else _uniform_weights(dst.size)
        )
        src_parts = assignment.edge_source_parts(graph)
    else:
        src, dst, weights, src_parts = _gather_frontier_edges(
            graph, frontier, assignment
        )
    edges_traversed = int(dst.size)

    frontier_per_part = np.bincount(
        parts[frontier], minlength=num_parts
    ).astype(np.int64) if frontier.size else np.zeros(num_parts, dtype=np.int64)
    edges_per_part = np.bincount(
        src_parts, minlength=num_parts
    ).astype(np.int64) if edges_traversed else np.zeros(num_parts, dtype=np.int64)

    if edges_traversed:
        touched, pair_dst, pair_part, updates_per_destination = _distinct_pairs(
            dst, src_parts, num_parts, n, scratch
        )
        partials_per_part = np.bincount(
            pair_part, minlength=num_parts
        ).astype(np.int64)
    else:
        touched = np.empty(0, dtype=np.int64)
        pair_dst = np.empty(0, dtype=np.int64)
        pair_part = np.empty(0, dtype=np.int64)
        partials_per_part = np.zeros(num_parts, dtype=np.int64)
        updates_per_destination = np.empty(0, dtype=np.int64)

    if telemetry is not None and edges_traversed:
        # src + keys + (gathered dst/weights on the generic path) + the
        # message values apply_numeric is about to allocate.
        transient = src.nbytes + 8 * edges_traversed * 2
        if not all_vertices:
            transient += dst.nbytes + src_parts.nbytes
            if graph.weights is not None:
                transient += weights.nbytes
        telemetry.track(transient + scratch.tracked_nbytes())

    entry = FrontierStructure(
        frontier=frontier.copy(),
        src=src,
        dst=dst,
        weights=weights,
        touched=touched,
        edges_traversed=edges_traversed,
        frontier_per_part=frontier_per_part,
        edges_per_part=edges_per_part,
        pair_dst=pair_dst,
        pair_part=pair_part,
        partials_per_part=partials_per_part,
        updates_per_destination=updates_per_destination,
        all_vertices=all_vertices,
    )
    if cache is not None:
        cache.store(graph, assignment, entry)
    return entry


def apply_numeric(
    kernel: VertexProgram,
    state: KernelState,
    structure: FrontierStructure,
    *,
    telemetry: Optional[EngineTelemetry] = None,
    tracer=None,
) -> np.ndarray:
    """Numeric execution step: traverse → reduce → apply; returns ``changed``.

    Mutates ``state``'s properties through the kernel's own hooks (but not
    the frontier/iteration counter — :func:`execute_iteration` advances
    those so this step stays replayable in isolation).

    Streamed structures are reduced block by block into the same scratch
    accumulator.  Because every kernel's ``edge_messages`` is elementwise
    over ``(src, weights)`` and the reduction processes edges in array
    order, splitting the edge stream into consecutive chunks leaves the
    floating-point accumulation order — and thus the results — exactly
    unchanged.

    An enabled ``tracer`` wraps the reduce in a ``traverse`` span and the
    kernel apply in an ``apply`` span; the cost when disabled is a single
    truthiness check — never per-edge work.
    """
    if tracer is not None and tracer.enabled:
        with tracer.span(
            "traverse",
            category=CATEGORY_PHASE,
            edges=structure.edges_traversed,
            streamed=structure.streamed,
            blocks=structure.num_blocks,
        ):
            touched, reduced = _traverse_reduce(
                kernel, state, structure, telemetry
            )
        with tracer.span(
            "apply", category=CATEGORY_PHASE, touched=int(touched.size)
        ) as span:
            changed = np.asarray(
                kernel.apply(state, touched, reduced), dtype=np.int64
            )
            span.set_attr("changed", int(changed.size))
        return changed
    touched, reduced = _traverse_reduce(kernel, state, structure, telemetry)
    return np.asarray(kernel.apply(state, touched, reduced), dtype=np.int64)


def _traverse_reduce(
    kernel: VertexProgram,
    state: KernelState,
    structure: FrontierStructure,
    telemetry: Optional[EngineTelemetry],
) -> Tuple[np.ndarray, np.ndarray]:
    """The traverse → reduce halves of :func:`apply_numeric`.

    Each edge batch materializes its messages through the kernel's
    ``edge_messages`` hook and folds them into the scratch accumulator with
    :meth:`~repro.kernels.base.MessageSpec.combine_at` (unbuffered
    ``ufunc.at``, in edge order).
    """
    global _numeric_executions
    _numeric_executions += 1

    touched = structure.touched
    message = kernel.message
    identity = message.identity
    if structure.edges_traversed and structure.streamed:
        graph = state.graph
        acc = state.scratch_accumulator(identity)
        if telemetry is not None:
            telemetry.streamed_iterations += 1
            telemetry.edge_blocks += structure.num_blocks
        for src_b, dst_b, weights_b, _, _ in _iter_block_edges(
            graph,
            structure.frontier,
            structure.block_bounds,
            all_vertices=structure.all_vertices,
            with_weights=True,
            with_src=True,
        ):
            values = kernel.edge_messages(state, src_b, dst_b, weights_b)
            if values.shape != dst_b.shape:
                raise SimulationError(
                    f"kernel {kernel.name!r} returned {values.shape} message "
                    f"values for {dst_b.shape} edges"
                )
            message.combine_at(acc, dst_b, values)
            if telemetry is not None:
                telemetry.track(src_b.nbytes + values.nbytes)
        reduced = acc[touched]
        acc[touched] = identity
    elif structure.edges_traversed:
        acc = state.scratch_accumulator(identity)
        values = kernel.edge_messages(
            state, structure.src, structure.dst, structure.weights
        )
        if values.shape != structure.dst.shape:
            raise SimulationError(
                f"kernel {kernel.name!r} returned {values.shape} message values "
                f"for {structure.dst.shape} edges"
            )
        message.combine_at(acc, structure.dst, values)
        reduced = acc[touched]
        # Restore the touched slots so the persistent scratch buffer is
        # all-identity again for the next iteration.
        acc[touched] = identity
    else:
        reduced = np.empty(0)

    return touched, reduced


def execute_iteration(
    kernel: VertexProgram,
    state: KernelState,
    assignment: PartitionAssignment,
    *,
    mirrors_per_vertex: Optional[np.ndarray] = None,
    cache: Optional[StructuralProfileCache] = None,
    memory_budget_bytes: Optional[int] = None,
    telemetry: Optional[EngineTelemetry] = None,
    tracer=None,
) -> IterationProfile:
    """Run one iteration and return its structural profile.

    Mutates ``state`` (properties, frontier, iteration counter) through the
    kernel's own hooks.  ``cache`` enables structural-profile reuse across
    iterations with identical frontiers; ``memory_budget_bytes`` bounds the
    per-iteration working set via blocked edge streaming; ``telemetry``
    collects peak tracked bytes and block counts.  An enabled ``tracer``
    records ``profile`` / ``traverse`` / ``apply`` phase spans; ``None``
    (or a disabled tracer) costs one truthiness check per phase.
    """
    graph = state.graph
    if assignment.parts.size != graph.num_vertices:
        raise SimulationError(
            f"partition covers {assignment.parts.size} vertices, graph has "
            f"{graph.num_vertices}"
        )

    frontier = np.asarray(state.frontier, dtype=np.int64)
    iteration = state.iteration

    if tracer is not None and tracer.enabled:
        hits_before = cache.hits if cache is not None else 0
        with tracer.span(
            "profile", category=CATEGORY_PHASE, frontier_size=int(frontier.size)
        ) as span:
            structure = frontier_structure(
                graph,
                frontier,
                assignment,
                cache=cache,
                memory_budget_bytes=memory_budget_bytes,
                telemetry=telemetry,
            )
            span.set_attrs(
                edges=structure.edges_traversed,
                streamed=structure.streamed,
                blocks=structure.num_blocks,
                cache_hit=cache is not None and cache.hits > hits_before,
            )
    else:
        structure = frontier_structure(
            graph,
            frontier,
            assignment,
            cache=cache,
            memory_budget_bytes=memory_budget_bytes,
            telemetry=telemetry,
        )
    changed = apply_numeric(
        kernel, state, structure, telemetry=telemetry, tracer=tracer
    )

    changed_mirror_pairs = 0
    if mirrors_per_vertex is not None and changed.size:
        changed_mirror_pairs = int(mirrors_per_vertex[changed].sum())

    # ---- advance ------------------------------------------------------ #
    state.frontier = np.asarray(
        kernel.update_frontier(state, changed), dtype=np.int64
    )
    state.iteration = iteration + 1

    return IterationProfile(
        iteration=iteration,
        frontier_size=int(frontier.size),
        edges_traversed=structure.edges_traversed,
        touched=structure.touched,
        changed=changed,
        frontier_per_part=structure.frontier_per_part,
        edges_per_part=structure.edges_per_part,
        pair_dst=structure.pair_dst,
        pair_part=structure.pair_part,
        partials_per_part=structure.partials_per_part,
        updates_per_destination=structure.updates_per_destination,
        changed_mirror_pairs=changed_mirror_pairs,
    )


def _uniform_weights(size: int) -> np.ndarray:
    """Read-only broadcast of 1.0 — no |E|-sized allocation per iteration."""
    return np.broadcast_to(np.float64(1.0), (size,))


def _gather_frontier_edges(
    graph: CSRGraph,
    frontier: np.ndarray,
    assignment: Optional[PartitionAssignment] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """All out-edges of the frontier as (src, dst, weight, src_part) arrays.

    ``src_part`` is expanded from the frontier's own part ids (an O(|F|)
    gather plus a repeat, instead of an extra |E|-sized random gather
    through the vertex→part map); it is ``None`` when no assignment is
    given.  The all-vertices case never reaches here — it reuses the
    assignment's precomputed per-edge part array directly.
    """
    if frontier.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0), (
            empty if assignment is not None else None
        )
    starts = graph.indptr[frontier]
    lens = graph.indptr[frontier + 1] - starts
    dst = _gather(graph.indices, starts, lens)
    src = np.repeat(frontier, lens)
    if graph.weights is not None:
        weights = _gather(graph.weights, starts, lens)
    else:
        weights = _uniform_weights(dst.size)
    src_parts = None
    if assignment is not None:
        src_parts = np.repeat(assignment.parts[frontier], lens)
    return src, dst, weights, src_parts
