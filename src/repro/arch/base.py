"""Architecture simulator base: shared run loop and accounting context.

A simulator executes a kernel iteration-by-iteration through the shared
engine (identical numerics everywhere) and translates each iteration's
structural profile into movement bytes and modeled phase times according to
its architecture's placement rules.  Subclasses implement a single hook,
:meth:`ArchitectureSimulator._account`.
"""

from __future__ import annotations

import abc
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.errors import FaultError, RecoveryError, SimulationError
from repro.obs.metrics import METRICS, M
from repro.obs.span import (
    CATEGORY_ITERATION,
    CATEGORY_PHASE,
    CATEGORY_RUN,
    NOOP_TRACER,
    get_tracer,
)
from repro.faults.checkpoint import CheckpointPolicy
from repro.faults.events import FaultEvent, FaultKind
from repro.faults.recovery import FaultRuntime, FaultsLike, as_schedule
from repro.graph.csr import CSRGraph
from repro.kernels.base import KernelState, VertexProgram
from repro.net.link import LinkClass
from repro.net.topology import ClusterTopology
from repro.partition.base import PartitionAssignment, Partitioner
from repro.partition.mirrors import MirrorTable, build_mirror_table
from repro.partition.random_hash import HashPartitioner
from repro.arch.engine import (
    EngineTelemetry,
    IterationProfile,
    StructuralProfileCache,
    execute_iteration,
    prepare_graph,
)
from repro.arch.results import IterationStats, RunResult
from repro.runtime.config import SystemConfig
from repro.runtime.cost_model import edge_record_bytes
from repro.utils.rng import SeedLike


@dataclass
class RunContext:
    """Everything the per-iteration accounting hook needs."""

    graph: CSRGraph
    kernel: VertexProgram
    assignment: PartitionAssignment
    mirror_table: Optional[MirrorTable]
    mirrors_per_vertex: Optional[np.ndarray]
    topology: ClusterTopology
    config: SystemConfig
    result: RunResult
    #: per-run fault state; ``None`` on the (bit-identical) fault-free path
    faults: Optional[FaultRuntime] = None
    #: active span tracer (the disabled :data:`NOOP_TRACER` by default);
    #: accounting hooks may emit phase spans/events through it
    tracer: Any = field(default=NOOP_TRACER)


class ArchitectureSimulator(abc.ABC):
    """Base class for the four Table II architectures."""

    #: registry name, e.g. ``"disaggregated-ndp"``
    name: str = "abstract"
    #: Table II columns (class-level, architecture-intrinsic)
    has_near_memory_acceleration: bool = False
    is_disaggregated: bool = False
    #: whether the run loop should track master/mirror structures
    needs_mirrors: bool = False

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        self.config = config or SystemConfig()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def run(
        self,
        graph: CSRGraph,
        kernel: VertexProgram,
        *,
        partitioner: Optional[Partitioner] = None,
        assignment: Optional[PartitionAssignment] = None,
        source: Optional[int] = None,
        max_iterations: Optional[int] = None,
        graph_name: str = "graph",
        seed: SeedLike = 0,
        faults: FaultsLike = None,
        checkpoint: Optional[CheckpointPolicy] = None,
    ) -> RunResult:
        """Execute ``kernel`` on ``graph`` under this architecture.

        Parameters
        ----------
        partitioner / assignment:
            how the graph is spread over the partition nodes; pass one or
            neither (default: hash partitioning).  An explicit assignment
            must cover the *prepared* graph (same vertex count as input).
        source:
            source vertex for rooted kernels (BFS/SSSP).
        max_iterations:
            cap overriding the kernel's own default.
        faults / checkpoint:
            optional fault schedule (or :class:`~repro.faults.FaultSpec`)
            injected at iteration boundaries, and the checkpoint policy
            whose bytes are accounted alongside recovery traffic.  Faults
            never change the kernel numerics — only the accounting.
        """
        if not kernel.supports_engine:
            raise SimulationError(
                f"kernel {kernel.name!r} is host-only and cannot run through "
                "an architecture simulator"
            )
        prepared = prepare_graph(graph, kernel)
        num_parts = self.num_partitions()
        if assignment is None:
            chooser = partitioner or HashPartitioner()
            assignment = chooser.partition(prepared, num_parts, seed=seed)
        elif assignment.num_vertices != prepared.num_vertices:
            raise SimulationError(
                "assignment does not cover the prepared graph "
                f"({assignment.num_vertices} != {prepared.num_vertices})"
            )
        elif assignment.num_parts != num_parts:
            raise SimulationError(
                f"assignment has {assignment.num_parts} parts, architecture "
                f"is configured for {num_parts}"
            )

        mirror_table = None
        mirrors_per_vertex = None
        if self.needs_mirrors:
            mirror_table = build_mirror_table(prepared, assignment)
            mirrors_per_vertex = mirror_table.mirrors_per_vertex()

        result = RunResult(
            architecture=self.name,
            kernel=kernel.name,
            graph_name=graph_name,
            num_parts=num_parts,
            num_compute_nodes=self.num_compute_nodes(),
            kernel_program=kernel,
        )
        tracer = get_tracer()
        traced = tracer.enabled
        ctx = RunContext(
            graph=prepared,
            kernel=kernel,
            assignment=assignment,
            mirror_table=mirror_table,
            mirrors_per_vertex=mirrors_per_vertex,
            topology=self.config.topology(),
            config=self.config,
            result=result,
            faults=self._fault_runtime(faults, checkpoint, num_parts),
            tracer=tracer,
        )

        state = kernel.initial_state(prepared, source=source)
        cap = max_iterations if max_iterations is not None else kernel.max_iterations
        cache = StructuralProfileCache()
        telemetry = EngineTelemetry()
        self._on_run_start(ctx, state)

        run_cm = (
            tracer.span(
                "run",
                category=CATEGORY_RUN,
                architecture=self.name,
                kernel=kernel.name,
                graph=graph_name,
                parts=num_parts,
                mode="run",
            )
            if traced
            else nullcontext()
        )
        with run_cm as run_span:
            for _ in range(cap):
                if state.frontier.size == 0:
                    result.converged = True
                    break
                if traced:
                    with tracer.span(
                        "iteration", category=CATEGORY_ITERATION
                    ) as it_span:
                        profile = execute_iteration(
                            kernel,
                            state,
                            assignment,
                            mirrors_per_vertex=mirrors_per_vertex,
                            cache=cache,
                            memory_budget_bytes=self.config.memory_budget_bytes,
                            telemetry=telemetry,
                            tracer=tracer,
                        )
                        stats = self._account_iteration(profile, ctx)
                        self._annotate_iteration_span(it_span, stats)
                else:
                    profile = execute_iteration(
                        kernel,
                        state,
                        assignment,
                        mirrors_per_vertex=mirrors_per_vertex,
                        cache=cache,
                        memory_budget_bytes=self.config.memory_budget_bytes,
                        telemetry=telemetry,
                    )
                    stats = self._account_iteration(profile, ctx)
                result.iterations.append(stats)
                if kernel.has_converged(state):
                    result.converged = True
                    break
            if traced:
                self._annotate_run_span(run_span, result)

        counters = result.counters
        counters.add(M.ENGINE_PEAK_TRACKED_BYTES, telemetry.peak_tracked_bytes)
        counters.add(M.ENGINE_EDGE_BLOCKS, telemetry.edge_blocks)
        counters.add(M.ENGINE_STREAMED_ITERATIONS, telemetry.streamed_iterations)

        state.converged = result.converged
        result.final_state = state
        return result

    def _annotate_iteration_span(self, span, stats: IterationStats) -> None:
        """Attach the accounting facts to a finished iteration's span."""
        span.set_attrs(
            iteration=stats.iteration,
            architecture=self.name,
            frontier_size=stats.frontier_size,
            edges=stats.edges_traversed,
            offloaded=stats.offloaded,
            host_link_bytes=stats.host_link_bytes,
            network_bytes=stats.network_bytes,
            recovery_bytes=stats.recovery_bytes,
            bytes_by_phase=dict(stats.bytes_by_phase),
            modeled_seconds=stats.iteration_seconds,
        )
        METRICS.histogram(M.ITERATION_SECONDS).observe(stats.iteration_seconds)

    def _annotate_run_span(self, span, result: RunResult) -> None:
        """Attach whole-run totals to the run span."""
        span.set_attrs(
            iterations=result.num_iterations,
            converged=result.converged,
            total_host_link_bytes=result.total_host_link_bytes,
            total_network_bytes=result.total_network_bytes,
            total_recovery_bytes=result.total_recovery_bytes,
            modeled_seconds=result.total_seconds,
        )

    def replay(
        self,
        trace,
        *,
        graph_name: Optional[str] = None,
        faults: FaultsLike = None,
        checkpoint: Optional[CheckpointPolicy] = None,
    ) -> RunResult:
        """Account a recorded :class:`~repro.arch.trace.ExecutionTrace`.

        Replays each recorded iteration profile through this architecture's
        ``_account`` hook without re-executing the kernel numerics — the
        paper's "run once, account what each deployment would have moved".
        The returned :class:`RunResult` is bit-identical to what
        :meth:`run` produces for the same workload; its ``final_state`` is
        the trace's (shared across every replaying simulator).  ``faults``
        and ``checkpoint`` behave exactly as in :meth:`run` — faults only
        touch the accounting, so they compose naturally with replay.
        """
        kernel = trace.kernel
        if not kernel.supports_engine:
            raise SimulationError(
                f"kernel {kernel.name!r} is host-only and cannot be replayed"
            )
        num_parts = self.num_partitions()
        if trace.assignment.num_parts != num_parts:
            raise SimulationError(
                f"trace was recorded with {trace.assignment.num_parts} parts, "
                f"architecture is configured for {num_parts}"
            )
        if self.needs_mirrors and trace.mirror_table is None:
            raise SimulationError(
                f"{self.name} needs master/mirror structures; record the "
                "trace with with_mirrors=True"
            )

        result = RunResult(
            architecture=self.name,
            kernel=kernel.name,
            graph_name=graph_name if graph_name is not None else trace.graph_name,
            num_parts=num_parts,
            num_compute_nodes=self.num_compute_nodes(),
            kernel_program=kernel,
        )
        tracer = get_tracer()
        traced = tracer.enabled
        ctx = RunContext(
            graph=trace.graph,
            kernel=kernel,
            assignment=trace.assignment,
            mirror_table=trace.mirror_table if self.needs_mirrors else None,
            mirrors_per_vertex=(
                trace.mirrors_per_vertex if self.needs_mirrors else None
            ),
            topology=self.config.topology(),
            config=self.config,
            result=result,
            faults=self._fault_runtime(faults, checkpoint, num_parts),
            tracer=tracer,
        )
        self._on_run_start(ctx, trace.final_state)
        run_cm = (
            tracer.span(
                "run",
                category=CATEGORY_RUN,
                architecture=self.name,
                kernel=kernel.name,
                graph=result.graph_name,
                parts=num_parts,
                mode="replay",
            )
            if traced
            else nullcontext()
        )
        with run_cm as run_span:
            for profile in trace.profiles:
                if traced:
                    with tracer.span(
                        "iteration", category=CATEGORY_ITERATION
                    ) as it_span:
                        stats = self._account_iteration(profile, ctx)
                        self._annotate_iteration_span(it_span, stats)
                else:
                    stats = self._account_iteration(profile, ctx)
                result.iterations.append(stats)
            if traced:
                self._annotate_run_span(run_span, result)
        counters = result.counters
        counters.add(M.ENGINE_PEAK_TRACKED_BYTES, trace.peak_tracked_bytes)
        counters.add(M.ENGINE_EDGE_BLOCKS, trace.edge_blocks)
        counters.add(M.ENGINE_STREAMED_ITERATIONS, trace.streamed_iterations)
        result.converged = trace.converged
        result.final_state = trace.final_state
        return result

    # ------------------------------------------------------------------ #
    # Architecture hooks
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def _account(self, profile: IterationProfile, ctx: RunContext) -> IterationStats:
        """Translate one iteration's profile into movement and timing."""

    def _on_run_start(self, ctx: RunContext, state: KernelState) -> None:
        """Optional per-run setup hook (e.g. initial graph distribution)."""

    # ------------------------------------------------------------------ #
    # Fault injection and recovery accounting
    # ------------------------------------------------------------------ #

    #: link class carrying shard re-replication traffic: pool-internal for
    #: disaggregated architectures, node-to-node host links for coupled ones
    recovery_link_class: LinkClass = LinkClass.HOST_LINK
    #: coupled NDP clusters have no host fallback inside a node, so a failed
    #: accelerator takes the whole node's shard out of service (crash
    #: semantics); everywhere else the node's DRAM stays reachable
    ndp_failure_is_fatal: bool = False

    @staticmethod
    def _fault_runtime(
        faults: FaultsLike,
        checkpoint: Optional[CheckpointPolicy],
        num_parts: int,
    ) -> Optional[FaultRuntime]:
        """Per-run fault state, or ``None`` for the fault-free fast path."""
        schedule = as_schedule(faults)
        if schedule is None and checkpoint is None:
            return None
        return FaultRuntime(schedule, num_parts=num_parts, checkpoint=checkpoint)

    def _account_iteration(
        self, profile: IterationProfile, ctx: RunContext
    ) -> IterationStats:
        """Account one iteration, injecting any faults due at its boundary.

        The fault-free path (``ctx.faults is None``) is exactly one
        ``_account`` call — bit-identical to pre-fault behaviour, which the
        trace-replay tests pin down.
        """
        runtime = ctx.faults
        if runtime is None:
            return self._wrapped_account(profile, ctx)

        events = runtime.begin_iteration(profile.iteration)
        counters = ctx.result.counters
        tracer = ctx.tracer
        recover_span = (
            tracer.span(
                "recover", category=CATEGORY_PHASE, fault_events=len(events)
            )
            if events and tracer.enabled
            else None
        )
        phases: Dict[str, int] = {}
        host_extra = 0
        network_extra = 0
        recovery_seconds = 0.0
        for event in events:
            counters.add(M.FAULT_EVENTS)
            fatal = event.kind is FaultKind.MEMORY_NODE_CRASH or (
                event.kind is FaultKind.NDP_DEVICE_FAILURE
                and self.ndp_failure_is_fatal
            )
            if fatal:
                h, n, s = self._account_crash_recovery(event, ctx, phases)
                host_extra += h
                network_extra += n
                recovery_seconds += s
            elif event.kind is FaultKind.NDP_DEVICE_FAILURE:
                # Device-down window is tracked by the runtime; the offload
                # path consults it and falls back to host fetch (see
                # DisaggregatedNDPSimulator._account).
                counters.add(M.FAULT_NDP_FAILURES)
            elif event.kind is FaultKind.LINK_DEGRADATION:
                counters.add(M.FAULT_LINK_DEGRADATIONS)
        if recover_span is not None:
            recover_span.finish()

        if runtime.tracks_link_health:
            # Rebuild link state from the active windows every iteration so
            # expired degradations restore to full health.
            if runtime.pristine_topology is None:
                runtime.pristine_topology = ctx.topology
            ctx.topology = runtime.degraded_topology(
                profile.iteration, runtime.pristine_topology
            )

        stats = self._wrapped_account(profile, ctx)

        for event in events:
            if event.kind is not FaultKind.MESSAGE_DROP:
                continue
            counters.add(M.FAULT_MESSAGE_DROPS)
            lost = int(np.ceil(event.drop_fraction * stats.host_link_bytes))
            if lost:
                ctx.result.ledger.record(
                    "recovery-retransmit", LinkClass.HOST_LINK, lost, 1
                )
                phases["recovery-retransmit"] = (
                    phases.get("recovery-retransmit", 0) + lost
                )
                counters.add(M.RECOVERY_RETRANSMITTED_BYTES, lost)
                host_extra += lost
                network_extra += lost
                recovery_seconds += ctx.topology.host_link.transfer_seconds(
                    float(lost), 1
                )

        ck_bytes = runtime.checkpoint.bytes_at(
            profile.iteration,
            state_bytes=ctx.kernel.prop_push_bytes * ctx.graph.num_vertices,
            changed_bytes=ctx.kernel.message.wire_bytes * int(profile.changed.size),
        )
        if ck_bytes:
            ctx.result.ledger.record(
                "checkpoint", LinkClass.HOST_LINK, ck_bytes, 1
            )
            phases["checkpoint"] = phases.get("checkpoint", 0) + ck_bytes
            counters.add(M.CHECKPOINT_COUNT)
            counters.add(M.CHECKPOINT_BYTES, ck_bytes)
            host_extra += ck_bytes
            network_extra += ck_bytes
            recovery_seconds += ctx.topology.host_link.transfer_seconds(
                float(ck_bytes), 1
            )

        if not phases and recovery_seconds == 0.0:
            return stats
        recovery_bytes = sum(phases.values())
        if recover_span is not None:
            # The span closed before accounting ran; attributes are read at
            # export time, so attaching the final byte totals here is safe.
            recover_span.set_attrs(
                recovery_bytes=recovery_bytes,
                recovery_seconds=recovery_seconds,
            )
        elif tracer.enabled:
            # Checkpoint- or drop-only boundary (no fault events): instant.
            tracer.event(
                "recover",
                category=CATEGORY_PHASE,
                fault_events=0,
                recovery_bytes=recovery_bytes,
                recovery_seconds=recovery_seconds,
            )
        return replace(
            stats,
            host_link_bytes=stats.host_link_bytes + host_extra,
            network_bytes=stats.network_bytes + network_extra,
            bytes_by_phase={**stats.bytes_by_phase, **phases},
            recovery_bytes=stats.recovery_bytes + recovery_bytes,
            recovery_seconds=stats.recovery_seconds + recovery_seconds,
        )

    def _wrapped_account(
        self, profile: IterationProfile, ctx: RunContext
    ) -> IterationStats:
        """Run ``_account`` with structured error context attached."""
        try:
            return self._account(profile, ctx)
        except SimulationError as exc:
            exc.context.setdefault("iteration", profile.iteration)
            exc.context.setdefault("architecture", self.name)
            raise

    def _account_crash_recovery(
        self,
        event: FaultEvent,
        ctx: RunContext,
        phases: Dict[str, int],
    ) -> Tuple[int, int, float]:
        """Account restoring a crashed node's shard; returns byte/time deltas.

        Returns ``(host_link_delta, network_delta, seconds)``.  With a
        replicated pool (``replication_factor >= 2``) survivors stream the
        shard over :attr:`recovery_link_class`; otherwise the hosts rebuild
        it from source storage and push it down (host link, plus the pool
        leg on disaggregated deployments).  NDP-equipped targets additionally
        re-ingest the shard through the device (internal traffic).
        """
        runtime = ctx.faults
        assert runtime is not None
        counters = ctx.result.counters
        ledger = ctx.result.ledger
        topo = ctx.topology
        if event.part >= ctx.assignment.num_parts:
            raise FaultError(
                f"fault targets part {event.part}, run has only "
                f"{ctx.assignment.num_parts} parts"
            )
        if not runtime.has_shard_bytes:
            runtime.set_shard_bytes(self._shard_wire_bytes(ctx))
        shard = runtime.shard_bytes_of(event.part)
        shard += self._crash_extra_state_bytes(event, ctx)
        counters.add(M.FAULT_MEMORY_CRASHES)

        if runtime.schedule.replication_factor >= 2:
            if ctx.assignment.num_parts < 2:
                raise RecoveryError(
                    "cannot re-replicate from survivors: the pool has a "
                    "single node (all replicas were co-located)"
                )
            link = (
                topo.memory_link
                if self.recovery_link_class is LinkClass.MEMORY_LINK
                else topo.host_link
            )
            ledger.record("recovery-rereplicate", self.recovery_link_class, shard, 1)
            phases["recovery-rereplicate"] = (
                phases.get("recovery-rereplicate", 0) + shard
            )
            counters.add(M.RECOVERY_REREPLICATED_BYTES, shard)
            seconds = link.transfer_seconds(float(shard), 1)
            host_delta = (
                shard if self.recovery_link_class is LinkClass.HOST_LINK else 0
            )
            network_delta = shard
        else:
            # Rebuild-from-source: the read from durable storage is outside
            # the modeled system; what crosses it is the push back down.
            ledger.record("recovery-rebuild", LinkClass.HOST_LINK, shard, 1)
            phases["recovery-rebuild"] = phases.get("recovery-rebuild", 0) + shard
            counters.add(M.RECOVERY_REBUILT_BYTES, shard)
            seconds = topo.host_link.transfer_seconds(float(shard), 1)
            host_delta = shard
            network_delta = shard
            if self.is_disaggregated:
                # The shard also traverses the switch -> pool-node leg.
                ledger.record(
                    "recovery-rebuild", LinkClass.MEMORY_LINK, shard, 1
                )
                network_delta += shard
                seconds = max(
                    seconds, topo.memory_link.transfer_seconds(float(shard), 1)
                )

        if self.has_near_memory_acceleration and ctx.config.ndp_device is not None:
            # The replacement node's NDP device re-ingests the shard into
            # its banks: internal traffic, off the network metric.
            ledger.record("recovery-ndp-ingest", LinkClass.NDP_INTERNAL, shard, 1)
            phases["recovery-ndp-ingest"] = (
                phases.get("recovery-ndp-ingest", 0) + shard
            )
            seconds += ctx.config.ndp_device.memory_seconds(float(shard))
        return host_delta, network_delta, seconds

    def _shard_wire_bytes(self, ctx: RunContext) -> np.ndarray:
        """``int64[k]`` wire size of each part's shard: edges + properties."""
        eb = edge_record_bytes(ctx.kernel)
        return (
            eb * ctx.assignment.edge_sizes(ctx.graph)
            + ctx.kernel.prop_push_bytes * ctx.assignment.sizes()
        )

    def _crash_extra_state_bytes(self, event: FaultEvent, ctx: RunContext) -> int:
        """Extra state restored with a crashed node's shard (default none)."""
        return 0

    def num_partitions(self) -> int:
        """Partition count for this architecture (= pool/cluster nodes)."""
        return self.config.num_memory_nodes

    def num_compute_nodes(self) -> int:
        """Nodes that run the apply phase and synchronize."""
        return self.config.num_compute_nodes

    # ------------------------------------------------------------------ #
    # Shared accounting helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _per_part_compute_seconds(
        device, ops_per_part: np.ndarray, bytes_per_part: np.ndarray
    ) -> float:
        """Slowest node's time: compute + internal memory streaming."""
        worst = 0.0
        for ops, nbytes in zip(ops_per_part, bytes_per_part):
            t = device.compute_seconds(float(ops)) + device.memory_seconds(
                float(nbytes)
            )
            worst = max(worst, t)
        return worst

    def _host_shared_seconds(self, ops: float, nbytes: float) -> float:
        """Time for work split evenly across the compute pool."""
        hosts = self.num_compute_nodes()
        device = self.config.host_device
        return device.compute_seconds(ops / hosts) + device.memory_seconds(
            nbytes / hosts
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(parts={self.num_partitions()})"
