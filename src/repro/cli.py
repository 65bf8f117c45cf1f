"""General workload runner CLI: ``repro-run`` / ``python -m repro.cli``.

Runs one (graph, kernel, architecture) workload with full control over the
deployment knobs and prints the per-iteration movement table; optionally
writes the trace for offline analysis.

Examples::

    repro-run --dataset livejournal-sim --kernel pagerank
    repro-run --dataset twitter7-sim --kernel cc \\
        --arch disaggregated-ndp --parts 32 --policy dynamic
    repro-run --dataset uk2005-sim --kernel bfs --source auto \\
        --partitioner metis --trace-csv run.csv
    repro-run --graph-file edges.txt --kernel sssp --source 0
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro import cache as repro_cache
from repro.arch.energy import estimate_run_energy
from repro.cli_common import (
    add_fault_seed_arg,
    add_jobs_arg,
    add_observability_args,
    add_policy_arg,
)
from repro.obs import tracing_session
from repro.arch.registry import get_architecture, list_architectures
from repro.errors import ReproError
from repro.faults.checkpoint import (
    AdaptiveCheckpoint,
    EveryKCheckpoint,
    list_checkpoint_policies,
)
from repro.faults.schedule import FaultSchedule, FaultSpec
from repro.graph import io as graph_io
from repro.graph.datasets import list_datasets
from repro.kernels.registry import get_kernel, list_kernels
from repro.partition.registry import get_partitioner, list_partitioners
from repro.runtime.config import SystemConfig
from repro.runtime.offload import get_policy
from repro.telemetry.report import movement_table
from repro.trace import trace_run, write_trace_csv, write_trace_jsonl
from repro.utils.units import format_bytes, parse_bytes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-run",
        description="Run a graph workload on a simulated architecture.",
    )
    graph_group = parser.add_mutually_exclusive_group(required=True)
    graph_group.add_argument(
        "--dataset", choices=list_datasets(), help="paper-graph stand-in"
    )
    graph_group.add_argument(
        "--graph-file", help="SNAP-style edge list file"
    )
    parser.add_argument(
        "--tier", default="small", choices=("tiny", "small", "medium", "large")
    )
    parser.add_argument(
        "--scale-shift",
        type=int,
        default=0,
        metavar="N",
        help="extra log2 vertex-count shift on top of the tier (e.g. "
        "--tier large --scale-shift 2 for one-off paper-scale runs)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--kernel", required=True, choices=list_kernels(), help="analytics kernel"
    )
    parser.add_argument(
        "--source",
        default=None,
        help="source vertex for rooted kernels; 'auto' picks the max-degree vertex",
    )
    parser.add_argument(
        "--arch",
        default="disaggregated-ndp",
        choices=list_architectures(),
    )
    parser.add_argument("--parts", type=int, default=8, help="memory/partition nodes")
    parser.add_argument("--hosts", type=int, default=1, help="compute nodes")
    parser.add_argument(
        "--partitioner", default="hash", choices=list_partitioners()
    )
    add_policy_arg(parser)
    parser.add_argument("--inc", action="store_true", help="enable in-network aggregation")
    parser.add_argument(
        "--memory-budget",
        default=None,
        metavar="BYTES",
        help="cap the engine's per-iteration edge transients (e.g. '8G', "
        "'512MiB'); over budget, edges stream in CSR-ordered blocks with "
        "bit-identical profiles and numerics",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="run all four architectures and print the Table II-style "
        "comparison (the kernel executes once; each architecture replays "
        "the shared trace)",
    )
    parser.add_argument("--max-iterations", type=int, default=None)
    parser.add_argument(
        "--crash-at",
        metavar="ITER:PART",
        default=None,
        help="inject one memory-node crash at that iteration boundary "
        "(accounting only; the numerics are untouched)",
    )
    add_fault_seed_arg(parser)
    parser.add_argument(
        "--replication",
        type=int,
        default=1,
        metavar="R",
        help="shard replicas kept in the pool; >= 2 recovers crashes by "
        "re-replicating from survivors instead of rebuilding from source",
    )
    parser.add_argument(
        "--checkpoint",
        default="none",
        choices=list_checkpoint_policies(),
        help="checkpoint policy charged to the movement ledger",
    )
    parser.add_argument(
        "--checkpoint-k",
        type=int,
        default=5,
        metavar="K",
        help="snapshot interval for --checkpoint every-k",
    )
    cache_mode = parser.add_mutually_exclusive_group()
    cache_mode.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache generated graphs and partitions under DIR and reuse "
        "them on repeat runs (default: $REPRO_CACHE_DIR if set, else no "
        "caching)",
    )
    cache_mode.add_argument(
        "--no-cache",
        action="store_true",
        help="regenerate everything, ignoring $REPRO_CACHE_DIR",
    )
    add_jobs_arg(parser)
    add_observability_args(parser)
    parser.add_argument("--trace-csv", default=None, help="write per-iteration trace CSV")
    parser.add_argument("--trace-jsonl", default=None, help="write per-iteration trace JSONL")
    parser.add_argument("--energy", action="store_true", help="print the energy estimate")
    parser.add_argument(
        "--quiet", action="store_true", help="summary line only, no iteration table"
    )
    parser.add_argument(
        "--result-sha",
        action="store_true",
        help="print the sha256 of the kernel's result array (the serving "
        "daemon reports the same digest; use it to verify bit-identity)",
    )
    return parser


def _build_faults(args: argparse.Namespace):
    """Fault schedule (or None) from the CLI's fault flags."""
    if args.crash_at is not None:
        raw_iter, sep, raw_part = args.crash_at.partition(":")
        if not sep:
            raise ReproError(
                f"--crash-at expects ITER:PART, got {args.crash_at!r}"
            )
        return FaultSchedule.single_crash(
            iteration=int(raw_iter),
            part=int(raw_part),
            replication_factor=args.replication,
        )
    if args.fault_seed is not None:
        return FaultSpec.standard(
            seed=args.fault_seed,
            num_parts=args.parts,
            replication_factor=args.replication,
        )
    return None


def _build_checkpoint(args: argparse.Namespace):
    """Checkpoint policy (or None) from the CLI's checkpoint flags."""
    if args.checkpoint == "every-k":
        return EveryKCheckpoint(k=args.checkpoint_k)
    if args.checkpoint == "adaptive":
        return AdaptiveCheckpoint()
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with tracing_session(
            trace_out=args.trace_out,
            jsonl_out=args.trace_events,
            decision_out=args.decision_trace,
            progress=args.progress,
        ):
            code = _run(args)
        if code == 0 and args.trace_out:
            print(f"trace written to {args.trace_out}")
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    if args.no_cache:
        repro_cache.disable()
    elif args.cache_dir is not None:
        repro_cache.configure(args.cache_dir)
    if args.dataset:
        graph, spec = repro_cache.load_dataset_cached(
            args.dataset,
            tier=args.tier,
            seed=args.seed,
            scale_shift=args.scale_shift,
        )
        graph_name = spec.name
    else:
        weighted = args.kernel in ("sssp", "widest-path")
        graph = graph_io.read_edge_list(args.graph_file, weighted=False)
        if weighted:
            graph = graph.with_uniform_weights(1.0)
        graph_name = args.graph_file

    kernel = get_kernel(args.kernel)
    source = None
    if kernel.needs_source:
        if args.source is None:
            print(
                f"error: kernel {args.kernel!r} needs --source (or 'auto')",
                file=sys.stderr,
            )
            return 2
        source = (
            int(graph.out_degrees.argmax())
            if args.source == "auto"
            else int(args.source)
        )

    if not kernel.supports_engine:
        # Host-only kernels (triangles, betweenness, scc) cannot offload;
        # run them host-side and report the result summary.
        state = kernel.run_host(graph)
        values = kernel.result(state)
        print(
            f"host-only kernel {kernel.name!r} on {graph_name}: computed "
            f"{values.size} values (min {values.min()}, max {values.max()})"
        )
        if args.result_sha:
            from repro.serve.protocol import result_sha256

            print(f"result sha256: {result_sha256(values)}")
        return 0

    memory_budget = None
    if args.memory_budget is not None:
        try:
            memory_budget = parse_bytes(args.memory_budget)
        except ValueError as exc:
            print(f"error: --memory-budget: {exc}", file=sys.stderr)
            return 2
    config = SystemConfig(
        num_compute_nodes=args.hosts,
        num_memory_nodes=args.parts,
        enable_inc=args.inc,
        memory_budget_bytes=memory_budget,
    )
    faults = _build_faults(args)
    checkpoint = _build_checkpoint(args)
    if args.compare:
        from repro.arch.compare import compare_architectures

        comparison = compare_architectures(
            graph,
            kernel,
            config=config,
            partitioner=repro_cache.CachedPartitioner(
                get_partitioner(args.partitioner)
            ),
            source=source,
            max_iterations=args.max_iterations,
            graph_name=graph_name,
            seed=args.seed,
            faults=faults,
            checkpoint=checkpoint,
            policy=(
                args.policy.instantiate() if args.policy is not None else None
            ),
        )
        print(comparison.as_table())
        if faults is not None or checkpoint is not None:
            for row in comparison.rows:
                print(
                    f"{row.architecture}: recovery "
                    f"{format_bytes(row.run.total_recovery_bytes)}"
                )
        if args.result_sha:
            from repro.serve.protocol import result_sha256

            print(
                "result sha256: "
                f"{result_sha256(comparison.rows[0].run.result_property())}"
            )
        return 0

    if args.arch == "disaggregated-ndp":
        policy = (
            args.policy.instantiate()
            if args.policy is not None
            else get_policy("always")
        )
        simulator = get_architecture(args.arch, config, policy=policy)
    elif args.policy is not None:
        print(
            f"error: --policy applies to disaggregated-ndp, not "
            f"{args.arch!r} (its placement is fixed by definition)",
            file=sys.stderr,
        )
        return 2
    else:
        simulator = get_architecture(args.arch, config)

    run = simulator.run(
        graph,
        kernel,
        partitioner=repro_cache.CachedPartitioner(
            get_partitioner(args.partitioner)
        ),
        source=source,
        max_iterations=args.max_iterations,
        graph_name=graph_name,
        seed=args.seed,
        faults=faults,
        checkpoint=checkpoint,
    )

    if not args.quiet:
        print(run.summary_table())
        print()
        print(movement_table(run.ledger))
        print()
        if faults is not None or checkpoint is not None:
            from repro.telemetry.report import fault_table

            print(fault_table(run.ledger, run.counters))
            print()
    status = "converged" if run.converged else "iteration cap reached"
    recovery_note = (
        f", recovery {format_bytes(run.total_recovery_bytes)}"
        if run.total_recovery_bytes
        else ""
    )
    print(
        f"{run.architecture} / {run.kernel} on {graph_name}: "
        f"{run.num_iterations} iterations ({status}), "
        f"{format_bytes(run.total_host_link_bytes)} moved"
        f"{recovery_note}, "
        f"modeled time {run.total_seconds * 1e3:.3f} ms"
    )
    streamed = int(run.counters["engine-streamed-iterations"])
    if streamed:
        print(
            f"engine streaming: {streamed} iterations in "
            f"{int(run.counters['engine-edge-blocks'])} blocks, peak tracked "
            f"{format_bytes(run.counters['engine-peak-tracked-bytes'])}"
        )
    if args.energy:
        breakdown = estimate_run_energy(run)
        print(
            f"energy: {breakdown.total_joules * 1e3:.4f} mJ "
            f"(movement {breakdown.movement_joules * 1e3:.4f}, "
            f"compute {breakdown.compute_joules * 1e3:.4f})"
        )
    if args.trace_csv:
        write_trace_csv(trace_run(run), args.trace_csv)
        print(f"trace written to {args.trace_csv}")
    if args.trace_jsonl:
        write_trace_jsonl(trace_run(run), args.trace_jsonl)
        print(f"trace written to {args.trace_jsonl}")
    if args.result_sha:
        from repro.serve.protocol import result_sha256

        print(f"result sha256: {result_sha256(run.result_property())}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
