"""repro — Disaggregated NDP architectures for large-scale graph analytics.

A production-quality reproduction of *"Towards Disaggregated NDP
Architectures for Large-scale Graph Analytics"* (Lee, Rao, Gavrilovska;
SC 2024 workshops): CSR graph substrate, from-scratch multilevel
partitioner, vertex-program kernels, Table I hardware models, discrete
simulators for the four Table II system architectures, the offload/
aggregation runtime mechanisms of Section IV, and a harness regenerating
every table and figure.

Quickstart — the stable facade (one keyword-only call per workflow)::

    import repro

    result = repro.run(dataset="livejournal-sim", kernel="pagerank",
                       architecture="disaggregated-ndp", tier="tiny")
    print(result.summary_table())

    comparison = repro.compare(dataset="twitter-sim", kernel="bfs",
                               tier="tiny")

Or assemble the pieces yourself::

    from repro import load_dataset, PageRank, DisaggregatedNDPSimulator

    graph, spec = load_dataset("livejournal-sim")
    sim = DisaggregatedNDPSimulator()
    run = sim.run(graph, PageRank(), graph_name=spec.name)
    print(run.summary_table())
"""

from repro.errors import (
    CapabilityError,
    ConfigError,
    ExperimentError,
    FaultError,
    JournalError,
    GraphError,
    KernelError,
    PartitionError,
    RecoveryError,
    ReproError,
    SimulationError,
    SweepInterrupted,
)
from repro.faults import (
    AdaptiveCheckpoint,
    CheckpointPolicy,
    EveryKCheckpoint,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    FaultSpec,
    NoCheckpoint,
)
from repro.graph import (
    CSRGraph,
    GraphBuilder,
    barabasi_albert,
    compute_stats,
    erdos_renyi,
    list_datasets,
    rmat,
)
from repro.partition import (
    BFSGrowPartitioner,
    HashPartitioner,
    MetisPartitioner,
    PartitionAssignment,
    RandomPartitioner,
    RangePartitioner,
    build_mirror_table,
    partition_quality,
)
from repro.kernels import (
    BFS,
    SSSP,
    ConnectedComponents,
    DegreeCentrality,
    KCore,
    PageRank,
    get_kernel,
    list_kernels,
)
from repro.hardware import (
    CXL_CMS,
    CXL_PNM,
    HOST_XEON,
    SHARP_SWITCH,
    SWITCHML_TOFINO,
    UPMEM_PIM,
    check_offload,
    device_catalog,
)
from repro.arch import (
    DisaggregatedNDPSimulator,
    DisaggregatedSimulator,
    DistributedNDPSimulator,
    DistributedSimulator,
    ExecutionTrace,
    RunResult,
    estimate_run_energy,
    get_architecture,
    list_architectures,
    record_trace,
)
from repro.api import (
    PolicySpec,
    RunSpec,
    SweepSpec,
    compare,
    load_dataset,
    partition,
    run,
    sweep,
    vertex_program,
)
from repro.runtime import (
    AdaptiveOffloadPolicy,
    AlwaysOffload,
    DynamicCostPolicy,
    NeverOffload,
    OraclePolicy,
    PerPartCostPolicy,
    SystemConfig,
    ThresholdPolicy,
    estimate_movement,
    exact_movement,
    get_policy,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # facade
    "PolicySpec",
    "RunSpec",
    "SweepSpec",
    "run",
    "compare",
    "sweep",
    "load_dataset",
    "partition",
    # errors
    "ReproError",
    "GraphError",
    "PartitionError",
    "KernelError",
    "CapabilityError",
    "ConfigError",
    "SimulationError",
    "ExperimentError",
    "JournalError",
    "SweepInterrupted",
    "FaultError",
    "RecoveryError",
    # faults
    "FaultEvent",
    "FaultKind",
    "FaultSchedule",
    "FaultSpec",
    "CheckpointPolicy",
    "NoCheckpoint",
    "EveryKCheckpoint",
    "AdaptiveCheckpoint",
    # graph
    "CSRGraph",
    "GraphBuilder",
    "rmat",
    "erdos_renyi",
    "barabasi_albert",
    "list_datasets",
    "compute_stats",
    # partition
    "PartitionAssignment",
    "HashPartitioner",
    "RandomPartitioner",
    "RangePartitioner",
    "BFSGrowPartitioner",
    "MetisPartitioner",
    "build_mirror_table",
    "partition_quality",
    # kernels
    "PageRank",
    "BFS",
    "SSSP",
    "ConnectedComponents",
    "DegreeCentrality",
    "KCore",
    "get_kernel",
    "list_kernels",
    # hardware
    "CXL_CMS",
    "CXL_PNM",
    "UPMEM_PIM",
    "SWITCHML_TOFINO",
    "SHARP_SWITCH",
    "HOST_XEON",
    "device_catalog",
    "check_offload",
    # architectures
    "DistributedSimulator",
    "DistributedNDPSimulator",
    "DisaggregatedSimulator",
    "DisaggregatedNDPSimulator",
    "RunResult",
    "ExecutionTrace",
    "record_trace",
    "estimate_run_energy",
    "get_architecture",
    "list_architectures",
    "vertex_program",
    # runtime
    "SystemConfig",
    "AdaptiveOffloadPolicy",
    "AlwaysOffload",
    "NeverOffload",
    "ThresholdPolicy",
    "DynamicCostPolicy",
    "OraclePolicy",
    "PerPartCostPolicy",
    "get_policy",
    "estimate_movement",
    "exact_movement",
]
