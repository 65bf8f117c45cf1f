"""Graph partitioning: simple schemes, a from-scratch METIS-like multilevel
partitioner, quality metrics, and Gluon-style master/mirror construction."""

from repro.partition.base import (
    PartitionAssignment,
    Partitioner,
    balance_ratio,
    communication_volume,
    edge_balance_ratio,
    edge_cut,
    partition_quality,
    PartitionQuality,
)
from repro.partition.random_hash import HashPartitioner, RandomPartitioner
from repro.partition.range_chunk import EdgeBalancedRangePartitioner, RangePartitioner
from repro.partition.bfs_grow import BFSGrowPartitioner
from repro.partition.metis import MetisPartitioner
from repro.partition.streaming import LDGStreamingPartitioner
from repro.partition.mirrors import MirrorTable, build_mirror_table, replication_factor
from repro.partition.registry import get_partitioner, list_partitioners

__all__ = [
    "PartitionAssignment",
    "Partitioner",
    "edge_cut",
    "communication_volume",
    "balance_ratio",
    "edge_balance_ratio",
    "partition_quality",
    "PartitionQuality",
    "HashPartitioner",
    "RandomPartitioner",
    "RangePartitioner",
    "EdgeBalancedRangePartitioner",
    "BFSGrowPartitioner",
    "MetisPartitioner",
    "LDGStreamingPartitioner",
    "MirrorTable",
    "build_mirror_table",
    "replication_factor",
    "get_partitioner",
    "list_partitioners",
]
