"""Name-based partitioner lookup for experiment configs and the CLI."""

from __future__ import annotations

from typing import Dict, Tuple, Type

from repro.errors import PartitionError
from repro.partition.base import Partitioner
from repro.partition.bfs_grow import BFSGrowPartitioner
from repro.partition.metis import MetisPartitioner
from repro.partition.random_hash import HashPartitioner, RandomPartitioner
from repro.partition.range_chunk import EdgeBalancedRangePartitioner, RangePartitioner
from repro.partition.streaming import LDGStreamingPartitioner

_REGISTRY: Dict[str, Type[Partitioner]] = {
    cls.name: cls
    for cls in (
        HashPartitioner,
        RandomPartitioner,
        RangePartitioner,
        EdgeBalancedRangePartitioner,
        BFSGrowPartitioner,
        MetisPartitioner,
        LDGStreamingPartitioner,
    )
}


def list_partitioners() -> Tuple[str, ...]:
    """Registered partitioner names."""
    return tuple(sorted(_REGISTRY))


def get_partitioner(name: str, **kwargs: object) -> Partitioner:
    """Instantiate a partitioner by registry name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise PartitionError(
            f"unknown partitioner {name!r}; available: {', '.join(list_partitioners())}"
        ) from None
    return cls(**kwargs)  # type: ignore[arg-type]
