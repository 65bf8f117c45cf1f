"""Offline analyses built on finished runs and traces."""

from repro.analysis.direction import (
    DirectionProfile,
    OffloadDirections,
    direction_profile,
    offload_directions,
    pull_iteration_bytes,
)
from repro.analysis.projection import (
    ProjectedMovement,
    ScaleFactors,
    project_phase_bytes,
    project_run,
    project_trace,
)

__all__ = [
    "ProjectedMovement",
    "ScaleFactors",
    "project_phase_bytes",
    "project_run",
    "project_trace",
    "DirectionProfile",
    "OffloadDirections",
    "direction_profile",
    "offload_directions",
    "pull_iteration_bytes",
]
