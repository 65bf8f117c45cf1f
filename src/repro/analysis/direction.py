"""Push vs pull traversal direction analysis for frontier kernels.

Direction-optimizing BFS (Beamer et al.) switches between *push* (scan the
frontier's out-edges) and *pull* (scan the undiscovered vertices' in-edges)
as the frontier waxes and wanes.  On a disaggregated NDP system the same
switch changes what crosses the network:

* **push offload** — frontier property push + one partial update per
  (destination, memory node) pair (what the simulators measure);
* **pull offload** — a frontier membership bitmap to every memory node
  (``ceil(n/8)`` bytes each) + exactly one update per *newly discovered*
  vertex: the dense-frontier iterations that flood push with partial
  updates produce almost nothing under pull.

The direction never changes which vertices an iteration discovers, so one
measured BFS run prices both: push costs come from the simulator's ledger
and pull costs from :func:`pull_iteration_bytes` over the run's levels.
It quantifies a further dynamic decision the paper's runtime would own:
not just *whether* and *where* to offload, but *in which direction*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Union

import numpy as np

from repro.errors import ReproError
from repro.graph.csr import CSRGraph
from repro.kernels.base import VERTEX_ID_BYTES, VertexProgram

if TYPE_CHECKING:
    from repro.arch.results import RunResult


def pull_iteration_bytes(
    *,
    num_vertices: int,
    num_parts: int,
    discovered_next: Union[int, np.ndarray],
    wire_bytes: int,
) -> Union[int, np.ndarray]:
    """Host-link bytes of one pull-offload iteration.

    Bitmap broadcast to each memory node + one update per discovery; an
    ``int64`` array of discovery counts prices one iteration per entry.
    """
    bitmap = int(np.ceil(num_vertices / 8))
    return bitmap * num_parts + wire_bytes * discovered_next


@dataclass(frozen=True)
class DirectionProfile:
    """Per-iteration byte costs of the four (direction x placement) modes."""

    iterations: int
    push_offload: np.ndarray  # measured by the simulator
    pull_offload: np.ndarray  # analytic
    push_fetch: np.ndarray  # measured (edge fetch)
    pull_fetch: np.ndarray  # analytic (in-edge fetch of candidates)
    frontier: np.ndarray
    discovered: np.ndarray

    def _modes(self) -> Dict[str, np.ndarray]:
        return {
            "push-offload": self.push_offload,
            "pull-offload": self.pull_offload,
            "push-fetch": self.push_fetch,
            "pull-fetch": self.pull_fetch,
        }

    def best_mode_per_iteration(self) -> List[str]:
        """Cheapest of the four modes per iteration."""
        modes = self._modes()
        return [
            min(modes, key=lambda k: modes[k][i]) for i in range(self.iterations)
        ]

    def totals(self) -> Dict[str, int]:
        """Whole-run totals per fixed mode plus the adaptive envelope (the
        cheapest mode picked each iteration)."""
        modes = self._modes()
        totals = {name: int(cost.sum()) for name, cost in modes.items()}
        totals["adaptive"] = int(np.minimum.reduce(list(modes.values())).sum())
        return totals


def direction_profile(
    graph: CSRGraph,
    levels: np.ndarray,
    kernel: VertexProgram,
    *,
    num_parts: int,
    push_offload_bytes: np.ndarray,
    push_fetch_bytes: np.ndarray,
) -> DirectionProfile:
    """Build the direction profile for a finished BFS-style run.

    Parameters
    ----------
    levels:
        per-vertex discovery level (-1 = unreached) from the run.
    push_offload_bytes / push_fetch_bytes:
        measured per-iteration bytes of the disaggregated-NDP and
        disaggregated (fetch) simulator runs.
    """
    levels = np.asarray(levels)
    if levels.shape != (graph.num_vertices,):
        raise ReproError(
            f"levels must have shape ({graph.num_vertices},), got {levels.shape}"
        )
    max_level = int(levels.max()) if (levels >= 0).any() else -1
    iterations = max_level  # iteration t discovers level t+1
    if iterations < 1:
        raise ReproError("run discovered nothing; no iterations to profile")

    in_deg = graph.in_degrees
    frontier_sizes = np.zeros(iterations, dtype=np.int64)
    discovered = np.zeros(iterations, dtype=np.int64)
    pull_fetch = np.zeros(iterations, dtype=np.int64)

    for t in range(iterations):
        candidates_mask = (levels > t) | (levels < 0)  # undiscovered at t
        frontier_sizes[t] = int((levels == t).sum())
        discovered[t] = int((levels == t + 1).sum())
        # pull-fetch: hosts request + fetch the candidates' in-edge lists.
        cand_in_edges = int(in_deg[candidates_mask].sum())
        pull_fetch[t] = VERTEX_ID_BYTES * int(candidates_mask.sum()) + 8 * cand_in_edges

    return DirectionProfile(
        iterations=iterations,
        push_offload=np.asarray(push_offload_bytes[:iterations], dtype=np.int64),
        pull_offload=pull_iteration_bytes(
            num_vertices=graph.num_vertices,
            num_parts=num_parts,
            discovered_next=discovered,
            wire_bytes=kernel.message.wire_bytes,
        ),
        push_fetch=np.asarray(push_fetch_bytes[:iterations], dtype=np.int64),
        pull_fetch=pull_fetch,
        frontier=frontier_sizes,
        discovered=discovered,
    )


@dataclass(frozen=True)
class OffloadDirections:
    """Push vs pull offload bytes of every iteration of one BFS run,
    including the final one that discovers nothing."""

    frontier: np.ndarray
    discovered: np.ndarray
    push: np.ndarray  # the simulator's ledger
    pull: np.ndarray  # pull_iteration_bytes

    def directions(self) -> List[str]:
        """The auto choice per iteration: push unless pull is cheaper."""
        return ["push" if p <= q else "pull" for p, q in zip(self.push, self.pull)]

    def auto(self) -> np.ndarray:
        """Per-iteration bytes of the auto choice."""
        return np.minimum(self.push, self.pull)

    def totals(self) -> Dict[str, int]:
        """Whole-run bytes of forced push, forced pull and auto."""
        return {
            "push": int(self.push.sum()),
            "pull": int(self.pull.sum()),
            "auto": int(self.auto().sum()),
        }


def offload_directions(run: "RunResult") -> OffloadDirections:
    """Price push and pull for each iteration of a disaggregated-NDP BFS run."""
    levels = run.result_property()
    push = run.per_iteration_bytes()
    # Iteration t discovers level t+1; the source (level 0) is no discovery.
    discovered = np.bincount(levels[levels > 0] - 1, minlength=push.size)
    pull = pull_iteration_bytes(
        num_vertices=levels.size,
        num_parts=run.num_parts,
        discovered_next=discovered,
        wire_bytes=run.kernel_program.message.wire_bytes,
    )
    return OffloadDirections(run.per_iteration_frontier(), discovered, push, pull)
