"""Bench (ablation): push vs pull traversal direction for BFS.

Expected shape (direction-optimizing BFS, mapped to NDP movement): pull
offload wins the dense mid-run iterations — one update per discovery beats
one partial per (destination, node) pair — and the per-iteration adaptive
envelope dominates every fixed mode.
"""

import numpy as np

from repro.experiments import ablations

from conftest import BENCH_TIER


def test_direction(benchmark, archive):
    result = benchmark.pedantic(
        lambda: ablations.run_direction(tier=BENCH_TIER), rounds=1, iterations=1
    )
    archive("ablation-direction", result.render())
    totals = result.data["totals"]
    best_modes = result.data["best_modes"]

    # Adaptive dominates every fixed mode.
    fixed = [v for k, v in totals.items() if k != "adaptive"]
    assert totals["adaptive"] <= min(fixed)
    # At least one iteration is won by a pull mode and one by a push mode —
    # the direction decision is genuinely dynamic.
    assert any(m.startswith("pull") for m in best_modes)
    assert any(m.startswith("push") for m in best_modes)


def test_dobfs_derived(benchmark, archive):
    result = benchmark.pedantic(
        lambda: ablations.run_dobfs(tier=BENCH_TIER), rounds=1, iterations=1
    )
    archive("ablation-dobfs", result.render())
    totals = result.data["totals"]
    directions = result.data["auto_directions"]

    # The auto mode dominates both fixed directions.
    assert totals["auto"] <= min(totals["push"], totals["pull"])
    # On the skewed stand-in the direction genuinely switches mid-run.
    assert "push" in directions and "pull" in directions
