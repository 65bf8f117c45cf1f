"""Tests for the push/pull direction analysis."""

import numpy as np
import pytest

from repro.analysis import direction_profile, pull_iteration_bytes
from repro.arch.disaggregated import DisaggregatedSimulator
from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.errors import ReproError
from repro.graph.generators import path_graph
from repro.kernels.bfs import BFS
from repro.runtime.config import SystemConfig


def run_bfs(graph, source, num_parts):
    cfg = SystemConfig(num_memory_nodes=num_parts)
    fetch = DisaggregatedSimulator(cfg).run(graph, BFS(), source=source)
    offload = DisaggregatedNDPSimulator(cfg).run(graph, BFS(), source=source)
    return fetch, offload


def measured_profile(graph, runs, num_parts):
    fetch, offload = runs
    return direction_profile(
        graph,
        fetch.result_property(),
        BFS(),
        num_parts=num_parts,
        push_offload_bytes=offload.per_iteration_bytes(),
        push_fetch_bytes=fetch.per_iteration_bytes(),
    )


@pytest.fixture(scope="module")
def bfs_runs(twitter_tiny):
    return run_bfs(twitter_tiny, int(twitter_tiny.out_degrees.argmax()), 8)


class TestPullIterationBytes:
    def test_formula(self):
        assert pull_iteration_bytes(
            num_vertices=800, num_parts=4, discovered_next=10, wire_bytes=16
        ) == 100 * 4 + 160

    def test_bitmap_rounding(self):
        assert pull_iteration_bytes(
            num_vertices=9, num_parts=1, discovered_next=0, wire_bytes=16
        ) == 2


class TestDirectionProfile:
    def test_profile_from_measured_runs(self, twitter_tiny, bfs_runs):
        fetch, _ = bfs_runs
        levels = fetch.result_property()
        profile = measured_profile(twitter_tiny, bfs_runs, 8)
        assert profile.iterations == int(levels.max())
        # The measured series carry through untouched.
        assert np.array_equal(
            profile.push_fetch,
            fetch.per_iteration_bytes()[: profile.iterations],
        )

    def test_discovery_counts_match_levels(self, twitter_tiny, bfs_runs):
        levels = bfs_runs[0].result_property()
        profile = measured_profile(twitter_tiny, bfs_runs, 8)
        for t in range(profile.iterations):
            assert profile.discovered[t] == int((levels == t + 1).sum())
            assert profile.frontier[t] == int((levels == t).sum())

    def test_pull_wins_dense_iteration(self, twitter_tiny, bfs_runs):
        """On a skewed small-diameter graph the hub iteration floods push
        with updates; pull ships one update per discovery instead."""
        profile = measured_profile(twitter_tiny, bfs_runs, 8)
        dense_iter = int(np.argmax(profile.frontier))
        assert profile.pull_offload[dense_iter] < profile.push_offload[dense_iter]
        assert profile.pull_offload[dense_iter] < profile.push_fetch[dense_iter]

    def test_adaptive_dominates_fixed_modes(self, twitter_tiny, bfs_runs):
        totals = measured_profile(twitter_tiny, bfs_runs, 8).totals()
        assert totals["adaptive"] <= min(
            totals["push-offload"],
            totals["pull-offload"],
            totals["push-fetch"],
            totals["pull-fetch"],
        )

    def test_best_mode_labels(self, twitter_tiny, bfs_runs):
        profile = measured_profile(twitter_tiny, bfs_runs, 8)
        modes = profile.best_mode_per_iteration()
        assert len(modes) == profile.iterations
        assert all(
            m in ("push-offload", "pull-offload", "push-fetch", "pull-fetch")
            for m in modes
        )

    def test_path_graph_pull_never_wins(self):
        # Tiny frontiers every iteration: push costs almost nothing, pull
        # pays the bitmap broadcast every time.
        g = path_graph(32, directed=True)
        profile = measured_profile(g, run_bfs(g, 0, 4), 4)
        assert profile.iterations == 31
        assert np.all(profile.push_fetch <= profile.pull_offload)

    def test_shape_validation(self, twitter_tiny, bfs_runs):
        with pytest.raises(ReproError, match="shape"):
            direction_profile(
                twitter_tiny,
                np.zeros(3),
                BFS(),
                num_parts=4,
                push_offload_bytes=bfs_runs[1].per_iteration_bytes(),
                push_fetch_bytes=bfs_runs[0].per_iteration_bytes(),
            )

    def test_empty_run_rejected(self, twitter_tiny, bfs_runs):
        levels = np.full(twitter_tiny.num_vertices, -1)
        levels[0] = 0  # source only, nothing discovered
        with pytest.raises(ReproError, match="discovered nothing"):
            direction_profile(
                twitter_tiny,
                levels,
                BFS(),
                num_parts=4,
                push_offload_bytes=bfs_runs[1].per_iteration_bytes(),
                push_fetch_bytes=bfs_runs[0].per_iteration_bytes(),
            )

