"""Tests for the direction-optimized BFS model behind `ablation-dobfs`:
push bytes from the NDP simulator's ledger, pull bytes from
`pull_iteration_bytes`, auto the cheaper of the two per iteration."""

import numpy as np
import pytest

from repro.analysis import (
    OffloadDirections,
    offload_directions,
    pull_iteration_bytes,
)
from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.graph.generators import path_graph
from repro.kernels.bfs import BFS
from repro.runtime.config import SystemConfig


def run_ndp_bfs(graph, source, num_parts):
    sim = DisaggregatedNDPSimulator(SystemConfig(num_memory_nodes=num_parts))
    return sim.run(graph, BFS(), source=source)


@pytest.fixture(scope="module")
def run(twitter_tiny):
    return run_ndp_bfs(twitter_tiny, int(twitter_tiny.out_degrees.argmax()), 8)


@pytest.fixture(scope="module")
def modes(run):
    return offload_directions(run)


class TestCorrectness:
    def test_path_graph(self):
        g = path_graph(8, directed=True)
        run = run_ndp_bfs(g, 0, 2)
        assert list(run.result_property()) == list(range(8))
        # Every iteration but the last discovers exactly one vertex.
        assert list(offload_directions(run).discovered) == [1] * 7 + [0]

    def test_isolated_source(self):
        # Vertex 4 has no out-edges: one (empty) iteration, nothing found.
        g = path_graph(5, directed=True)
        modes = offload_directions(run_ndp_bfs(g, 4, 2))
        assert list(modes.frontier) == [1]
        assert list(modes.discovered) == [0]


class TestAccountingConsistency:
    def test_covers_every_iteration(self, run, modes):
        levels = run.result_property()
        assert modes.push.size == run.num_iterations == int(levels.max()) + 1
        for t in range(run.num_iterations):
            assert modes.frontier[t] == int((levels == t).sum())
            assert modes.discovered[t] == int((levels == t + 1).sum())
        # The final iteration scans the last level and discovers nothing.
        assert modes.discovered[-1] == 0

    def test_pull_bytes_match_analytic_model(self, twitter_tiny, modes):
        for discovered, pull in zip(modes.discovered, modes.pull):
            assert pull == pull_iteration_bytes(
                num_vertices=twitter_tiny.num_vertices,
                num_parts=8,
                discovered_next=int(discovered),
                wire_bytes=BFS().message.wire_bytes,
            )

    def test_costs_recorded_for_both_alternatives(self, run, modes):
        assert np.array_equal(modes.push, run.per_iteration_bytes())
        assert modes.pull.shape == modes.push.shape
        for direction, auto, push, pull in zip(
            modes.directions(), modes.auto(), modes.push, modes.pull
        ):
            assert auto == (push if direction == "push" else pull)


class TestAutoPolicy:
    def test_auto_beats_fixed_directions(self, modes):
        totals = modes.totals()
        assert list(totals) == ["push", "pull", "auto"]
        assert totals["auto"] <= min(totals["push"], totals["pull"])

    def test_auto_picks_cheaper_each_iteration(self, modes):
        for direction, push, pull in zip(
            modes.directions(), modes.push, modes.pull
        ):
            assert direction == ("push" if push <= pull else "pull")

    def test_ties_go_push(self):
        tied = np.asarray([5, 7], dtype=np.int64)
        modes = OffloadDirections(
            frontier=np.ones(2, dtype=np.int64),
            discovered=np.zeros(2, dtype=np.int64),
            push=tied,
            pull=tied.copy(),
        )
        assert modes.directions() == ["push", "push"]

    def test_direction_switches_on_skewed_graph(self, modes):
        assert set(modes.directions()) == {"push", "pull"}

    def test_sparse_chain_stays_push(self):
        g = path_graph(64, directed=True)
        modes = offload_directions(run_ndp_bfs(g, 0, 2))
        # One-vertex frontiers: pull's bitmap broadcast never pays off.
        assert set(modes.directions()) == {"push"}
