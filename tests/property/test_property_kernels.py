"""Property-based tests on kernel semantics and the direction model."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis import offload_directions
from repro.arch.disaggregated import DisaggregatedSimulator
from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.graph.csr import CSRGraph
from repro.kernels import reference
from repro.kernels.bfs import BFS
from repro.kernels.kcore import KCore
from repro.kernels.sssp import SSSP
from repro.kernels.widest_path import WidestPath
from repro.runtime.config import SystemConfig


@st.composite
def graphs_with_source(draw, max_vertices=25, max_edges=80):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    source = draw(st.integers(0, n - 1))
    graph = CSRGraph.from_edges(
        np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64), n
    )
    return graph, source


def run_engine(graph, kernel, source=None):
    sim = DisaggregatedSimulator(SystemConfig(num_memory_nodes=3))
    return sim.run(graph, kernel, source=source)


@given(graphs_with_source())
@settings(max_examples=40, deadline=None)
def test_dobfs_matches_reference_on_random_graphs(data):
    graph, source = data
    run = DisaggregatedNDPSimulator(SystemConfig(num_memory_nodes=3)).run(
        graph, BFS(), source=source
    )
    modes = offload_directions(run)
    levels = reference.bfs(graph, source)
    # Iteration t scans reference level t and discovers level t+1.
    assert modes.frontier.size == int(levels.max()) + 1
    for t in range(modes.frontier.size):
        assert modes.frontier[t] == int((levels == t).sum())
        assert modes.discovered[t] == int((levels == t + 1).sum())


@given(
    graphs_with_source(),
    st.sampled_from([DisaggregatedSimulator, DisaggregatedNDPSimulator]),
)
@settings(max_examples=60, deadline=None)
def test_bfs_engine_matches_reference(data, simulator):
    graph, source = data
    run = simulator(SystemConfig(num_memory_nodes=3)).run(
        graph, BFS(), source=source
    )
    assert np.array_equal(run.result_property(), reference.bfs(graph, source))
    if simulator is DisaggregatedNDPSimulator:
        totals = offload_directions(run).totals()
        assert totals["auto"] <= min(totals["push"], totals["pull"])


@given(graphs_with_source())
@settings(max_examples=30, deadline=None)
def test_sssp_triangle_inequality(data):
    graph, source = data
    run = run_engine(graph, SSSP(), source=source)
    dist = run.result_property()
    # Relaxation fixpoint: no edge can still improve a distance.
    src, dst = graph.edge_array()
    w = np.ones(src.size)
    finite = np.isfinite(dist[src])
    assert np.all(dist[dst[finite]] <= dist[src[finite]] + w[finite] + 1e-9)
    assert dist[source] == 0.0


@given(graphs_with_source())
@settings(max_examples=30, deadline=None)
def test_widest_path_fixpoint(data):
    graph, source = data
    weighted = graph.with_uniform_weights(2.0)
    run = run_engine(weighted, WidestPath(), source=source)
    width = run.result_property()
    src, dst = weighted.edge_array()
    # No edge can widen a path further at a fixpoint.
    cand = np.minimum(width[src], weighted.weights)
    assert np.all(width[dst] >= cand - 1e-9)
    assert np.isinf(width[source])


@given(graphs_with_source(), st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_kcore_is_maximal_and_valid(data, k):
    graph, _ = data
    run = run_engine(graph, KCore(k=k))
    core = run.result_property()
    und = graph.symmetrized()
    # Validity: every member has >= k neighbors inside the core.
    for v in np.nonzero(core)[0]:
        nbrs = und.neighbors(int(v))
        assert core[nbrs].sum() >= k
    # Agreement with the trusted reference (maximality).
    assert np.array_equal(core, reference.kcore(graph, k))


@given(graphs_with_source())
@settings(max_examples=25, deadline=None)
def test_kcore_nesting(data):
    graph, _ = data
    core2 = run_engine(graph, KCore(k=2)).result_property()
    core3 = run_engine(graph, KCore(k=3)).result_property()
    # (k+1)-core is contained in the k-core.
    assert np.all(core2[core3])
