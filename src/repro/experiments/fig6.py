"""Fig. 6 — impact of partitioning and in-network aggregation on movement.

PageRank on com-LiveJournal swept over the partition count.  Four series:

* ``fetch`` — no NDP baseline (flat: edges fetched don't depend on K);
* ``ndp-hash`` — offload with hash partitioning (grows with K; the
  overheads of distribution eventually *nullify the NDP benefit*);
* ``ndp-metis`` — offload with min-cut partitioning (the paper's green
  line: much lower growth, but still rising);
* ``ndp-metis-inc`` — adds in-network aggregation (the brown line: flat,
  restores the NDP benefit at every scale).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.arch.disaggregated import DisaggregatedSimulator
from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.experiments.common import (
    DEFAULT_SEED,
    DEFAULT_TIER,
    ExperimentResult,
    load_dataset,
)
from repro.kernels.pagerank import PageRank
from repro.partition.metis import MetisPartitioner
from repro.runtime.config import SystemConfig
from repro.utils.tables import TextTable

DEFAULT_PARTITIONS = (2, 4, 8, 16, 32, 64)


def run(
    *,
    tier: str = DEFAULT_TIER,
    dataset: str = "livejournal-sim",
    partitions: Sequence[int] = DEFAULT_PARTITIONS,
    max_iterations: int = 5,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Sweep the partition count for every deployment strategy."""
    graph, spec = load_dataset(dataset, tier=tier, seed=seed)
    series: Dict[str, List[float]] = {
        "fetch": [],
        "ndp-hash": [],
        "ndp-metis": [],
        "ndp-metis-inc": [],
    }
    metis = MetisPartitioner()
    for k in partitions:
        config = SystemConfig(num_memory_nodes=int(k))
        config_inc = config.with_options(enable_inc=True)
        kernel = lambda: PageRank(max_iterations=max_iterations)  # noqa: E731

        fetch = DisaggregatedSimulator(config).run(
            graph, kernel(), max_iterations=max_iterations, seed=seed
        )
        ndp_hash = DisaggregatedNDPSimulator(config).run(
            graph, kernel(), max_iterations=max_iterations, seed=seed
        )
        assignment = metis.partition(graph, int(k), seed=seed)
        ndp_metis = DisaggregatedNDPSimulator(config).run(
            graph, kernel(), assignment=assignment, max_iterations=max_iterations
        )
        ndp_inc = DisaggregatedNDPSimulator(config_inc).run(
            graph, kernel(), assignment=assignment, max_iterations=max_iterations
        )
        series["fetch"].append(float(fetch.total_host_link_bytes))
        series["ndp-hash"].append(float(ndp_hash.total_host_link_bytes))
        series["ndp-metis"].append(float(ndp_metis.total_host_link_bytes))
        series["ndp-metis-inc"].append(float(ndp_inc.total_host_link_bytes))

    table = TextTable(
        ["partitions", "fetch (MB)", "ndp-hash (MB)", "ndp-metis (MB)", "ndp-metis-inc (MB)"],
        title=(
            f"Fig. 6 reproduction — PageRank on {spec.name}, movement vs "
            "partition count"
        ),
    )
    for i, k in enumerate(partitions):
        table.add_row(
            int(k),
            series["fetch"][i] / 1e6,
            series["ndp-hash"][i] / 1e6,
            series["ndp-metis"][i] / 1e6,
            series["ndp-metis-inc"][i] / 1e6,
        )
    from repro.utils.ascii_chart import line_chart

    chart = line_chart(
        {name: [v / 1e6 for v in values] for name, values in series.items()},
        title="movement (MB) vs partition count",
        x_labels=[int(k) for k in partitions],
        height=14,
    )
    result = ExperimentResult(
        experiment_id="fig6",
        title="Partitioning and in-network aggregation vs data movement",
        tables=[table],
        charts=[chart],
        data={"partitions": [int(k) for k in partitions], "series": series},
    )
    result.notes.append(
        "Expected shape (paper): ndp-hash rises with K and crosses above the "
        "fetch baseline; METIS partitioning delays the crossover; INC "
        "aggregation is ~flat in K and restores the NDP benefit."
    )
    return result
