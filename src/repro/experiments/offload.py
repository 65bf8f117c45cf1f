"""Offload-controller experiment — adaptive policy vs the static grid.

The paper's Section IV conclusion argues future frameworks need
*per-iteration dynamic offload decisions*.  This experiment demonstrates
the closed-loop :class:`~repro.runtime.offload.AdaptiveOffloadPolicy`
delivering exactly that: each Fig. 7 cell (workload × graph) executes
once, the recorded trace replays through the four static architecture
deployments, and the adaptive controller replays the same trace choosing
placement per iteration (and per memory node) from live frontier
structure plus the byte feedback of completed iterations.

The acceptance bar is explicit in ``data["acceptance"]``: the adaptive
policy must move fewer host-link bytes than *every* static architecture
on at least one cell, and its decision trace must show the per-iteration
placement flips that explain why.  The decision records come off the
iteration spans (the same records ``--decision-trace`` streams), and the
per-iteration byte attributes on those spans sum exactly to the movement
ledger's totals — both are asserted here, not just claimed.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.arch.disaggregated import DisaggregatedSimulator
from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.arch.distributed import DistributedSimulator
from repro.arch.distributed_ndp import DistributedNDPSimulator
from repro.arch.trace import record_trace
from repro.experiments.common import (
    DEFAULT_SEED,
    DEFAULT_TIER,
    ExperimentResult,
    load_dataset,
)
from repro.experiments.fig7 import PANELS
from repro.kernels.registry import get_kernel
from repro.obs.span import CATEGORY_ITERATION, Tracer, use_tracer
from repro.runtime.config import SystemConfig
from repro.runtime.offload import AdaptiveOffloadPolicy
from repro.utils.tables import TextTable

#: the static deployments the adaptive controller must beat
STATIC_ARCHITECTURES = (
    "distributed",
    "distributed-ndp",
    "disaggregated",
    "disaggregated-ndp",
)


def run(
    *, tier: str = DEFAULT_TIER, seed: int = DEFAULT_SEED
) -> ExperimentResult:
    """Adaptive offload controller across the Fig. 7 grid."""
    tables = []
    data: Dict[str, Any] = {}
    cells_won: List[str] = []
    for spec in PANELS:
        graph, ds = load_dataset(spec.dataset, tier=tier, seed=seed)
        kernel = get_kernel(spec.kernel)
        source = (
            int(graph.out_degrees.argmax()) if kernel.needs_source else None
        )
        cfg = SystemConfig(num_memory_nodes=spec.partitions)
        trace = record_trace(
            graph,
            kernel,
            num_parts=spec.partitions,
            source=source,
            max_iterations=spec.max_iterations,
            graph_name=ds.name,
            seed=seed,
        )
        ndp_cfg = cfg.with_options(enable_inc=True)
        statics = {
            "distributed": DistributedSimulator(cfg),
            "distributed-ndp": DistributedNDPSimulator(cfg),
            "disaggregated": DisaggregatedSimulator(cfg),
            "disaggregated-ndp": DisaggregatedNDPSimulator(ndp_cfg),
        }
        runs = {name: sim.replay(trace) for name, sim in statics.items()}

        # The adaptive replay runs under a local tracer so the decision
        # stream (the same records --decision-trace exports) lands in the
        # experiment data.
        decisions: List[Dict[str, Any]] = []
        span_byte_sum = 0

        def _collect(span) -> None:
            nonlocal span_byte_sum
            if span.category != CATEGORY_ITERATION:
                return
            record = span.attrs.get("decision")
            if record is None:
                return
            row = dict(record)
            row["host_link_bytes"] = span.attrs.get("host_link_bytes", 0)
            span_byte_sum += int(row["host_link_bytes"])
            decisions.append(row)

        tracer = Tracer()
        tracer.add_listener(_collect)
        with use_tracer(tracer):
            adaptive = DisaggregatedNDPSimulator(
                ndp_cfg, policy=AdaptiveOffloadPolicy()
            ).replay(trace)

        if span_byte_sum != adaptive.total_host_link_bytes:
            raise AssertionError(
                f"decision-trace byte attrs sum to {span_byte_sum}, ledger "
                f"says {adaptive.total_host_link_bytes} — the trace no "
                "longer reflects the accounting"
            )

        label = f"{spec.kernel}/{ds.name}"
        totals = {
            name: int(run.total_host_link_bytes) for name, run in runs.items()
        }
        adaptive_total = int(adaptive.total_host_link_bytes)
        wins = all(adaptive_total < total for total in totals.values())
        if wins:
            cells_won.append(label)
        modes = [d["mode"] for d in decisions]
        flips = sum(1 for a, b in zip(modes, modes[1:]) if a != b)

        table = TextTable(
            ["deployment", "host-link bytes", "vs adaptive"],
            title=(
                f"Offload controller — {label}, "
                f"{spec.partitions} partitions, {len(decisions)} iterations"
            ),
        )
        for name in STATIC_ARCHITECTURES:
            delta = totals[name] - adaptive_total
            table.add_row(
                name,
                totals[name],
                f"+{delta}" if delta > 0 else str(delta),
            )
        table.add_row(
            "adaptive",
            adaptive_total,
            f"wins={wins}, mode flips={flips}",
        )
        tables.append(table)
        data[label] = {
            "dataset": ds.name,
            "kernel": spec.kernel,
            "partitions": spec.partitions,
            "static_host_link_bytes": totals,
            "adaptive_host_link_bytes": adaptive_total,
            "wins": wins,
            "mode_flips": flips,
            "calibration_updates": int(
                adaptive.counters["policy-calibration-updates"]
            ),
            "decisions": decisions,
        }

    data["acceptance"] = {
        "cells_won": len(cells_won),
        "winning_cells": cells_won,
        "passed": len(cells_won) >= 1,
    }
    result = ExperimentResult(
        experiment_id="offload",
        title="Adaptive per-iteration offload controller vs static grid",
        tables=tables,
        data=data,
    )
    if cells_won:
        result.notes.append(
            f"Adaptive beats every static architecture on {len(cells_won)} "
            f"cell(s): {', '.join(cells_won)} — the decision trace shows "
            "the per-iteration placement flips responsible."
        )
    else:
        result.notes.append(
            "Adaptive won no cell outright at this tier — the static "
            "optimum did not flip mid-run; rerun at a larger tier."
        )
    return result
