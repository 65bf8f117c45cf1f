"""Sweep scheduler seam: one box today, a cluster with the same semantics.

:func:`repro.experiments.sweep.run_sweep` owns *what* a sweep is — task
order, journaling, resume, result assembly.  A :class:`SweepScheduler`
owns *where* the remaining tasks execute:

* :class:`LocalScheduler` — the default; runs in-process for
  ``jobs <= 1``, and otherwise runs the sweep coordinator on loopback
  with ``jobs`` workers forked from this process and the graphs in
  shared memory;
* :class:`~repro.experiments.remote.RemoteScheduler` — the same asyncio
  TCP coordinator feeding ``repro-worker`` processes on any number of
  hosts, with the content-addressed artifact cache as the data plane.

Every parallel sweep therefore runs on one supervisor, driven by the
same :class:`SweepOptions`: per-task retries with capped exponential
backoff (:class:`repro.utils.backoff.BackoffPolicy`), per-task timeouts,
keepalive supervision with blame attribution, poison-task quarantine,
and fail-fast vs ``keep_going`` semantics.  The journal records outcomes
identically under either scheduler, so a sweep killed under one can
resume under the other.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.cache import load_dataset_cached
from repro.utils.backoff import BackoffPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.chaos import ChaosPlan
    from repro.experiments.sweep import SweepOutcome, SweepTask, _JournalSession


@dataclass(frozen=True)
class SweepOptions:
    """Execution knobs shared by every scheduler implementation.

    ``jobs`` is the local worker-process count (the remote scheduler's
    parallelism is its connected worker count instead).  ``backoff``
    paces task retries; ``heartbeat_timeout_s`` is the staleness bound
    for worker keepalives, forked or remote.
    """

    jobs: int = 1
    timeout: Optional[float] = None
    retries: int = 2
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    keep_going: bool = False
    collect_spans: bool = False
    poison_threshold: Optional[int] = None
    heartbeat_timeout_s: float = 30.0


class SweepScheduler(ABC):
    """Strategy for executing a sweep's remaining tasks.

    ``execute`` mutates ``results`` in place (``idx -> SweepOutcome``)
    and writes journal records through ``session`` exactly like the
    historical in-process driver: ``start`` at dispatch, ``outcome`` on
    completion/failure/quarantine.  It raises ``ExperimentError`` on
    fail-fast task failure and ``SweepInterrupted`` on signal shutdown.
    """

    #: short name used by ``--scheduler`` and error messages
    name: str = "?"

    @abstractmethod
    def execute(
        self,
        todo: Sequence[Tuple[int, "SweepTask"]],
        results: Dict[int, "SweepOutcome"],
        session: "_JournalSession",
        chaos: "ChaosPlan",
        opts: SweepOptions,
    ) -> None:
        """Run every ``(idx, task)`` in ``todo``, recording into ``results``."""


class LocalScheduler(SweepScheduler):
    """Single-host execution: in-process, or forked loopback workers.

    Each distinct graph is loaded once, in task order.  ``jobs <= 1``
    runs the tasks in this process; otherwise the graphs are published
    to shared memory and the sweep coordinator serves ``jobs`` workers
    forked from this process (:func:`repro.experiments.remote.
    run_forked`).  Both run the same task function, so outcomes are
    bit-identical.
    """

    name = "local"

    def __init__(self, *, jobs: Optional[int] = None) -> None:
        #: overrides ``opts.jobs`` when given (run_sweep passes via opts)
        self.jobs = jobs

    def execute(
        self,
        todo: Sequence[Tuple[int, "SweepTask"]],
        results: Dict[int, "SweepOutcome"],
        session: "_JournalSession",
        chaos: "ChaosPlan",
        opts: SweepOptions,
    ) -> None:
        # Imported here: sweep.py imports this module for the seam types.
        from repro.experiments import sweep as _sweep

        jobs = self.jobs if self.jobs is not None else opts.jobs
        # Load each distinct graph exactly once, in task order — and only
        # for the tasks actually left to run on a resume.
        graphs: Dict[Tuple[str, str, int], Tuple[object, str]] = {}
        for _idx, task in todo:
            if task.graph_key not in graphs:
                graph, ds = load_dataset_cached(
                    task.dataset, tier=task.tier, seed=task.seed
                )
                graphs[task.graph_key] = (graph, ds.name)
        if jobs <= 1:
            _sweep._run_serial(
                todo,
                graphs,
                results,
                session,
                chaos,
                keep_going=opts.keep_going,
                collect_spans=opts.collect_spans,
            )
        else:
            # Imported here so a serial sweep never loads asyncio.
            from repro.experiments.remote import run_forked

            run_forked(
                todo, graphs, results, session, chaos, opts,
                workers=min(jobs, len(todo)),
            )
