"""Execution backend of the serving daemon.

A small thread pool runs admitted requests.  Each kind maps onto the
facade's single source of truth:

* ``run``/``compare`` lease the graph from the shared :class:`GraphPool`
  and call the facade's resolved entry points
  (:func:`repro.api._run_resolved` / :func:`repro.api._compare_resolved`)
  — the *same* code path ``repro.api.run`` and the ``repro-run`` CLI
  execute, so served results are bit-identical to offline ones;
* ``sweep`` delegates to :func:`repro.experiments.sweep.run_sweep`, the
  sweep coordinator with forked loopback workers (keepalives, retries,
  shared-memory graph publication), with the requested ``jobs`` capped by
  the server.

Threads suffice for parallelism here: the engine hot loops run in numpy
(GIL released) and sweeps fork their own worker processes.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Dict, Mapping, Optional

from repro.obs.metrics import METRICS, M
from repro.serve.pool import GraphPool
from repro.serve.protocol import (
    ServeRequest,
    canonical_bytes,
    encode_compare,
    encode_run,
    encode_sweep,
)


class ServeExecutor:
    """Thread-pool execution of parsed requests → canonical bytes."""

    def __init__(
        self,
        *,
        workers: int,
        pool: GraphPool,
        sweep_jobs_cap: int = 2,
        pre_execute: Optional[Callable[[ServeRequest], None]] = None,
    ) -> None:
        self.pool = pool
        self.sweep_jobs_cap = sweep_jobs_cap
        #: test hook: runs in the worker thread before execution — lets a
        #: test hold the leader mid-flight while attachers pile up.
        self.pre_execute = pre_execute
        self._threads = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._executions = 0
        self._lock = threading.Lock()

    def submit(self, request: ServeRequest) -> "Future[bytes]":
        """Schedule a request; the future resolves to canonical bytes."""
        return self._threads.submit(self._execute, request)

    def _execute(self, request: ServeRequest) -> bytes:
        if self.pre_execute is not None:
            self.pre_execute(request)
        with self._lock:
            self._executions += 1
        METRICS.counter(M.SERVE_EXECUTIONS).inc()
        payload = self._payload(request)
        return canonical_bytes(payload)

    def _payload(self, request: ServeRequest) -> Mapping[str, Any]:
        from repro import api
        from repro.experiments.sweep import run_sweep

        if request.kind == "run":
            with self.pool.acquire(request.spec) as lease:
                run = api._run_resolved(
                    request.spec, graph=lease.graph, graph_name=lease.graph_name
                )
                return encode_run(request.spec, run)
        if request.kind == "compare":
            with self.pool.acquire(request.spec) as lease:
                comparison = api._compare_resolved(
                    request.spec, graph=lease.graph, graph_name=lease.graph_name
                )
                return encode_compare(request.spec, comparison)
        if request.kind == "sweep":
            outcomes = run_sweep(
                list(request.tasks),
                jobs=min(request.jobs, self.sweep_jobs_cap),
                keep_going=True,
            )
            return encode_sweep(outcomes)
        raise AssertionError(f"unreachable request kind {request.kind!r}")

    @property
    def executions(self) -> int:
        with self._lock:
            return self._executions

    def stats(self) -> Dict[str, Any]:
        return {
            "executions": self.executions,
            "workers": self._threads._max_workers,
            "sweep_jobs_cap": self.sweep_jobs_cap,
        }

    def shutdown(self, *, wait: bool = True) -> None:
        self._threads.shutdown(wait=wait)
