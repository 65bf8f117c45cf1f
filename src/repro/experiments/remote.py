"""Sweep coordinator: a content-addressed TCP work queue.

Every parallel sweep runs here, on one box or many.  ``run_sweep(jobs=N)``
binds the coordinator to loopback and forks N workers from the sweep
process (:func:`run_forked`); :class:`RemoteScheduler` plugs into the
:class:`~repro.experiments.scheduler.SweepScheduler` seam and serves
``repro-worker`` processes on any number of hosts.  Both are the same
event loop, so they share one set of failure semantics.  The design
follows the paper's disaggregation discipline — move *descriptors*, not
data:

* the **control plane** is newline-delimited JSON over one TCP connection
  per worker: task dispatch ships :func:`task_to_json` (a few hundred
  bytes) plus a graph descriptor, never the graph;
* the **data plane** is shared memory for forked workers (the descriptor
  is a :class:`~repro.experiments.sweep.SharedGraphSpec`, attached
  zero-copy) and the content-addressed artifact cache for remote ones.
  A remote worker materializes each graph from its *local* cache by
  digest; only on a local miss does it pull the ``.npz`` bytes over the
  same connection, installing them through
  :meth:`ArtifactCache.import_bytes` (full-read validation + atomic
  rename) so every subsequent sweep on that host is a pure cache hit.

Failure semantics — the journal, the tests, and a resumed sweep cannot
tell a local run from a distributed one:

* a lost connection mid-task charges the task an attempt and re-queues
  it with the shared capped-exponential :class:`BackoffPolicy`;
* a stale keepalive (``heartbeat_timeout_s``) or an over-budget task
  (``timeout``) gets the connection closed with blame attributed to the
  exact task the worker was running;
* ``poison_threshold`` quarantines a task that keeps killing workers;
* a *deterministic* in-task exception reported by the worker is fatal
  (or a placeholder under ``keep_going``), never retried;
* journal records are written by the coordinator only — ``start`` at
  dispatch, ``outcome`` on completion — so ``--resume`` works across
  scheduler switches.

Forked workers are the coordinator's own children, so it also launches
them: a worker whose connection drops while tasks remain is SIGKILLed
(it may be SIGSTOPped or over its budget), reaped and replaced, and every
worker is SIGKILLed and reaped when the sweep ends, however it ends.

Chaos (:mod:`repro.chaos`) is taken from the same plan at dispatch and
shipped as a task field; the worker applies it to *itself* before doing
any work, so ``kill``/``hang``/``crash`` exercise the real supervision
path deterministically.
"""

from __future__ import annotations

import asyncio
import heapq
import hmac
import json
import os
import secrets
import signal
import socket
import sys
import threading
import time
import traceback
from contextlib import suppress
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.cache import (
    ArtifactCache,
    cacheable_seed,
    dataset_key,
    get_cache,
    load_dataset_cached,
)
from repro.errors import (
    CacheError,
    ExperimentError,
    SchedulerError,
    SweepInterrupted,
)
from repro.experiments.journal import (
    outcome_from_json,
    sweep_digest,
    task_to_json,
)
from repro.experiments.scheduler import SweepOptions, SweepScheduler
from repro.obs.metrics import METRICS, M
from repro.obs.span import get_tracer, stamp_batch

#: wire protocol version; a mismatched worker is rejected at handshake
PROTOCOL_VERSION = 1

#: per-line read ceiling — control messages only (artifacts are shipped
#: as length-prefixed binary after an ``artifact`` header, not as lines)
LINE_LIMIT = 1 << 22

#: coordinator supervision poll cadence (bounds blame latency)
_WATCH_S = 0.25

#: how long a connection may sit silent before the handshake line
_HELLO_TIMEOUT_S = 10.0

#: environment variable holding the shared worker token by default
TOKEN_ENV = "REPRO_SWEEP_TOKEN"

#: per task: (graph display name, graph descriptor fields of the task
#: message — ``{"artifact": ...}`` remotely, ``{"shm": ...}`` when forked)
GraphTable = Dict[Tuple[str, str, int], Tuple[str, Dict[str, Any]]]


def encode_msg(msg: Dict[str, Any]) -> bytes:
    """One control message as a JSON line (attrs coerced via ``str``)."""
    return json.dumps(msg, default=str).encode() + b"\n"


def write_ready_file(path: str | os.PathLike, host: str, port: int) -> None:
    """Atomically publish the bound endpoint for workers/tests to poll."""
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(
        json.dumps({"pid": os.getpid(), "host": host, "port": port})
    )
    os.replace(tmp, target)


class _Conn:
    """Coordinator-side state for one authenticated worker connection."""

    def __init__(
        self,
        name: str,
        host: str,
        pid: int,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.name = name
        self.host = host
        self.pid = pid
        self.writer = writer
        self.last_seen = time.time()
        #: messages the pump could not handle inline (results)
        self.queue: "asyncio.Queue[Optional[Dict[str, Any]]]" = asyncio.Queue()
        #: (idx, task, tries, started_at) while a task is in flight
        self.outstanding: Optional[Tuple[int, Any, int, float]] = None
        #: failure message set by the watchdog before it severs the
        #: connection, so the charge cites hang/timeout, not "lost"
        self.blame: Optional[str] = None
        self.write_lock = asyncio.Lock()

    @property
    def ident(self) -> str:
        return f"{self.name}@{self.host} (pid {self.pid})"


class RemoteScheduler(SweepScheduler):
    """Execute a sweep on ``repro-worker`` processes over TCP.

    The coordinator binds ``host:port`` (port 0 = OS-assigned), publishes
    the endpoint via ``ready_file``/``on_ready``, serves the task queue
    until every task resolves, and keeps listening until at least
    ``min_workers`` workers have authenticated (up to ``worker_wait_s``
    seconds; short of that is an error only while tasks remain).
    ``token`` is the shared secret workers must present; ``cache`` is the
    coordinator-side artifact cache backing by-digest fetches (defaults
    to the process-global cache; with none, workers regenerate datasets
    locally instead of fetching).
    """

    name = "remote"

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        token: str,
        min_workers: int = 1,
        worker_wait_s: float = 60.0,
        ready_file: Optional[str] = None,
        on_ready: Optional[Callable[[str, int], None]] = None,
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        if not token:
            raise SchedulerError(
                "remote scheduler requires a shared worker token "
                f"(pass token=... / --token / ${TOKEN_ENV})"
            )
        if min_workers < 0:
            raise SchedulerError(
                f"min_workers must be >= 0, got {min_workers}"
            )
        self.host = host
        self.port = port
        self.token = token
        self.min_workers = min_workers
        self.worker_wait_s = worker_wait_s
        self.ready_file = ready_file
        self.on_ready = on_ready
        self.cache = cache
        #: (host, port) actually bound, set once the server is up
        self.bound: Optional[Tuple[str, int]] = None

    def execute(self, todo, results, session, chaos, opts) -> None:
        cache = self.cache if self.cache is not None else get_cache()
        # Resolve every distinct graph up front: warms the coordinator
        # cache (the fetch source) and pins the graph display names the
        # journal records.  Only descriptors ever reach the workers.
        graphs: GraphTable = {}
        for _idx, task in todo:
            if task.graph_key in graphs:
                continue
            _graph, spec = load_dataset_cached(
                task.dataset, tier=task.tier, seed=task.seed, cache=cache
            )
            artifact: Optional[Dict[str, str]] = None
            key_seed = cacheable_seed(task.seed)
            if cache is not None and key_seed is not None:
                artifact = {
                    "kind": "dataset",
                    "key": dataset_key(task.dataset, task.tier, key_seed, 0),
                }
            graphs[task.graph_key] = (spec.name, {"artifact": artifact})
        coordinator = _Coordinator(
            self, todo, results, session, chaos, opts, graphs, cache
        )
        asyncio.run(coordinator.run())


def run_forked(todo, graphs, results, session, chaos, opts, *, workers: int) -> None:
    """Run a sweep on ``workers`` processes forked from this one.

    ``graphs`` maps each task's ``graph_key`` to ``(CSRGraph, display
    name)``.  They are published to shared memory for the sweep, and each
    task message carries its graph's :class:`SharedGraphSpec`, so no
    graph crosses the loopback socket.  The coordinator binds an
    OS-assigned port with a per-sweep random token.
    """
    from repro.experiments import sweep

    sched = RemoteScheduler(
        token=secrets.token_hex(16), worker_wait_s=opts.heartbeat_timeout_s
    )
    fleet = _ForkedFleet(workers, sched.token)
    with sweep.published_graphs(graphs) as specs:
        table: GraphTable = {
            key: (name, {"shm": spec.to_json()})
            for key, (spec, name) in specs.items()
        }
        coordinator = _Coordinator(
            sched, todo, results, session, chaos, opts, table, None, fleet
        )
        try:
            asyncio.run(coordinator.run())
        finally:
            fleet.close()


class _ForkedFleet:
    """The coordinator's forked workers: spawn, SIGKILL and reap.

    Forking, not exec'ing, keeps worker start-up at milliseconds.  The
    child resets the signal state it inherited from the coordinator's
    event loop, closes the coordinator's sockets (so a dead coordinator
    reads as EOF, not silence), runs the ``repro-worker`` serve loop
    with its progress lines discarded, and leaves through ``os._exit``.
    """

    def __init__(self, size: int, token: str) -> None:
        self.size = size
        self.token = token
        self.pids: Set[int] = set()

    def spawn(self, host: str, port: int, inherited: Iterable[int]) -> None:
        from repro.experiments import worker  # before the fork, once

        pid = os.fork()
        if pid:
            self.pids.add(pid)
            return
        code = 70
        try:
            signal.signal(signal.SIGINT, signal.SIG_DFL)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.set_wakeup_fd(-1)
            for fd in inherited:
                with suppress(OSError):
                    os.close(fd)
            # Progress lines would interleave with the sweep's own output.
            sys.stdout = open(os.devnull, "w")
            code = worker.serve(
                host, port, token=self.token, name="local", cache=None
            )
        except Exception:  # pragma: no cover - worker bug
            traceback.print_exc()
        finally:
            os._exit(code)  # never return into the coordinator's stack

    def retire(self, pid: int) -> None:
        """SIGKILL and reap one worker (no-op for a pid not forked here)."""
        if pid in self.pids:
            self.pids.discard(pid)
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

    def close(self) -> None:
        for pid in list(self.pids):
            self.retire(pid)


class _Coordinator:
    """One sweep's coordinator event loop state."""

    def __init__(
        self,
        sched: RemoteScheduler,
        todo: Sequence[Tuple[int, Any]],
        results: Dict[int, Any],
        session: Any,
        chaos: Any,
        opts: SweepOptions,
        graphs: GraphTable,
        cache: Optional[ArtifactCache],
        fleet: Optional[_ForkedFleet] = None,
    ) -> None:
        self.sched = sched
        self.results = results
        self.session = session
        self.chaos = chaos
        self.opts = opts
        self.graphs = graphs
        self.cache = cache
        self.fleet = fleet
        self.digest = sweep_digest([task for _idx, task in todo])
        #: ready-to-dispatch heap: (ready_at, seq, idx, task, tries)
        self.pending: List[Tuple[float, int, int, Any, int]] = []
        self._seq = 0
        for idx, task in todo:
            heapq.heappush(self.pending, (0.0, self._next_seq(), idx, task, 0))
        self.remaining: Set[int] = {idx for idx, _task in todo}
        self.pool_kills: Dict[int, int] = {}
        self.conns: Set[_Conn] = set()
        self.connected = 0
        self.fatal: Optional[BaseException] = None
        self.interrupted: Optional[str] = None
        self.closing = False
        #: cumulative successful handshakes — the startup gate counts
        #: arrivals, not current liveness, so a worker that connects and
        #: is promptly chaos-killed still satisfies it
        self.handshakes = 0
        #: liveness: once a worker has connected, a sweep with tasks left
        #: and zero connections for worker_wait_s is declared dead rather
        #: than waiting forever
        self._drought_since: Optional[float] = None
        #: worker keepalive cadence, a fifth of the staleness bound
        self.keepalive_s = min(1.0, opts.heartbeat_timeout_s / 5.0)
        self._old_signals: Dict[int, Any] = {}
        #: set (and replaced) on every state change a waiter may care
        #: about: dispatchable work, resolution, failure, signals, workers
        self._wake = asyncio.Event()
        #: the listener's and every open connection's socket fds, which a
        #: forked worker closes
        self._fds: Set[int] = set()

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _open(self) -> bool:
        """Tasks remain and nothing has ended the sweep."""
        return bool(
            self.remaining
            and self.fatal is None
            and self.interrupted is None
            and not self.closing
        )

    def _notify(self) -> None:
        wake, self._wake = self._wake, asyncio.Event()
        wake.set()

    async def _wait(self, timeout: Optional[float]) -> None:
        """Sleep until the next :meth:`_notify` or ``timeout`` seconds."""
        try:
            await asyncio.wait_for(self._wake.wait(), timeout)
        except asyncio.TimeoutError:
            pass

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        self._install_signals(loop)
        server = await asyncio.start_server(
            self._handle, self.sched.host, self.sched.port, limit=LINE_LIMIT
        )
        watchdog = asyncio.ensure_future(self._watchdog())
        try:
            self._fds.update(sock.fileno() for sock in server.sockets)
            sockname = server.sockets[0].getsockname()
            host, port = sockname[0], int(sockname[1])
            self.sched.bound = (host, port)
            if self.sched.ready_file is not None:
                write_ready_file(self.sched.ready_file, host, port)
            if self.sched.on_ready is not None:
                self.sched.on_ready(host, port)
            if self.fleet is None:
                get_tracer().event(
                    "coordinator-ready", host=host, port=port, sweep=self.digest
                )
            else:
                for _ in range(self.fleet.size):
                    self._spawn()
            await self._await_workers()
            while self._open():
                await self._wait(self._check_liveness())
        except SchedulerError as exc:
            self.fatal = exc
        finally:
            self.closing = True
            watchdog.cancel()
            self._remove_signals(loop)
            await self._shutdown_conns()
            server.close()
            await server.wait_closed()
            METRICS.gauge(M.SWEEP_REMOTE_WORKERS).set(0)
        if self.interrupted is not None:
            self.session.interrupt(self.interrupted)
            raise SweepInterrupted(
                f"sweep interrupted by {self.interrupted}: journal flushed, "
                f"workers released; restart with resume to continue from "
                f"the last completed task"
            )
        if self.fatal is not None:
            raise self.fatal

    def _spawn(self) -> None:
        self.fleet.spawn(*self.sched.bound, inherited=tuple(self._fds))

    def _check_liveness(self) -> Optional[float]:
        """Fail the sweep if every worker is gone and none come back.

        Chaos kills, crashes, and network partitions can consume the
        whole fleet while retries are still queued; without this check
        the dispatch loop would wait on an unservable heap forever.
        Returns how long the main loop may sleep before checking again.
        """
        if self.connected > 0 or self.handshakes == 0:
            # Connected, or still covered by the startup worker gate.
            self._drought_since = None
            return None
        now = time.time()
        if self._drought_since is None:
            self._drought_since = now
        left = self._drought_since + self.sched.worker_wait_s - now
        if left < 0:
            self._fail(
                SchedulerError(
                    f"all workers disconnected with {len(self.remaining)} "
                    f"task(s) unresolved and none reconnected within "
                    f"{self.sched.worker_wait_s:g}s"
                )
            )
        return max(left, 0.0) + _WATCH_S

    async def _await_workers(self) -> None:
        deadline = time.time() + self.sched.worker_wait_s
        # The gate holds the listener open even after the queue has
        # drained: a worker that starts late then gets the normal
        # shutdown (exit 0), not a refused connection (exit 4).
        while (
            self.handshakes < self.sched.min_workers
            and self.fatal is None
            and self.interrupted is None
        ):
            left = deadline - time.time()
            if left <= 0:
                if self.remaining:
                    raise SchedulerError(
                        f"only {self.handshakes} of {self.sched.min_workers} "
                        f"required workers connected within "
                        f"{self.sched.worker_wait_s:g}s"
                    )
                return
            await self._wait(left)

    # ------------------------------------------------------------------ #
    # Per-connection handling
    # ------------------------------------------------------------------ #

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        fd = writer.get_extra_info("socket").fileno()
        self._fds.add(fd)
        try:
            conn = await self._handshake(reader, writer)
        except (Exception, asyncio.CancelledError):
            # A failed handshake, or loop teardown caught a worker (say, a
            # replacement forked just before the sweep failed) mid-hello.
            conn = None
        if conn is None:
            self._fds.discard(fd)
            writer.close()
            return
        self.conns.add(conn)
        self.connected += 1
        self.handshakes += 1
        METRICS.gauge(M.SWEEP_REMOTE_WORKERS).set(self.connected)
        if self.fleet is None:
            get_tracer().event("worker-connected", worker=conn.ident)
        self._notify()
        pump = asyncio.ensure_future(self._pump(conn, reader))
        try:
            await self._serve_conn(conn)
        except asyncio.CancelledError:
            # Loop teardown caught this worker idle (the sweep finished on
            # other connections); exit quietly instead of logging a
            # cancellation through the stream protocol callback.
            pass
        finally:
            pump.cancel()
            self.conns.discard(conn)
            self.connected -= 1
            METRICS.gauge(M.SWEEP_REMOTE_WORKERS).set(max(self.connected, 0))
            self._fds.discard(fd)
            try:
                writer.close()
            except Exception:  # pragma: no cover - already severed
                pass
            if self.fleet is not None:
                # Dead, severed by the watchdog, or done: SIGKILL (a
                # SIGSTOPped worker ignores anything gentler), reap, and
                # replace it while there is work left.
                self.fleet.retire(conn.pid)
                if self._open():
                    self._spawn()
            self._notify()

    async def _handshake(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[_Conn]:
        """Authenticate one ``hello`` or reject the connection."""
        try:
            line = await asyncio.wait_for(
                reader.readline(), timeout=_HELLO_TIMEOUT_S
            )
            msg = json.loads(line)
        except (asyncio.TimeoutError, ValueError, ConnectionError, OSError):
            return None
        if (
            not isinstance(msg, dict)
            or msg.get("t") != "hello"
            or int(msg.get("proto", -1)) != PROTOCOL_VERSION
        ):
            await self._reject(writer, "bad handshake (protocol mismatch?)")
            return None
        if not hmac.compare_digest(str(msg.get("token", "")), self.sched.token):
            get_tracer().event(
                "worker-rejected", host=str(msg.get("host", "?"))
            )
            await self._reject(writer, "authentication failed: bad token")
            return None
        conn = _Conn(
            name=str(msg.get("name", "worker")),
            host=str(msg.get("host", "?")),
            pid=int(msg.get("pid", 0)),
            writer=writer,
        )
        ok = await self._send(
            conn,
            {
                "t": "welcome",
                "sweep": self.digest,
                "keepalive_s": self.keepalive_s,
                "collect_spans": self.opts.collect_spans,
            },
        )
        return conn if ok else None

    async def _reject(self, writer: asyncio.StreamWriter, error: str) -> None:
        try:
            writer.write(encode_msg({"t": "reject", "error": error}))
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover - racing close
            pass

    async def _pump(self, conn: _Conn, reader: asyncio.StreamReader) -> None:
        """Drain the connection: keepalives and fetches inline, results
        onto the queue; EOF/garbage posts the ``None`` sentinel."""
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                conn.last_seen = time.time()
                try:
                    msg = json.loads(line)
                except ValueError:
                    break
                kind = msg.get("t")
                if kind == "ping":
                    continue
                if kind == "fetch":
                    await self._send_artifact(conn, msg)
                    continue
                await conn.queue.put(msg)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            return
        await conn.queue.put(None)

    async def _serve_conn(self, conn: _Conn) -> None:
        while True:
            assignment = await self._next_assignment()
            if assignment is None:
                await self._send(
                    conn, {"t": "shutdown", "reason": "sweep complete"}
                )
                return
            idx, task, tries = assignment
            graph_name, where = self.graphs[task.graph_key]
            conn.outstanding = (idx, task, tries, time.time())
            conn.blame = None
            self.session.start(idx, tries + 1)
            METRICS.counter(M.SWEEP_REMOTE_TASKS).inc()
            dispatched = await self._send(
                conn,
                {
                    "t": "task",
                    "idx": idx,
                    "attempt": tries + 1,
                    "task": task_to_json(task),
                    "graph_name": graph_name,
                    "chaos": self.chaos.take(task.label),
                    "collect_spans": self.opts.collect_spans,
                    **where,
                },
            )
            if not dispatched:
                conn.outstanding = None
                METRICS.counter(M.SWEEP_REMOTE_DISCONNECTS).inc()
                self._charge(
                    conn, idx, task, tries,
                    f"worker crashed: connection to {conn.ident} lost",
                )
                return
            while True:
                msg = await conn.queue.get()
                if msg is None:
                    conn.outstanding = None
                    error = conn.blame or (
                        f"worker crashed: connection to {conn.ident} lost"
                    )
                    METRICS.counter(M.SWEEP_REMOTE_DISCONNECTS).inc()
                    self._charge(conn, idx, task, tries, error)
                    return
                if msg.get("t") != "result" or int(msg.get("idx", -1)) != idx:
                    continue  # stray message; keep waiting
                conn.outstanding = None
                self._record_result(conn, idx, task, tries, msg)
                break

    async def _next_assignment(self) -> Optional[Tuple[int, Any, int]]:
        """Block until a task is ready, or ``None`` on sweep end."""
        while self._open():
            if not self.pending:
                await self._wait(None)
                continue
            delay = self.pending[0][0] - time.time()
            if delay > 0:  # backing off before a retry
                await self._wait(delay)
                continue
            _ready, _seq, idx, task, tries = heapq.heappop(self.pending)
            if idx in self.remaining:
                return idx, task, tries
        return None

    # ------------------------------------------------------------------ #
    # Outcome accounting
    # ------------------------------------------------------------------ #

    def _record_result(
        self, conn: _Conn, idx: int, task: Any, tries: int, msg: Dict[str, Any]
    ) -> None:
        from repro.experiments.sweep import _failed_outcome

        self._notify()
        graph_name = self.graphs[task.graph_key][0]
        if msg.get("status") == "ok":
            outcome = outcome_from_json(msg.get("outcome") or {}, task)
            spans: Any = msg.get("spans") or ()
            if spans and self.fleet is None:
                # Where a task ran matters across hosts; forked workers
                # leave the batch as a serial run records it.
                spans = stamp_batch(spans, host=conn.host, worker=conn.name)
            outcome = replace(outcome, attempts=tries + 1, spans=tuple(spans))
            self.results[idx] = outcome
            self.session.outcome(idx, "ok", outcome)
            self.remaining.discard(idx)
            return
        # Deterministic in-task failure: the worker survived to report
        # it, so retrying would fail identically (same rule serially).
        error = str(msg.get("error") or "worker reported an unknown failure")
        failed = _failed_outcome(task, graph_name, error, tries + 1)
        self.session.outcome(idx, "failed", failed)
        if not self.opts.keep_going:
            self._fail(
                ExperimentError(f"sweep task {task.label} failed: {error}")
            )
            return
        self.results[idx] = failed
        self.remaining.discard(idx)

    def _charge(
        self, conn: _Conn, idx: int, task: Any, tries: int, error: str
    ) -> None:
        """Charge a lost/hung/over-budget task one attempt and reroute it."""
        from repro.experiments.sweep import _failed_outcome

        self._notify()
        if (
            idx not in self.remaining
            or self.fatal is not None
            or self.interrupted is not None
        ):
            return
        graph_name = self.graphs[task.graph_key][0]
        kills = self.pool_kills.get(idx, 0) + 1
        self.pool_kills[idx] = kills
        get_tracer().event(
            "worker-lost", worker=conn.ident, task=task.label, error=error
        )
        if (
            self.opts.poison_threshold is not None
            and kills >= self.opts.poison_threshold
        ):
            quarantined = _failed_outcome(
                task,
                graph_name,
                f"quarantined after killing a worker {kills} times: {error}",
                tries + 1,
                quarantined=True,
            )
            self.results[idx] = quarantined
            self.session.outcome(idx, "quarantined", quarantined)
            METRICS.counter(M.SWEEP_QUARANTINED).inc()
            get_tracer().event("task-quarantined", label=task.label, kills=kills)
            self.remaining.discard(idx)
            return
        if tries + 1 <= self.opts.retries:
            ready_at = time.time() + self.opts.backoff.delay(tries)
            heapq.heappush(
                self.pending, (ready_at, self._next_seq(), idx, task, tries + 1)
            )
            return
        exhausted = _failed_outcome(
            task, graph_name, f"{error} (after {tries + 1} attempts)", tries + 1
        )
        self.session.outcome(idx, "failed", exhausted)
        if not self.opts.keep_going:
            self._fail(
                ExperimentError(
                    f"sweep task {task.label} failed after {tries + 1} "
                    f"attempts: {error}"
                )
            )
            return
        self.results[idx] = exhausted
        self.remaining.discard(idx)

    def _fail(self, exc: BaseException) -> None:
        if self.fatal is None:
            self.fatal = exc
        self._notify()

    # ------------------------------------------------------------------ #
    # Supervision
    # ------------------------------------------------------------------ #

    async def _watchdog(self) -> None:
        """Blame and sever stale or over-budget connections.

        A worker whose keepalive went silent (SIGSTOP'd, wedged,
        network-dead) or whose task exceeded the wall-clock budget gets
        its connection closed — the pump posts the sentinel,
        ``_serve_conn`` charges the task with the blame recorded here, and
        a forked worker is then SIGKILLed and replaced by ``_handle``.
        """
        while True:
            await asyncio.sleep(_WATCH_S)
            now = time.time()
            for conn in list(self.conns):
                out = conn.outstanding
                if out is None or conn.blame is not None:
                    continue
                _idx, task, _tries, started = out
                stale = now - conn.last_seen
                if (
                    self.opts.timeout is not None
                    and now - started > self.opts.timeout
                ):
                    conn.blame = f"timed out after {self.opts.timeout:g}s"
                elif stale > self.opts.heartbeat_timeout_s:
                    conn.blame = (
                        f"worker hung: keepalive stale for {stale:.1f}s"
                    )
                else:
                    continue
                METRICS.counter(M.SWEEP_HUNG_WORKERS).inc()
                get_tracer().event(
                    "worker-hung",
                    worker=conn.ident,
                    task=task.label,
                    blame=conn.blame,
                )
                try:
                    conn.writer.close()
                except Exception:  # pragma: no cover - already severed
                    pass

    # ------------------------------------------------------------------ #
    # Wire helpers
    # ------------------------------------------------------------------ #

    async def _send(self, conn: _Conn, msg: Dict[str, Any]) -> bool:
        try:
            async with conn.write_lock:
                conn.writer.write(encode_msg(msg))
                await conn.writer.drain()
            return True
        except (ConnectionError, RuntimeError, OSError):
            return False

    async def _send_artifact(self, conn: _Conn, msg: Dict[str, Any]) -> None:
        """Serve one by-digest cache fetch: header line + raw bytes."""
        kind = str(msg.get("kind", ""))
        key = str(msg.get("key", ""))
        data: Optional[bytes] = None
        if self.cache is not None:
            try:
                data = self.cache.read_bytes(kind, key)
            except CacheError:
                data = None
        header = {
            "t": "artifact",
            "kind": kind,
            "key": key,
            "found": data is not None,
            "nbytes": len(data) if data is not None else 0,
        }
        try:
            async with conn.write_lock:
                conn.writer.write(encode_msg(header))
                if data is not None:
                    conn.writer.write(data)
                await conn.writer.drain()
        except (ConnectionError, OSError):
            return
        if data is not None:
            METRICS.counter(M.SWEEP_ARTIFACTS_SHIPPED).inc()
            METRICS.counter(M.SWEEP_ARTIFACT_BYTES).inc(len(data))
            get_tracer().event(
                "artifact-shipped",
                worker=conn.ident,
                kind=kind,
                bytes=len(data),
            )

    async def _shutdown_conns(self) -> None:
        for conn in list(self.conns):
            await self._send(
                conn, {"t": "shutdown", "reason": "coordinator shutting down"}
            )
            try:
                conn.writer.close()
            except Exception:  # pragma: no cover - already severed
                pass

    # ------------------------------------------------------------------ #
    # Signals
    # ------------------------------------------------------------------ #

    def _install_signals(self, loop: asyncio.AbstractEventLoop) -> None:
        if threading.current_thread() is not threading.main_thread():
            return
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous = signal.getsignal(signum)
                loop.add_signal_handler(signum, self._on_signal, signum)
            except (NotImplementedError, RuntimeError, ValueError):
                continue  # pragma: no cover - non-POSIX event loops
            self._old_signals[signum] = previous

    def _on_signal(self, signum: int) -> None:
        if self.interrupted is None:
            self.interrupted = signal.Signals(signum).name
        self._notify()

    def _remove_signals(self, loop: asyncio.AbstractEventLoop) -> None:
        for signum, previous in self._old_signals.items():
            try:
                loop.remove_signal_handler(signum)
                signal.signal(signum, previous)
            except (ValueError, OSError, RuntimeError):  # pragma: no cover
                pass
        self._old_signals.clear()


def default_worker_name() -> str:
    """Stable-enough worker identity: host plus pid."""
    return f"{socket.gethostname()}-{os.getpid()}"
