"""``repro-worker`` — pull-mode sweep worker for the sweep coordinator.

One worker = one TCP connection to a sweep coordinator
(:mod:`repro.experiments.remote`).  The same serve loop runs as the
``repro-worker`` command on any host and, forked, as each of the
``run_sweep(jobs=N)`` workers.  It is deliberately dumb — connect,
authenticate, then pull:

0. A refused connection is retried with capped exponential backoff
   until ``--connect-timeout`` runs out, so a worker may start before
   its coordinator listens.
1. ``hello`` with the shared token; a ``reject`` exits 2.
2. For each ``task`` message, get the graph from the descriptor it
   carries.  A ``shm`` descriptor (forked workers) is attached zero-copy
   by :func:`repro.experiments.sweep._worker_execute`.  An ``artifact``
   digest is materialized from the local artifact cache; on a miss the
   ``.npz`` bytes are fetched over the connection and installed through
   :meth:`ArtifactCache.import_bytes` (validated, atomic) so the next
   sweep on this host starts warm.  With no local cache the payload is
   decoded in memory.
3. Execute the task with the *same* ``_execute_task`` function the
   serial path uses — outcomes (and their ``ledger_sha256``) can only
   differ from a serial run if the inputs differ.
4. Report ``result`` and pull again.  A background thread sends ``ping``
   keepalives at the cadence the coordinator's ``welcome`` dictated.

A ``chaos`` field on a task makes the worker apply the fault to *itself*
(:func:`repro.chaos.apply_in_worker`) before touching the graph — this
is how the chaos harness exercises the coordinator's crash/hang
supervision deterministically across real process boundaries.

Exit codes: 0 on coordinator-initiated shutdown, 2 on configuration or
handshake errors, 3 on a lost connection, 4 when the coordinator cannot
be reached at all.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import socket
import sys
import threading
import time
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro import chaos as chaos_mod
from repro.cache import ArtifactCache, get_cache
from repro.cache.artifacts import graph_from_arrays, load_dataset_cached
from repro.experiments.journal import outcome_to_json, task_from_json
from repro.experiments.remote import (
    PROTOCOL_VERSION,
    TOKEN_ENV,
    default_worker_name,
    encode_msg,
)
from repro.utils.backoff import BackoffPolicy

_META_FIELD = "__meta__"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="Connect to a sweep coordinator and execute tasks.",
    )
    parser.add_argument(
        "coordinator",
        metavar="HOST:PORT",
        help="coordinator endpoint (see repro-experiments run sweep "
        "--scheduler remote)",
    )
    parser.add_argument(
        "--token",
        default=None,
        help=f"shared worker token (default: ${TOKEN_ENV})",
    )
    parser.add_argument(
        "--token-env",
        default=TOKEN_ENV,
        metavar="VAR",
        help="environment variable to read the token from "
        f"(default: {TOKEN_ENV})",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="local artifact cache root (default: $REPRO_CACHE_DIR); "
        "fetched artifacts are installed here",
    )
    parser.add_argument(
        "--name",
        default=None,
        help="worker name reported to the coordinator "
        "(default: <hostname>-<pid>)",
    )
    parser.add_argument(
        "--connect-timeout",
        type=float,
        default=10.0,
        metavar="S",
        help="seconds to keep retrying a refused connection (default: 10)",
    )
    return parser


def _parse_endpoint(value: str) -> Tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {value!r}")
    return host, int(port)


class _Connection:
    """Blocking socket transport: line reads, locked writes, keepalives."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.rfile = sock.makefile("rb")
        self._wlock = threading.Lock()

    def send(self, msg: Dict[str, Any]) -> None:
        data = encode_msg(msg)
        with self._wlock:
            self.sock.sendall(data)

    def recv(self) -> Dict[str, Any]:
        line = self.rfile.readline()
        if not line:
            raise ConnectionError("connection to coordinator lost")
        msg = json.loads(line)
        if not isinstance(msg, dict):
            raise ConnectionError("malformed coordinator message")
        return msg

    def read_exact(self, nbytes: int) -> bytes:
        data = self.rfile.read(nbytes)
        if data is None or len(data) != nbytes:
            raise ConnectionError("connection lost during artifact transfer")
        return data

    def start_keepalive(self, interval_s: float) -> None:
        def _beat() -> None:
            # Dies with the connection; a SIGSTOP'd worker stops beating,
            # which is exactly what the coordinator's watchdog watches.
            while True:
                time.sleep(max(interval_s, 0.05))
                try:
                    self.send({"t": "ping"})
                except OSError:
                    return

        threading.Thread(target=_beat, daemon=True).start()


class _GraphStore:
    """Per-worker graph materialization with the cache as data plane."""

    def __init__(self, conn: _Connection, cache: Optional[ArtifactCache]) -> None:
        self.conn = conn
        self.cache = cache
        self._graphs: Dict[Tuple[str, str, int], Any] = {}

    def materialize(self, task: Any, artifact: Optional[Dict[str, str]]) -> Any:
        key3 = task.graph_key
        if key3 in self._graphs:
            return self._graphs[key3]
        graph = None
        if artifact is not None:
            graph = self._from_digest(
                str(artifact["kind"]), str(artifact["key"])
            )
        if graph is None:
            # No digest (uncacheable seed / cacheless coordinator) or the
            # fetch failed: regenerate — same pure function, same bits.
            graph, _spec = load_dataset_cached(
                task.dataset, tier=task.tier, seed=task.seed, cache=self.cache
            )
        self._graphs[key3] = graph
        return graph

    def _from_digest(self, kind: str, key: str) -> Optional[Any]:
        if self.cache is not None:
            entry = self.cache.get(kind, key)
            if entry is not None:
                return graph_from_arrays(entry[0])
        data = self._fetch(kind, key)
        if data is None:
            return None
        if self.cache is not None and self.cache.import_bytes(kind, key, data):
            entry = self.cache.get(kind, key)
            if entry is not None:
                return graph_from_arrays(entry[0])
            return None  # pragma: no cover - raced eviction
        try:
            with np.load(io.BytesIO(data), allow_pickle=False) as payload:
                arrays = {
                    name: payload[name]
                    for name in payload.files
                    if name != _META_FIELD
                }
            return graph_from_arrays(arrays)
        except Exception:
            return None  # corrupt transfer: fall back to regeneration

    def _fetch(self, kind: str, key: str) -> Optional[bytes]:
        """Pull one artifact by digest over the control connection."""
        self.conn.send({"t": "fetch", "kind": kind, "key": key})
        while True:
            msg = self.conn.recv()
            t = msg.get("t")
            if t == "shutdown":
                raise SystemExit(0)
            if (
                t == "artifact"
                and msg.get("kind") == kind
                and msg.get("key") == key
            ):
                if not msg.get("found"):
                    return None
                return self.conn.read_exact(int(msg.get("nbytes", 0)))
            # anything else is a stray; keep waiting for our payload


def _connect(host: str, port: int, timeout_s: float) -> socket.socket:
    """Connect, retrying refused connections until ``timeout_s`` is spent."""
    deadline = time.monotonic() + timeout_s
    backoff = BackoffPolicy(base_s=0.05, cap_s=1.0)
    attempt = 0
    while True:
        left = deadline - time.monotonic()
        try:
            return socket.create_connection((host, port), timeout=max(left, 0.05))
        except ConnectionRefusedError:
            left = deadline - time.monotonic()
            if left <= 0:
                raise
            time.sleep(min(backoff.delay(attempt), left))
            attempt += 1


def _serve(conn: _Connection, cache: Optional[ArtifactCache]) -> int:
    # The module, not its functions: a hook installed on
    # ``sweep._worker_execute`` (perfbench --trace) must see every call.
    from repro.experiments import sweep

    store = _GraphStore(conn, cache)
    while True:
        msg = conn.recv()
        t = msg.get("t")
        if t == "shutdown":
            print(f"coordinator shutdown: {msg.get('reason', '')}")
            return 0
        if t != "task":
            continue
        idx = int(msg.get("idx", -1))
        task = task_from_json(msg["task"])
        graph_name = str(msg.get("graph_name", task.dataset))
        collect_spans = bool(msg.get("collect_spans", False))
        try:
            if msg.get("chaos"):
                # Injected process-level fault: die (or freeze) exactly like
                # a real worker would — no report, no cleanup.
                chaos_mod.apply_in_worker(str(msg["chaos"]))
            if msg.get("shm") is not None:
                outcome = sweep._worker_execute(
                    task,
                    sweep.SharedGraphSpec.from_json(msg["shm"]),
                    graph_name,
                    collect_spans=collect_spans,
                )
            else:
                graph = store.materialize(task, msg.get("artifact"))
                outcome = sweep._execute_task(
                    task, graph, graph_name, collect_spans=collect_spans
                )
        except SystemExit:
            raise
        except Exception as exc:
            conn.send(
                {
                    "t": "result",
                    "idx": idx,
                    "status": "failed",
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
            continue
        conn.send(
            {
                "t": "result",
                "idx": idx,
                "status": "ok",
                "outcome": outcome_to_json(outcome),
                "spans": [dict(span) for span in outcome.spans],
            }
        )


def serve(
    host: str,
    port: int,
    *,
    token: str,
    name: str,
    cache: Optional[ArtifactCache],
    connect_timeout: float = 10.0,
) -> int:
    """Connect, authenticate and execute tasks until the coordinator says
    stop; returns the exit code (see the module docstring)."""
    try:
        sock = _connect(host, port, connect_timeout)
    except OSError as exc:
        print(f"cannot reach coordinator {host}:{port}: {exc}", file=sys.stderr)
        return 4
    sock.settimeout(None)
    # Results are small writes that can queue behind an unacknowledged
    # keepalive; without this, Nagle's algorithm and the coordinator's
    # delayed ACK stall them for up to 40 ms.
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    conn = _Connection(sock)
    try:
        conn.send(
            {
                "t": "hello",
                "proto": PROTOCOL_VERSION,
                "token": token,
                "name": name,
                "host": socket.gethostname(),
                "pid": os.getpid(),
            }
        )
        welcome = conn.recv()
        if welcome.get("t") == "reject":
            print(
                f"coordinator rejected worker: {welcome.get('error', '?')}",
                file=sys.stderr,
            )
            return 2
        if welcome.get("t") != "welcome":
            print("unexpected handshake reply", file=sys.stderr)
            return 2
        print(
            f"worker {name} connected to {host}:{port} "
            f"(sweep {str(welcome.get('sweep', ''))[:12]})"
        )
        conn.start_keepalive(float(welcome.get("keepalive_s", 1.0)) or 1.0)
        return _serve(conn, cache)
    except (ConnectionError, OSError) as exc:
        print(f"connection to coordinator lost: {exc}", file=sys.stderr)
        return 3
    finally:
        try:
            sock.close()
        except OSError:  # pragma: no cover - already closed
            pass


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    token = args.token or os.environ.get(args.token_env, "")
    if not token:
        print(
            f"no worker token: pass --token or set ${args.token_env}",
            file=sys.stderr,
        )
        return 2
    try:
        host, port = _parse_endpoint(args.coordinator)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    cache: Optional[ArtifactCache]
    if args.cache_dir is not None:
        cache = ArtifactCache(args.cache_dir)
    else:
        cache = get_cache()
    return serve(
        host,
        port,
        token=token,
        name=args.name or default_worker_name(),
        cache=cache,
        connect_timeout=args.connect_timeout,
    )


if __name__ == "__main__":
    raise SystemExit(main())
