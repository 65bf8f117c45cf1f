"""Distributed sweep: coordinator + real ``repro-worker`` subprocesses.

Everything runs on localhost with OS-assigned ports.  The assertions are
the acceptance criteria of the distributed scheduler: remote outcomes are
ledger-identical to single-host runs, a SIGKILL'd worker costs a retry
but never a task, a bad token never gets a task, and the write-ahead
journal is scheduler-agnostic (a sweep journaled remotely resumes
locally with zero re-execution).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cache import ArtifactCache
from repro.chaos import ChaosPlan
from repro.errors import SchedulerError
from repro.experiments.journal import decode_record
from repro.experiments.remote import RemoteScheduler, write_ready_file
from repro.experiments.sweep import SweepTask, run_sweep

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="POSIX signals and fork-free sockets"
)

TASKS = [
    SweepTask("wikitalk-sim", "pagerank", 4, "tiny", 7, max_iterations=4),
    SweepTask("wikitalk-sim", "bfs", 4, "tiny", 7, max_iterations=6),
    SweepTask("wikitalk-sim", "cc", 4, "tiny", 7, max_iterations=6),
]

TOKEN = "test-sweep-token"


class _WorkerFleet:
    """Spawn/cleanup for repro-worker subprocesses."""

    def __init__(self, cache_dir: Path, token: str = TOKEN):
        self.cache_dir = cache_dir
        self.token = token
        self.procs: list = []

    def spawn(self, host: str, port: int, count: int = 1, extra=(), **overrides):
        env = dict(os.environ)
        env["REPRO_SWEEP_TOKEN"] = self.token
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        token_flag = overrides.get("token")
        for i in range(count):
            cmd = [
                sys.executable,
                "-m",
                "repro.experiments.worker",
                f"{host}:{port}",
                "--cache-dir",
                str(self.cache_dir),
                "--name",
                f"w{len(self.procs)}",
            ]
            if token_flag is not None:
                cmd += ["--token", token_flag]
            cmd += list(extra)
            self.procs.append(
                subprocess.Popen(
                    cmd,
                    env=env,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                )
            )

    def cleanup(self):
        for proc in self.procs:
            if proc.poll() is None:
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            proc.wait(timeout=20)
            if proc.stdout is not None:
                proc.stdout.close()


@pytest.fixture
def fleet(tmp_path):
    fleet = _WorkerFleet(tmp_path / "worker-cache")
    yield fleet
    fleet.cleanup()


def _remote(fleet, *, workers=2, cache=None, **kwargs):
    def on_ready(host, port):
        fleet.spawn(host, port, count=workers)

    defaults = dict(
        token=TOKEN,
        min_workers=workers,
        worker_wait_s=60.0,
        on_ready=on_ready,
        cache=cache,
    )
    defaults.update(kwargs)
    return RemoteScheduler(**defaults)


class TestRemoteParity:
    def test_remote_ledgers_identical_to_local(self, fleet, tmp_path):
        coord_cache = ArtifactCache(tmp_path / "coord-cache")
        remote = run_sweep(
            TASKS, scheduler=_remote(fleet, cache=coord_cache)
        )
        local = run_sweep(TASKS, jobs=2)
        assert [o.ledger_sha256 for o in remote] == [
            o.ledger_sha256 for o in local
        ]
        assert [o.result_sha256 for o in remote] == [
            o.result_sha256 for o in local
        ]
        assert all(o.ok and o.attempts == 1 for o in remote)
        # The data plane worked: workers fetched the dataset by digest
        # from the coordinator cache and installed it locally.
        assert ArtifactCache(fleet.cache_dir).stats()["entries"] >= 1
        # Workers exit 0 on coordinator-initiated shutdown.
        assert [p.wait(timeout=20) for p in fleet.procs] == [0, 0]

    def test_worker_connecting_after_the_queue_drained_exits_0(
        self, fleet, tmp_path
    ):
        # The first worker drains the whole queue before the second one
        # even starts: the coordinator must keep its listener until
        # min_workers handshakes and send the late worker the normal
        # shutdown, not leave it to a refused connection (exit 4).
        journal = tmp_path / "sweep.journal"
        late: list = []

        def outcomes_journaled() -> int:
            if not journal.exists():
                return 0
            return sum(
                1
                for line in journal.read_bytes().splitlines()
                if (decode_record(line) or {}).get("type") == "outcome"
            )

        def spawn_late(host, port):
            deadline = time.time() + 60
            while outcomes_journaled() < len(TASKS) and time.time() < deadline:
                time.sleep(0.01)
            fleet.spawn(host, port)

        def on_ready(host, port):
            fleet.spawn(host, port)
            thread = threading.Thread(target=spawn_late, args=(host, port))
            thread.start()
            late.append(thread)

        sched = RemoteScheduler(
            token=TOKEN, min_workers=2, worker_wait_s=60.0, on_ready=on_ready
        )
        outcomes = run_sweep(TASKS, scheduler=sched, journal_path=str(journal))
        late[0].join(timeout=60)
        assert all(o.ok for o in outcomes)
        assert [p.wait(timeout=20) for p in fleet.procs] == [0, 0]


class TestRemoteFaults:
    def test_sigkilled_worker_costs_a_retry_not_a_task(self, fleet):
        plan = ChaosPlan()
        plan.actions[TASKS[1].label] = ["kill"]
        outcomes = run_sweep(
            TASKS,
            scheduler=_remote(fleet, min_workers=1),
            chaos_plan=plan,
            retries=2,
        )
        assert all(o.ok for o in outcomes)
        assert outcomes[1].attempts == 2  # killed once, rescheduled once
        assert outcomes[0].attempts == 1 and outcomes[2].attempts == 1
        codes = sorted(p.wait(timeout=20) for p in fleet.procs)
        assert codes == [-signal.SIGKILL, 0]

    def test_hung_worker_blamed_by_keepalive(self, fleet):
        plan = ChaosPlan()
        plan.actions[TASKS[0].label] = ["hang"]
        outcomes = run_sweep(
            TASKS,
            scheduler=_remote(fleet, min_workers=1),
            chaos_plan=plan,
            retries=2,
            heartbeat_timeout_s=2.0,
        )
        assert all(o.ok for o in outcomes)
        assert outcomes[0].attempts == 2

    def test_exhausted_retries_surface_the_blame(self, fleet):
        # Three kills consume three workers (one per attempt), so the
        # fleet needs three; min_workers=1 keeps the startup gate from
        # racing the first casualty.
        plan = ChaosPlan()
        plan.actions[TASKS[0].label] = ["kill", "kill", "kill"]
        outcomes = run_sweep(
            TASKS,
            scheduler=_remote(fleet, workers=3, min_workers=1),
            chaos_plan=plan,
            retries=2,
            keep_going=True,
        )
        assert not outcomes[0].ok
        assert "after 3 attempts" in outcomes[0].error
        assert outcomes[1].ok and outcomes[2].ok

    def test_all_workers_lost_fails_fast(self, fleet):
        # The only worker dies and never comes back: the coordinator
        # declares the sweep dead instead of polling forever.
        plan = ChaosPlan()
        plan.actions[TASKS[0].label] = ["kill"] * 5
        with pytest.raises(SchedulerError, match="all workers disconnected"):
            run_sweep(
                TASKS[:1],
                scheduler=_remote(
                    fleet, workers=1, min_workers=1, worker_wait_s=3.0
                ),
                chaos_plan=plan,
                retries=5,
            )

    def test_poison_task_quarantined(self, fleet):
        plan = ChaosPlan()
        plan.actions[TASKS[0].label] = ["kill", "kill"]
        outcomes = run_sweep(
            TASKS,
            scheduler=_remote(fleet, min_workers=1),
            chaos_plan=plan,
            retries=5,
            poison_threshold=2,
            keep_going=True,
        )
        assert outcomes[0].quarantined
        assert "quarantined" in outcomes[0].error
        assert outcomes[1].ok and outcomes[2].ok


class TestRemoteAuth:
    def test_bad_token_never_gets_a_task(self, fleet, tmp_path):
        # The only worker presents a wrong token: the coordinator rejects
        # it and the worker-gate times out — no task ever leaves the box.
        def on_ready(host, port):
            fleet.spawn(host, port, count=1, token="wrong-token")

        sched = RemoteScheduler(
            token=TOKEN,
            min_workers=1,
            worker_wait_s=3.0,
            on_ready=on_ready,
        )
        with pytest.raises(SchedulerError, match="0 of 1"):
            run_sweep(TASKS[:1], scheduler=sched)
        assert fleet.procs[0].wait(timeout=20) == 2
        out = fleet.procs[0].stdout.read().decode()
        assert "rejected" in out

    def test_no_workers_at_all_times_out(self):
        sched = RemoteScheduler(
            token=TOKEN, min_workers=1, worker_wait_s=0.3
        )
        with pytest.raises(SchedulerError, match="0 of 1 required workers"):
            run_sweep(TASKS[:1], scheduler=sched)


class TestWorkerExitCodes:
    def test_unreachable_coordinator_exits_4(self, fleet):
        # A bound socket that never listens refuses connections, and
        # holding it keeps any other process off the port meanwhile.
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as closed:
            closed.bind(("127.0.0.1", 0))
            fleet.spawn(
                "127.0.0.1",
                closed.getsockname()[1],
                extra=["--connect-timeout", "1"],
            )
            assert fleet.procs[0].wait(timeout=20) == 4
        out = fleet.procs[0].stdout.read().decode()
        assert "cannot reach coordinator" in out

    def test_worker_retries_until_a_late_coordinator_listens(self, fleet):
        # The port refuses connections for about 0.5 s (bound, not
        # listening), then a real coordinator takes it over: the worker
        # keeps retrying, serves the sweep and exits 0.
        holder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        holder.bind(("127.0.0.1", 0))
        port = holder.getsockname()[1]
        fleet.spawn("127.0.0.1", port)
        time.sleep(0.5)
        holder.close()
        sched = RemoteScheduler(
            token=TOKEN, port=port, min_workers=1, worker_wait_s=20.0
        )
        outcomes = run_sweep(TASKS[:1], scheduler=sched)
        assert all(o.ok for o in outcomes)
        assert fleet.procs[0].wait(timeout=20) == 0


class TestRemoteJournal:
    def test_journal_is_scheduler_agnostic(self, fleet, tmp_path):
        journal = tmp_path / "sweep.journal"
        remote = run_sweep(
            TASKS, scheduler=_remote(fleet), journal_path=str(journal)
        )
        # Resuming the same journal locally re-executes nothing and
        # returns the remotely-computed outcomes verbatim.
        from repro.experiments.scheduler import SweepScheduler

        class _Exploder(SweepScheduler):
            name = "exploder"

            def execute(self, todo, results, session, chaos, opts):
                raise AssertionError(
                    f"resume should have skipped everything, got {todo}"
                )

        resumed = run_sweep(
            TASKS,
            scheduler=_Exploder(),
            journal_path=str(journal),
            resume=True,
        )
        assert [o.ledger_sha256 for o in resumed] == [
            o.ledger_sha256 for o in remote
        ]


class TestReadyFile:
    def test_ready_file_announces_endpoint(self, tmp_path):
        target = tmp_path / "coordinator.json"
        write_ready_file(target, "127.0.0.1", 12345)
        record = json.loads(target.read_text())
        assert record == {
            "pid": os.getpid(),
            "host": "127.0.0.1",
            "port": 12345,
        }
