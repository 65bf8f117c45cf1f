"""A parallel sweep leaves no child process behind, however it ends.

Forked sweep workers are children of the sweep process.  A hung
(SIGSTOPped) worker in particular never exits by itself, so the sweep
must SIGKILL and reap every worker on the failure and signal paths too.
The scenarios run in a fresh interpreter, so children of other tests
cannot mask a leak.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGSTOP"), reason="needs POSIX signals"
)

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = r"""
import os
import signal
import threading
from multiprocessing import resource_tracker

from repro.chaos import ChaosPlan
from repro.errors import ExperimentError, SweepInterrupted
from repro.experiments.sweep import SweepTask, run_sweep

TASKS = [
    SweepTask("wikitalk-sim", "pagerank", 4, "tiny", 7, max_iterations=4),
    SweepTask("wikitalk-sim", "bfs", 4, "tiny", 7, max_iterations=6),
]
HANG = ChaosPlan(actions={TASKS[0].label: ["hang"]})

# Publishing shared memory would start multiprocessing's resource tracker,
# a long-lived child of its own (and one a leaked worker keeps alive).
# The sweep unlinks its segments itself, so keep the tracker out.
resource_tracker.register = resource_tracker.unregister = lambda *args: None


def assert_no_children(case):
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError(f"{case}: a child process outlived the sweep")


try:
    run_sweep(TASKS, jobs=2, retries=0, heartbeat_timeout_s=1.0,
              chaos_plan=HANG)
except ExperimentError:
    pass
else:
    raise AssertionError("the hang should have failed the sweep")
assert_no_children("hang, fail-fast")

timer = threading.Timer(0.5, os.kill, args=(os.getpid(), signal.SIGTERM))
timer.start()
try:
    run_sweep(TASKS, jobs=2, retries=0, chaos_plan=HANG)
except SweepInterrupted:
    pass
else:
    raise AssertionError("SIGTERM should have interrupted the sweep")
finally:
    timer.cancel()
assert_no_children("SIGTERM")
print("ok")
"""


def test_failed_and_interrupted_sweeps_leave_no_children(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    # A file, not a pipe: a leaked worker would hold a pipe open and turn
    # the failure into a hang.
    log = tmp_path / "children.log"
    with open(log, "w") as out:
        proc = subprocess.run(
            [sys.executable, "-c", SCRIPT],
            env=env,
            stdout=out,
            stderr=subprocess.STDOUT,
            timeout=120,
        )
    text = log.read_text()
    assert proc.returncode == 0, text
    assert text.strip().endswith("ok")
