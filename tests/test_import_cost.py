"""Start-up stays free of scipy, and the sweep module free of asyncio.

Every CLI run, sweep worker, serve daemon and test subprocess pays for
what ``import repro`` pulls in; scipy is needed only by the spectral
partitioner and the test-side reference kernels, which import it when
they run.  The sweep coordinator is needed only by parallel sweeps.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ENTRY_POINTS = (
    "repro",
    "repro.cli",
    "repro.experiments.runner",
    "repro.experiments.worker",
    "repro.serve",
)


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return out.stdout.strip()


def test_entry_points_do_not_import_scipy():
    code = (
        "import importlib, sys\n"
        f"for name in {ENTRY_POINTS!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _run(code) == "[]"


def test_sweep_module_loads_no_coordinator_machinery():
    # The coordinator (asyncio) is imported only when a sweep runs with
    # jobs > 1, and no process pool is imported at all.
    code = (
        "import sys\n"
        "import repro.experiments.sweep\n"
        "print(sorted(m for m in ('asyncio', 'concurrent.futures.process')"
        " if m in sys.modules))\n"
    )
    assert _run(code) == "[]"
