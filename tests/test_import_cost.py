"""The runtime needs no scipy, and the sweep module loads no asyncio.

Every CLI run, sweep worker, serve daemon and test subprocess pays for
what ``import repro`` pulls in.  scipy is a test-only dependency: only
the reference oracles in ``repro.kernels.reference`` import it, when
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


def test_runs_complete_with_scipy_blocked(tmp_path):
    # A meta-path finder makes every scipy import fail, as on an install
    # without the test extra.  The host-only triangle kernel and every
    # paper artifact must still run.
    code = (
        "import sys\n"
        "class BlockScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError('scipy blocked')\n"
        "sys.meta_path.insert(0, BlockScipy())\n"
        "from repro.cli import main as run_main\n"
        "from repro.experiments.runner import main as experiments_main\n"
        "rc_run = run_main(['--dataset', 'livejournal-sim', '--tier', 'tiny',"
        " '--kernel', 'triangles', '--result-sha'])\n"
        "rc_all = experiments_main(['run', 'all', '--tier', 'tiny',"
        f" '--no-cache', '--json', {str(tmp_path)!r}])\n"
        "print('exit codes', rc_run, rc_all)\n"
    )
    assert _run(code).splitlines()[-1] == "exit codes 0 0"
    assert len(list(tmp_path.glob("*.json"))) == 19


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
