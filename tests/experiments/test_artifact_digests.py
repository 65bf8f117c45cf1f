"""Pin the final paper artifacts: every experiment's ``--json`` file and
rendered report at tier ``small``, seed 7, cache off, hash to a recorded
sha256.

Layer digests (partition digests, ledger shas) cannot catch an engine or
accounting change that shifts a figure; this can.  After a change that is
*meant* to move an artifact, regenerate the golden with::

    PYTHONPATH=src python tests/experiments/test_artifact_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

import pytest

from repro import cache as repro_cache
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.runner import run_experiment

GOLDEN = Path(__file__).parent / "goldens" / "artifact_digests.json"
TIER = "small"
SEED = 7


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digests(json_dir: Path) -> Dict[str, List[str]]:
    """``{experiment id: [sha256 of its --json file, sha256 of its report]}``."""
    saved = (repro_cache._active, repro_cache._env_checked)
    repro_cache.disable()
    try:
        digests = {}
        for eid in sorted(ALL_EXPERIMENTS):
            report = run_experiment(eid, tier=TIER, seed=SEED, json_dir=str(json_dir))
            digests[eid] = [
                _sha((json_dir / f"{eid}.json").read_bytes()),
                _sha((report + "\n").encode()),
            ]
        return digests
    finally:
        repro_cache._active, repro_cache._env_checked = saved


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return artifact_digests(tmp_path_factory.mktemp("artifacts"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_experiment(golden):
    assert golden["tier"] == TIER and golden["seed"] == SEED
    assert sorted(golden["experiments"]) == sorted(ALL_EXPERIMENTS)


@pytest.mark.parametrize("eid", sorted(ALL_EXPERIMENTS))
def test_artifact_and_report_match_golden(eid, digests, golden):
    assert digests[eid] == golden["experiments"][eid], (
        f"{eid}: --json artifact or rendered report changed; if intended, "
        f"regenerate {GOLDEN.relative_to(Path(__file__).parents[2])}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = artifact_digests(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({"tier": TIER, "seed": SEED, "experiments": recorded}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN} ({len(recorded)} experiments)", file=sys.stderr)
