"""``benchmarks/check_regression.py`` reports a vacuous gate, never hides it."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "check_regression.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_regression", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sweep_doc(path: Path, *, cores: int, speedup: float) -> str:
    path.write_text(
        json.dumps(
            {
                "remote_scaling_medium": {
                    "cores": cores,
                    "ledger_identical": True,
                    "speedup_2w": speedup,
                }
            }
        )
    )
    return str(path)


def _engine_args(tmp_path: Path) -> list:
    doc = {"profile_throughput_medium": {"speedup": 10.0}}
    current = tmp_path / "BENCH_engine.json"
    baseline = tmp_path / "baseline.json"
    current.write_text(json.dumps(doc))
    baseline.write_text(json.dumps(doc))
    missing = str(tmp_path / "absent.json")
    return [
        "--current", str(current),
        "--baseline", str(baseline),
        "--serve-current", missing,
        "--offload-current", missing,
    ]


def test_single_core_sweep_gate_is_annotated_and_counted(gate, tmp_path, capsys):
    path = _sweep_doc(tmp_path / "BENCH_sweep.json", cores=1, speedup=0.9)
    assert gate.main(["--only", "sweep", "--sweep-current", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    warnings = [line for line in lines if line.startswith("::warning")]
    assert len(warnings) == 1
    assert "sweep gate skipped" in warnings[0]
    assert "single-core runner" in warnings[0]
    assert lines[-1] == "bench-regression: OK (1 gate skipped)"


def test_skipped_gate_is_counted_under_only_all(gate, tmp_path, capsys):
    path = _sweep_doc(tmp_path / "BENCH_sweep.json", cores=1, speedup=0.9)
    argv = _engine_args(tmp_path) + ["--sweep-current", path]
    assert gate.main(argv) == 0
    out = capsys.readouterr().out
    assert "::warning title=bench-regression::sweep gate skipped" in out
    assert out.splitlines()[-1] == "bench-regression: OK (1 gate skipped)"


def test_applied_gates_report_plain_ok(gate, tmp_path, capsys):
    path = _sweep_doc(tmp_path / "BENCH_sweep.json", cores=2, speedup=1.9)
    argv = _engine_args(tmp_path) + ["--sweep-current", path]
    assert gate.main(argv) == 0
    out = capsys.readouterr().out
    assert "::warning" not in out
    assert out.splitlines()[-1] == "bench-regression: OK"


def test_applied_gate_still_fails_below_its_floor(gate, tmp_path, capsys):
    path = _sweep_doc(tmp_path / "BENCH_sweep.json", cores=2, speedup=1.0)
    assert gate.main(["--only", "sweep", "--sweep-current", path]) == 1
    assert "FAIL" in capsys.readouterr().err
