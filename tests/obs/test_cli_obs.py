"""CLI observability flags and the unified flag spellings on both CLIs."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser as run_parser
from repro.cli import main as run_main
from repro.experiments.runner import build_parser as exp_parser
from repro.obs import validate_chrome_trace

RUN_ARGS = [
    "--dataset", "wikitalk-sim",
    "--tier", "tiny",
    "--kernel", "pagerank",
    "--max-iterations", "3",
    "--quiet",
]


class TestRunTracing:
    def test_trace_out_emits_valid_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "run.trace.json"
        rc = run_main(RUN_ARGS + ["--trace-out", str(out)])
        assert rc == 0
        assert validate_chrome_trace(str(out)) >= 4
        assert f"trace written to {out}" in capsys.readouterr().out

    def test_trace_iteration_bytes_sum_to_run_totals(self, tmp_path):
        # The ISSUE acceptance check: per-iteration byte attributes in the
        # emitted trace sum exactly to the run's whole-ledger totals.
        out = tmp_path / "run.trace.json"
        assert run_main(RUN_ARGS + ["--trace-out", str(out)]) == 0
        doc = json.loads(out.read_text())
        iter_events = [
            ev for ev in doc["traceEvents"] if ev["cat"] == "iteration"
        ]
        run_events = [ev for ev in doc["traceEvents"] if ev["cat"] == "run"]
        assert len(run_events) == 1 and len(iter_events) == 3
        totals = run_events[0]["args"]
        assert (
            sum(ev["args"]["host_link_bytes"] for ev in iter_events)
            == totals["total_host_link_bytes"]
        )
        assert (
            sum(ev["args"]["network_bytes"] for ev in iter_events)
            == totals["total_network_bytes"]
        )

    def test_trace_events_jsonl_stream(self, tmp_path):
        events = tmp_path / "spans.jsonl"
        rc = run_main(RUN_ARGS + ["--trace-events", str(events)])
        assert rc == 0
        rows = [json.loads(line) for line in events.read_text().splitlines()]
        names = {row["name"] for row in rows}
        assert "run" in names and "iteration" in names

    def test_progress_lines_on_stderr(self, capsys):
        rc = run_main(RUN_ARGS + ["--progress"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "iter 0" in err
        assert "done" in err

    def test_untraced_run_prints_no_trace_message(self, capsys):
        rc = run_main(RUN_ARGS)
        assert rc == 0
        assert "trace written" not in capsys.readouterr().out

    def test_compare_trace_covers_all_architectures(self, tmp_path):
        out = tmp_path / "cmp.trace.json"
        rc = run_main(RUN_ARGS + ["--compare", "--trace-out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        # One run span per architecture replay, plus the shared recording
        # pass (which has no architecture attribute).
        archs = {
            ev["args"].get("architecture")
            for ev in doc["traceEvents"]
            if ev["cat"] == "run"
        }
        assert archs - {None} == {
            "distributed",
            "distributed-ndp",
            "disaggregated",
            "disaggregated-ndp",
        }


class TestDeprecatedAliases:
    """The old spellings (--workers, --faults-seed, --budget) are gone."""

    @pytest.mark.parametrize("flag", ["--workers", "--faults-seed", "--budget"])
    def test_removed_aliases_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run_parser().parse_args(
                ["--dataset", "wikitalk-sim", "--kernel", "pagerank", flag, "2"]
            )
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_canonical_flags_stay_silent(self, capsys):
        args = run_parser().parse_args(
            [
                "--dataset", "wikitalk-sim",
                "--kernel", "pagerank",
                "--jobs", "2",
                "--fault-seed", "5",
            ]
        )
        assert args.jobs == 2 and args.fault_seed == 5
        assert "deprecated" not in capsys.readouterr().err


class TestUnifiedFlags:
    """Both CLIs must expose the same spellings for the shared knobs."""

    def test_shared_flags_present_on_both_parsers(self):
        run_opts = {
            s for a in run_parser()._actions for s in a.option_strings
        }
        exp_sub = next(
            a for a in exp_parser()._actions
            if isinstance(a, __import__("argparse")._SubParsersAction)
        )
        exp_opts = {
            s
            for a in exp_sub.choices["run"]._actions
            for s in a.option_strings
        }
        shared = {
            "--jobs", "--cache-dir", "--no-cache", "--memory-budget",
            "--fault-seed", "--trace-out", "--trace-events", "--progress",
            "--tier", "--seed",
        }
        assert shared <= run_opts
        assert shared <= exp_opts
