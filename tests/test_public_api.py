"""The documented public API: everything in ``repro.__all__`` importable and
the quickstart path working end to end."""

import dataclasses
import inspect

import numpy as np
import pytest

import repro


class TestPublicSurface:
    def test_all_names_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_error_hierarchy(self):
        for err in (
            repro.GraphError,
            repro.PartitionError,
            repro.KernelError,
            repro.CapabilityError,
            repro.ConfigError,
            repro.SimulationError,
            repro.ExperimentError,
            repro.FaultError,
            repro.RecoveryError,
        ):
            assert issubclass(err, repro.ReproError)

    def test_fault_surface_exported(self):
        schedule = repro.FaultSchedule.single_crash(iteration=1, part=0)
        assert len(schedule) == 1
        assert isinstance(
            repro.EveryKCheckpoint(k=3), repro.CheckpointPolicy
        )
        spec = repro.FaultSpec(seed=5, horizon=4, memory_crash_prob=0.5)
        assert repro.FaultSchedule.from_spec(spec) == repro.FaultSchedule.from_spec(spec)

    def test_quickstart_flow(self):
        graph, spec = repro.load_dataset("livejournal-sim", tier="tiny", seed=7)
        sim = repro.DisaggregatedNDPSimulator(
            repro.SystemConfig(num_memory_nodes=4)
        )
        run = sim.run(graph, repro.PageRank(max_iterations=5), graph_name=spec.name)
        assert run.num_iterations == 5
        ranks = run.result_property()
        assert ranks.size == graph.num_vertices
        assert np.all(ranks > 0)

    def test_docstrings_on_public_classes(self):
        for name in (
            "CSRGraph",
            "MetisPartitioner",
            "PageRank",
            "DisaggregatedNDPSimulator",
            "SystemConfig",
            "DynamicCostPolicy",
        ):
            assert getattr(repro, name).__doc__, name

    def test_registries_agree_with_exports(self):
        assert set(repro.list_architectures()) == {
            "distributed",
            "distributed-ndp",
            "disaggregated",
            "disaggregated-ndp",
        }
        assert "pagerank" in repro.list_kernels()

    def test_device_catalog_exported(self):
        names = {d.name for d in repro.device_catalog()}
        assert "upmem" in names and "cxl-cms" in names


class TestFacadeSurface:
    """The stable facade: RunSpec + the five one-call workflows."""

    FACADE = (
        "RunSpec",
        "SweepSpec",
        "run",
        "compare",
        "sweep",
        "load_dataset",
        "partition",
    )

    def test_facade_names_in_all(self):
        for name in self.FACADE:
            assert name in repro.__all__, name
            assert hasattr(repro, name), name

    def test_runspec_is_frozen_and_keyword_only(self):
        spec = repro.RunSpec(dataset="wikitalk-sim", tier="tiny")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.kernel = "bfs"
        with pytest.raises(TypeError):
            repro.RunSpec("wikitalk-sim")  # positional fields rejected

    def test_runspec_validates_on_construction(self):
        with pytest.raises(repro.ConfigError, match="partitions"):
            repro.RunSpec(partitions=0)
        with pytest.raises(repro.ConfigError, match="replication_factor"):
            repro.RunSpec(replication_factor=0)

    def test_facade_functions_are_keyword_only(self):
        for name in ("load_dataset", "partition"):
            sig = inspect.signature(getattr(repro, name))
            positional = [
                p
                for p in sig.parameters.values()
                if p.kind
                in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            ]
            # Only the primary subject (name / graph) may be positional.
            assert len(positional) <= 1, name

    def test_run_accepts_spec_and_overrides(self):
        spec = repro.RunSpec(
            dataset="wikitalk-sim", tier="tiny", max_iterations=3, partitions=4
        )
        result = repro.run(spec)
        assert result.architecture == "disaggregated-ndp"
        assert result.num_iterations == 3
        override = repro.run(spec, architecture="distributed")
        assert override.architecture == "distributed"

    def test_run_rejects_unknown_fields(self):
        with pytest.raises(repro.ConfigError, match="unknown RunSpec field"):
            repro.run(dataset="wikitalk-sim", tier="tiny", kernell="pagerank")

    def test_sweepspec_is_frozen_and_validates(self):
        spec = repro.SweepSpec(tier="tiny", jobs=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.jobs = 4
        with pytest.raises(repro.ConfigError, match="jobs"):
            repro.SweepSpec(jobs=0)
        with pytest.raises(repro.ConfigError, match="journal_path"):
            repro.SweepSpec(resume=True)

    def test_sweep_rejects_unknown_fields(self):
        with pytest.raises(repro.ConfigError, match="unknown SweepSpec field"):
            repro.sweep(tier="tiny", jobbs=3)

    def test_sweep_accepts_spec_and_overrides(self, tmp_path):
        from repro.experiments.sweep import SweepTask

        tasks = [
            SweepTask("wikitalk-sim", "pagerank", 4, "tiny", 7, max_iterations=3)
        ]
        spec = repro.SweepSpec(
            tier="tiny", journal_path=str(tmp_path / "sweep.journal")
        )
        first = repro.sweep(tasks, spec=spec)
        assert set(first.data) == {tasks[0].label}
        resumed = repro.sweep(tasks, spec=spec, resume=True)
        assert resumed.data == first.data

    def test_compare_covers_all_architectures(self):
        comparison = repro.compare(
            dataset="wikitalk-sim", tier="tiny", max_iterations=3, partitions=4
        )
        assert {row.architecture for row in comparison.rows} == set(
            repro.list_architectures()
        )

    def test_load_dataset_and_partition_compose(self):
        graph, spec = repro.load_dataset("wikitalk-sim", tier="tiny", seed=7)
        assert spec.name.startswith("wikitalk")
        assignment = repro.partition(graph, num_parts=4, partitioner="hash")
        assert assignment.num_parts == 4
