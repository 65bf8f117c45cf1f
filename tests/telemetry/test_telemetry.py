"""Unit tests for counters, the movement ledger, utilization, and reports."""

import json

import pytest

from repro.net.link import LinkClass
from repro.obs.metrics import CounterSet
from repro.telemetry.movement import MovementLedger
from repro.telemetry.report import movement_table, to_csv, to_json
from repro.telemetry.utilization import (
    classify_utilization,
    utilization_report,
)


class TestCounterSet:
    def test_add_and_get(self):
        c = CounterSet()
        c.add("x")
        c.add("x", 2)
        assert c.get("x") == 3
        assert c["x"] == 3

    def test_missing_is_zero(self):
        assert CounterSet().get("nope") == 0.0

    def test_merge(self):
        a = CounterSet({"x": 1})
        b = CounterSet({"x": 2, "y": 5})
        a.merge(b)
        assert a.get("x") == 3 and a.get("y") == 5

    def test_container_protocol(self):
        c = CounterSet({"a": 1, "b": 2})
        assert len(c) == 2
        assert set(c) == {"a", "b"}
        assert c.as_dict() == {"a": 1, "b": 2}

    def test_repr(self):
        assert "x=2" in repr(CounterSet({"x": 2}))


class TestMovementLedger:
    def test_record_and_totals(self):
        ledger = MovementLedger()
        ledger.record("apply", LinkClass.HOST_LINK, 100, 2)
        ledger.record("apply", LinkClass.HOST_LINK, 50, 1)
        ledger.record("traverse", LinkClass.NDP_INTERNAL, 1000)
        assert ledger.bytes_for(phase="apply") == 150
        assert ledger.messages_for(phase="apply") == 3
        assert ledger.host_link_bytes() == 150

    def test_network_excludes_internal(self):
        ledger = MovementLedger()
        ledger.record("a", LinkClass.HOST_LINK, 10)
        ledger.record("b", LinkClass.MEMORY_LINK, 20)
        ledger.record("c", LinkClass.NODE_LOCAL, 40)
        ledger.record("d", LinkClass.NDP_INTERNAL, 80)
        assert ledger.network_bytes() == 30

    def test_filters(self):
        ledger = MovementLedger()
        ledger.record("a", LinkClass.HOST_LINK, 10)
        ledger.record("a", LinkClass.MEMORY_LINK, 20)
        assert ledger.bytes_for(phase="a", link=LinkClass.HOST_LINK) == 10
        assert ledger.bytes_for(link=LinkClass.MEMORY_LINK) == 20
        assert ledger.bytes_for() == 30

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MovementLedger().record("a", LinkClass.HOST_LINK, -1)

    def test_breakdown(self):
        ledger = MovementLedger()
        ledger.record("apply", LinkClass.HOST_LINK, 10)
        bd = ledger.breakdown()
        assert bd == {"apply": {"host-link": 10}}

    def test_merge(self):
        a = MovementLedger()
        a.record("x", LinkClass.HOST_LINK, 1, 1)
        b = MovementLedger()
        b.record("x", LinkClass.HOST_LINK, 2, 3)
        a.merge(b)
        assert a.bytes_for(phase="x") == 3
        assert a.messages_for(phase="x") == 4

    def test_phases_sorted(self):
        ledger = MovementLedger()
        ledger.record("z", LinkClass.HOST_LINK, 1)
        ledger.record("a", LinkClass.HOST_LINK, 1)
        assert ledger.phases() == ("a", "z")


class TestUtilization:
    def test_balanced(self):
        r = utilization_report(
            compute_demand_ops=90,
            memory_demand_bytes=95,
            compute_provisioned_ops=100,
            memory_provisioned_bytes=100,
            num_nodes=2,
        )
        assert r.compute_utilization == pytest.approx(0.9)
        assert r.skew == pytest.approx(0.05)
        assert classify_utilization(r) == "Balanced"

    def test_skewed(self):
        r = utilization_report(
            compute_demand_ops=10,
            memory_demand_bytes=95,
            compute_provisioned_ops=100,
            memory_provisioned_bytes=100,
            num_nodes=4,
        )
        assert classify_utilization(r) == "Skewed"
        assert r.stranded_fraction == pytest.approx(0.9)

    def test_utilization_capped_at_one(self):
        r = utilization_report(
            compute_demand_ops=500,
            memory_demand_bytes=1,
            compute_provisioned_ops=100,
            memory_provisioned_bytes=100,
            num_nodes=1,
        )
        assert r.compute_utilization == 1.0

    def test_zero_provisioning(self):
        r = utilization_report(
            compute_demand_ops=1,
            memory_demand_bytes=1,
            compute_provisioned_ops=0,
            memory_provisioned_bytes=0,
            num_nodes=1,
        )
        assert r.compute_utilization == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            utilization_report(
                compute_demand_ops=-1,
                memory_demand_bytes=0,
                compute_provisioned_ops=0,
                memory_provisioned_bytes=0,
                num_nodes=1,
            )
        with pytest.raises(ValueError):
            utilization_report(
                compute_demand_ops=0,
                memory_demand_bytes=0,
                compute_provisioned_ops=0,
                memory_provisioned_bytes=0,
                num_nodes=0,
            )


class TestReports:
    def test_movement_table_renders(self):
        ledger = MovementLedger()
        ledger.record("apply", LinkClass.HOST_LINK, 2048)
        out = movement_table(ledger).render()
        assert "apply" in out and "2.00 KiB" in out and "TOTAL" in out

    def test_to_csv(self):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        text = to_csv(rows)
        assert text.splitlines()[0] == "a,b"
        assert "2,y" in text

    def test_to_csv_empty(self):
        assert to_csv([]) == ""

    def test_to_json_coerces_numpy(self):
        import numpy as np

        payload = {"x": np.int64(5), "arr": np.arange(3)}
        decoded = json.loads(to_json(payload))
        assert decoded == {"x": 5, "arr": [0, 1, 2]}

    def test_to_json_rejects_garbage(self):
        with pytest.raises(TypeError):
            to_json({"x": object()})
