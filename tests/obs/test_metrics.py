"""Metrics registry: declarations, typed handles, strict counters."""

from __future__ import annotations

import math

import pytest

from repro.errors import MetricError, ReproError
from repro.obs.metrics import (
    METRICS,
    Counter,
    CounterSet,
    Gauge,
    Histogram,
    M,
    MetricSpec,
    MetricsRegistry,
    strict_counters,
)


class TestRegistry:
    def test_declare_returns_name(self):
        reg = MetricsRegistry()
        assert reg.declare("foo-bytes", unit="bytes") == "foo-bytes"
        assert "foo-bytes" in reg
        assert reg.spec("foo-bytes").unit == "bytes"

    def test_redeclare_same_kind_is_noop(self):
        reg = MetricsRegistry()
        reg.declare("foo")
        assert reg.declare("foo") == "foo"
        assert reg.names() == ("foo",)

    def test_redeclare_different_kind_raises(self):
        reg = MetricsRegistry()
        reg.declare("foo", "counter")
        with pytest.raises(MetricError, match="already declared"):
            reg.declare("foo", "gauge")

    def test_typo_raises_with_closest_match_hint(self):
        with pytest.raises(MetricError) as exc:
            METRICS.check("fault-event")  # declared name is "fault-events"
        msg = str(exc.value)
        assert "undeclared metric" in msg
        assert "did you mean 'fault-events'" in msg

    def test_metric_error_is_repro_error(self):
        assert issubclass(MetricError, ReproError)

    def test_unknown_kind_rejected(self):
        with pytest.raises(MetricError, match="unknown kind"):
            MetricSpec(name="x", kind="timer")

    def test_m_constants_are_declared_strings(self):
        for attr in dir(M):
            if attr.startswith("_"):
                continue
            name = getattr(M, attr)
            assert isinstance(name, str)
            assert name in METRICS, f"M.{attr} = {name!r} not declared"


class TestInstruments:
    def _registry(self):
        reg = MetricsRegistry()
        reg.declare("c", "counter")
        reg.declare("g", "gauge")
        reg.declare("h", "histogram")
        return reg

    def test_counter_handle(self):
        reg = self._registry()
        c = reg.counter("c")
        assert isinstance(c, Counter)
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        assert reg.counter("c") is c  # process-wide singleton per name

    def test_counter_rejects_negative(self):
        c = self._registry().counter("c")
        with pytest.raises(MetricError, match="negative increment"):
            c.inc(-1)

    def test_gauge_handle(self):
        g = self._registry().gauge("g")
        assert isinstance(g, Gauge)
        g.set(10)
        g.set(4)
        assert g.value == 4.0

    def test_histogram_handle(self):
        h = self._registry().histogram("h")
        assert isinstance(h, Histogram)
        assert math.isnan(h.mean)
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        d = h.as_dict()
        assert d["count"] == 3
        assert d["min"] == 1.0
        assert d["max"] == 3.0
        assert d["mean"] == pytest.approx(2.0)

    def test_histogram_quantiles_within_one_bucket(self):
        h = self._registry().histogram("h")
        assert math.isnan(h.as_dict()["p99"])
        values = [0.001 * 1.07**i for i in range(200)]
        for v in values:
            h.observe(v)
        ordered = sorted(values)
        for q in (0.01, 0.25, 0.5, 0.9, 0.99, 1.0):
            exact = ordered[math.ceil(q * len(ordered)) - 1]
            assert h.quantile(q) == pytest.approx(exact, rel=0.19)
        d = h.as_dict()
        assert d["p50"] == h.quantile(0.5) and d["p99"] == h.quantile(0.99)
        assert d["min"] <= d["p50"] <= d["p99"] <= d["max"]

    def test_histogram_zero_bucket_and_clamping(self):
        h = self._registry().histogram("h")
        for v in (0.0, 0.0, 0.0, 5.0):
            h.observe(v)
        assert h.quantile(0.5) == 0.0
        # One observation: the bucket midpoint is clamped to [min, max].
        assert h.quantile(0.99) == 5.0
        h.reset()
        h.observe(3.0)
        assert h.as_dict()["p50"] == h.as_dict()["p99"] == 3.0

    def test_kind_mismatch_raises(self):
        reg = self._registry()
        with pytest.raises(MetricError, match="is a gauge, not a counter"):
            reg.counter("g")
        with pytest.raises(MetricError, match="is a counter, not a histogram"):
            reg.histogram("c")

    def test_undeclared_instrument_raises(self):
        with pytest.raises(MetricError, match="undeclared metric"):
            self._registry().counter("nope")

    def test_snapshot_and_reset(self):
        reg = self._registry()
        reg.counter("c").inc(5)
        reg.gauge("g").set(7)
        reg.histogram("h").observe(1.0)
        snap = reg.snapshot()
        assert snap["c"] == 5.0
        assert snap["g"] == 7.0
        assert snap["h"]["count"] == 1
        reg.reset_instruments()
        snap = reg.snapshot()
        assert snap["c"] == 0.0
        assert snap["g"] == 0.0
        assert snap["h"]["count"] == 0


class TestCounterSet:
    def test_lenient_without_registry(self):
        c = CounterSet()
        c.add("anything-goes", 2)
        assert c["anything-goes"] == 2.0
        assert c["never-touched"] == 0.0

    def test_strict_add_rejects_typos(self):
        c = strict_counters()
        c.add(M.FAULT_EVENTS)  # declared: fine
        with pytest.raises(MetricError, match="did you mean"):
            c.add("fault-event")

    def test_strict_initial_mapping_validated(self):
        with pytest.raises(MetricError):
            strict_counters({"bogus-name": 1.0})
        c = strict_counters({M.FAULT_EVENTS: 2.0})
        assert c[M.FAULT_EVENTS] == 2.0

    def test_strict_merge_validated(self):
        loose = CounterSet()
        loose.add("bogus-name", 1.0)
        strict = strict_counters()
        with pytest.raises(MetricError):
            strict.merge(loose)

    def test_strict_reads_stay_lenient(self):
        c = strict_counters()
        assert c["definitely-not-declared"] == 0.0
        assert c.get("also-not-declared") == 0.0

    def test_merge_and_snapshot(self):
        a = CounterSet({"x": 1.0})
        b = CounterSet({"x": 2.0, "y": 3.0})
        a.merge(b)
        assert a.as_dict() == {"x": 3.0, "y": 3.0}
        assert set(a) == {"x", "y"}
        assert len(a) == 2
