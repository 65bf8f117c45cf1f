"""End-to-end tests of the serving daemon over real TCP.

Each test runs an :class:`AnalyticsServer` on an ephemeral port inside a
background event loop (:class:`ServerThread`) and talks plain HTTP.
"""

from __future__ import annotations

import glob
import json
import threading
import time

import pytest

from repro import api
from repro.serve import ServeConfig, ServerThread
from repro.serve.protocol import result_sha256

from _http import http_get, http_post


def _spin_until(predicate, *, timeout_s: float = 30.0, what: str = "condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError(f"timed out waiting for {what}")


# --------------------------------------------------------------------------- #
# Correctness: served results are bit-identical to the facade/CLI path
# --------------------------------------------------------------------------- #


def test_served_run_matches_facade(run_payload):
    with ServerThread(ServeConfig(port=0)) as server:
        status, headers, body = http_post(server.port, "/v1/run", run_payload)
    assert status == 200
    served = json.loads(body)

    spec = api.RunSpec(**run_payload)
    offline = api.run(spec)
    assert served["result_sha256"] == result_sha256(offline.result_property())
    assert served["iterations"] == offline.num_iterations
    assert served["total_host_link_bytes"] == offline.total_host_link_bytes
    assert served["spec_digest"] == spec.digest()
    assert headers["x-repro-digest"]


def test_served_compare_matches_facade(run_payload):
    with ServerThread(ServeConfig(port=0)) as server:
        status, _headers, body = http_post(
            server.port, "/v1/compare", run_payload
        )
    assert status == 200
    served = json.loads(body)

    comparison = api.compare(api.RunSpec(**run_payload))
    assert served["result_sha256"] == result_sha256(
        comparison.rows[0].run.result_property()
    )
    assert set(served["architectures"]) == {
        row.architecture for row in comparison.rows
    }
    for row in comparison.rows:
        assert (
            served["architectures"][row.architecture]["total_host_link_bytes"]
            == row.total_host_link_bytes
        )


def test_repeat_request_hits_cache_with_identical_bytes(run_payload):
    with ServerThread(ServeConfig(port=0)) as server:
        first = http_post(server.port, "/v1/run", run_payload)
        second = http_post(server.port, "/v1/run", run_payload)
        executions = server.server.executor.executions
    assert first[0] == second[0] == 200
    assert "x-repro-cache" not in first[1]
    assert second[1].get("x-repro-cache") == "hit"
    assert first[2] == second[2]  # byte-for-byte
    assert executions == 1


# --------------------------------------------------------------------------- #
# Coalescing: N identical concurrent requests execute exactly once
# --------------------------------------------------------------------------- #


def test_identical_concurrent_requests_execute_once(run_payload):
    attackers = 6
    gate = threading.Event()
    entered = threading.Event()

    def hold_leader(_request):
        entered.set()
        assert gate.wait(timeout=60), "test gate never opened"

    config = ServeConfig(port=0, workers=2, result_cache=False)
    with ServerThread(config, pre_execute=hold_leader) as server:
        responses = []
        errors = []

        def fire():
            try:
                responses.append(
                    http_post(server.port, "/v1/run", run_payload)
                )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=fire) for _ in range(attackers)
        ]
        for thread in threads:
            thread.start()
        # the leader is in the executor; wait for everyone else to attach
        assert entered.wait(timeout=60)
        _spin_until(
            lambda: server.server.coalescer.stats()["attached"]
            >= attackers - 1,
            what="followers to attach to the in-flight execution",
        )
        gate.set()
        for thread in threads:
            thread.join(timeout=120)
        stats = server.server.coalescer.stats()
        executions = server.server.executor.executions

    assert not errors
    assert len(responses) == attackers
    assert all(status == 200 for status, _, _ in responses)
    bodies = {body for _, _, body in responses}
    assert len(bodies) == 1, "coalesced responses must be the same bytes"
    assert executions == 1, "identical concurrent requests must run once"
    assert stats["led"] == 1
    assert stats["attached"] == attackers - 1
    coalesced_headers = [
        headers.get("x-repro-coalesced") for _, headers, _ in responses
    ]
    assert coalesced_headers.count("1") == attackers - 1


# --------------------------------------------------------------------------- #
# Admission: typed fast failure under quota pressure and overload
# --------------------------------------------------------------------------- #


def test_tenant_quota_rejects_fast(run_payload):
    gate = threading.Event()
    entered = threading.Event()

    def hold(_request):
        entered.set()
        assert gate.wait(timeout=60)

    config = ServeConfig(
        port=0,
        workers=1,
        coalesce=False,
        result_cache=False,
        tenant_max_inflight=1,
    )
    with ServerThread(config, pre_execute=hold) as server:
        blocker = threading.Thread(
            target=http_post, args=(server.port, "/v1/run", run_payload)
        )
        blocker.start()
        assert entered.wait(timeout=60)

        other = dict(run_payload, max_iterations=3)  # distinct digest
        started = time.monotonic()
        status, _headers, body = http_post(server.port, "/v1/run", other)
        elapsed = time.monotonic() - started
        gate.set()
        blocker.join(timeout=120)

    assert status == 429
    error = json.loads(body)["error"]
    assert error["type"] == "QuotaExceeded"
    assert error["tenant"] == "default"
    assert elapsed < 10, "quota rejection must be fast, not a hang"


def test_overload_sheds_with_retry_after(run_payload):
    gate = threading.Event()
    entered = threading.Event()

    def hold(_request):
        entered.set()
        assert gate.wait(timeout=60)

    config = ServeConfig(
        port=0,
        workers=1,
        coalesce=False,
        result_cache=False,
        max_queue_depth=1,
        tenant_max_inflight=None,
    )
    with ServerThread(config, pre_execute=hold) as server:
        first = threading.Thread(
            target=http_post, args=(server.port, "/v1/run", run_payload)
        )
        first.start()
        assert entered.wait(timeout=60)  # worker busy with the first

        queued_payload = dict(run_payload, max_iterations=3)
        second = threading.Thread(
            target=http_post,
            args=(server.port, "/v1/run", queued_payload),
        )
        second.start()
        _spin_until(
            lambda: server.server.admission.queued >= 1,
            what="second request to occupy the queue",
        )

        shed_payload = dict(run_payload, max_iterations=2)
        status, headers, body = http_post(
            server.port, "/v1/run", shed_payload
        )
        gate.set()
        first.join(timeout=120)
        second.join(timeout=120)
        shed_count = server.server.admission.stats()["shed"]

    assert status == 503
    assert "retry-after" in headers
    error = json.loads(body)["error"]
    assert error["type"] == "Overloaded"
    assert error["retry_after_s"] > 0
    assert shed_count == 1


# --------------------------------------------------------------------------- #
# Sweep requests + graceful shutdown leave no residue
# --------------------------------------------------------------------------- #


def _shm_residue():
    return glob.glob("/dev/shm/rsw-*")


def test_sweep_request_and_clean_shutdown(run_payload):
    before = set(_shm_residue())
    tasks = [
        {"dataset": "wikitalk-sim", "kernel": "pagerank", "partitions": 4,
         "tier": "tiny", "max_iterations": 4},
        {"dataset": "wikitalk-sim", "kernel": "cc", "partitions": 4,
         "tier": "tiny"},
    ]
    server = ServerThread(ServeConfig(port=0, sweep_jobs_cap=2)).start()
    try:
        status, _headers, body = http_post(
            server.port, "/v1/sweep", {"tasks": tasks, "jobs": 2},
            timeout=600.0,
        )
        assert status == 200
        payload = json.loads(body)
        assert len(payload["workloads"]) == 2
        for entry in payload["workloads"].values():
            assert entry.get("result_sha256"), entry
        # warm something into the pool too
        assert http_post(server.port, "/v1/run", run_payload)[0] == 200
        assert server.server.pool.stats()["entries"] >= 1
    finally:
        server.stop()

    # graceful shutdown released every pooled graph and shm segment
    stats = server.server.pool.stats()
    assert stats["entries"] == 0
    assert stats["bytes"] == 0
    assert stats["pinned"] == 0
    assert set(_shm_residue()) - before == set()


def test_draining_server_rejects_new_requests(run_payload):
    server = ServerThread(ServeConfig(port=0)).start()
    port = server.port
    assert http_post(port, "/v1/run", run_payload)[0] == 200
    server.stop()
    with pytest.raises(OSError):
        http_post(port, "/v1/run", run_payload, timeout=5.0)


# --------------------------------------------------------------------------- #
# HTTP plumbing
# --------------------------------------------------------------------------- #


def test_healthz_stats_and_errors(run_payload):
    with ServerThread(ServeConfig(port=0)) as server:
        status, _h, body = http_get(server.port, "/v1/healthz")
        assert status == 200
        assert json.loads(body) == {"ok": True, "status": "serving"}

        assert http_post(server.port, "/v1/run", run_payload)[0] == 200

        status, _h, body = http_get(server.port, "/v1/stats")
        assert status == 200
        stats = json.loads(body)
        assert stats["requests"] >= 1
        assert stats["executor"]["executions"] >= 1
        assert stats["pool"]["entries"] >= 1

        status, _h, body = http_post(
            server.port, "/v1/run", raw_body=b"{not json"
        )
        assert status == 400
        assert json.loads(body)["error"]["type"] == "ConfigError"

        status, _h, _b = http_post(
            server.port, "/v1/run", {"dataset": "nope", "kernel": "pagerank"}
        )
        assert status == 400

        status, _h, _b = http_get(server.port, "/v1/unknown")
        assert status == 404

        status, _h, _b = http_get(server.port, "/v1/run")
        assert status == 405


def test_stats_expose_request_latency_histogram(run_payload):
    def request_latency(port):
        status, _h, body = http_get(port, "/v1/stats")
        assert status == 200
        metrics = json.loads(body)["metrics"]
        return metrics.get("serve.request-seconds", {"count": 0})

    with ServerThread(ServeConfig(port=0)) as server:
        # The registry is process-wide, so count from a baseline.
        before = request_latency(server.port)["count"]
        for _ in range(2):
            assert http_post(server.port, "/v1/run", run_payload)[0] == 200
        latency = request_latency(server.port)
    assert latency["count"] == before + 2
    assert latency["min"] <= latency["p50"] <= latency["p99"] <= latency["max"]
    assert latency["p99"] > 0


def test_oversized_body_rejected(run_payload):
    with ServerThread(ServeConfig(port=0, max_body_bytes=64)) as server:
        status, _h, body = http_post(server.port, "/v1/run", run_payload)
    assert status == 413
    assert json.loads(body)["error"]["type"] == "ConfigError"


def test_persistent_result_cache_survives_daemon_restart(
    run_payload, tmp_path
):
    from repro.cache.store import ArtifactCache

    first = ServerThread(
        ServeConfig(port=0), cache=ArtifactCache(tmp_path)
    ).start()
    try:
        _, _, first_body = http_post(first.port, "/v1/run", run_payload)
    finally:
        first.stop()

    second = ServerThread(
        ServeConfig(port=0), cache=ArtifactCache(tmp_path)
    ).start()
    try:
        status, headers, second_body = http_post(
            second.port, "/v1/run", run_payload
        )
        executions = second.server.executor.executions
    finally:
        second.stop()

    assert status == 200
    assert headers.get("x-repro-cache") == "hit"
    assert second_body == first_body
    assert executions == 0, "a persisted result must not re-execute"
