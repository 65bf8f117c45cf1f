"""Stability of the canonical request digest.

The digest keys coalescing, the result cache, and the persisted artifact
layer; if it drifts across field order, default spelling, or releases,
caches silently go cold and coalescing silently stops.  These tests pin
it down.
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.api import PolicySpec, RunSpec
from repro.serve.protocol import parse_request

#: Pinned digest of the reference spec below.  If this changes, every
#: persisted result cache goes cold: bump repro.cache.keys.SCHEMA_VERSION
#: deliberately instead of letting it drift.
PINNED_SPEC_DIGEST = (
    "0a2381564cdb9cf81e1d8a51a36a289e5ab57cbc560cd5637bb041907e0b43e3"
)
PINNED_RUN_REQUEST_DIGEST = (
    "abe0c6589f0c2ce30d6be38092831ab0e779667230ea13871edea15bb8d178ee"
)


def _reference_spec() -> RunSpec:
    return RunSpec(dataset="wikitalk-sim", kernel="pagerank")


def test_digest_is_pinned():
    assert _reference_spec().digest() == PINNED_SPEC_DIGEST


def test_run_request_digest_is_pinned():
    request = parse_request(
        "run", {"dataset": "wikitalk-sim", "kernel": "pagerank"}
    )
    assert request.digest() == PINNED_RUN_REQUEST_DIGEST


def test_digest_ignores_construction_order():
    a = RunSpec(dataset="wikitalk-sim", kernel="bfs", tier="tiny", seed=3)
    b = RunSpec(seed=3, tier="tiny", kernel="bfs", dataset="wikitalk-sim")
    assert a.digest() == b.digest()


def test_digest_default_vs_explicit_identical():
    """Spelling out the defaults must not change the digest."""
    implicit = _reference_spec()
    explicit = RunSpec(
        **{
            f.name: getattr(implicit, f.name)
            for f in fields(RunSpec)
        }
    )
    assert implicit.digest() == explicit.digest()


@pytest.mark.parametrize(
    "change",
    [
        {"dataset": "livejournal-sim"},
        {"kernel": "bfs"},
        {"tier": "tiny"},
        {"seed": 8},
        {"scale_shift": 1},
        {"partitions": 4},
        {"partitioner": "edge-balanced"},
        {"architecture": "host-dram"},
        {"max_iterations": 3},
        {"source": 3},
        {"policy": PolicySpec("adaptive")},
    ],
)
def test_digest_sensitive_to_every_field(change):
    assert replace(_reference_spec(), **change).digest() != PINNED_SPEC_DIGEST


def test_digest_is_hex_sha256():
    digest = _reference_spec().digest()
    assert len(digest) == 64
    int(digest, 16)  # raises if not hex


def test_request_digest_ignores_envelope():
    """Tenant and priority never change what work is being asked for."""
    base = {"dataset": "wikitalk-sim", "kernel": "pagerank"}
    plain = parse_request("run", base)
    enveloped = parse_request(
        "run", {**base, "tenant": "team-a", "priority": 9}
    )
    assert plain.digest() == enveloped.digest()


def test_compare_digest_normalizes_ignored_fields():
    """compare runs all architectures, so ``architecture`` is documented
    as ignored and must not split the coalescing key."""
    base = {"dataset": "wikitalk-sim", "kernel": "bfs"}
    a = parse_request("compare", base)
    b = parse_request("compare", {**base, "architecture": "host-dram"})
    assert a.digest() == b.digest()


def test_compare_digest_keeps_policy():
    """``policy`` changes the disaggregated-NDP row's accounting, so two
    compares differing only in policy must NOT coalesce."""
    base = {"dataset": "wikitalk-sim", "kernel": "bfs"}
    plain = parse_request("compare", base)
    adaptive = parse_request("compare", {**base, "policy": "adaptive"})
    assert plain.digest() != adaptive.digest()


def test_policy_spelling_variants_share_a_digest():
    """The wire string, the JSON mapping, and key-order variants all
    describe the same workload — one digest, one coalesced execution."""
    base = {"dataset": "wikitalk-sim", "kernel": "bfs"}
    as_string = parse_request(
        "run", {**base, "policy": "threshold:min_avg_degree=2.0"}
    )
    as_mapping = parse_request(
        "run",
        {
            **base,
            "policy": {
                "name": "threshold",
                "params": {"min_avg_degree": 2.0},
            },
        },
    )
    assert isinstance(as_string.spec.policy, PolicySpec)
    assert as_string.digest() == as_mapping.digest()


def test_kind_namespaces_the_digest():
    payload = {"dataset": "wikitalk-sim", "kernel": "pagerank"}
    run = parse_request("run", payload)
    compare = parse_request("compare", payload)
    assert run.digest() != compare.digest()


def test_sweep_digest_covers_tasks():
    task = {"dataset": "wikitalk-sim", "kernel": "pagerank", "partitions": 4}
    one = parse_request("sweep", {"tasks": [task]})
    two = parse_request("sweep", {"tasks": [task, task]})
    other = parse_request("sweep", {"tasks": [{**task, "partitions": 8}]})
    assert one.digest() != two.digest()
    assert one.digest() != other.digest()
