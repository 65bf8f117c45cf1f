"""Wire protocol of the serving daemon: JSON requests in, canonical JSON out.

A request is one JSON object describing a workload.  Three kinds exist,
mirroring the facade's workflows:

* ``run``     — one :class:`~repro.api.RunSpec` on one architecture;
* ``compare`` — all four architectures on one workload (Table II row);
* ``sweep``   — a list of sweep tasks executed through the sweep runner.

Every request carries optional ``tenant`` (admission-control identity,
default ``"default"``) and ``priority`` (0–9, higher first, default 5)
envelope fields; the remaining fields are the workload.

Responses are **canonical bytes**: sorted-key, compact-separator JSON.
This is what makes request coalescing exact — every request with the same
canonical digest receives the *same bytes*, whether it executed, attached
to an in-flight execution, or hit the result cache.  Per-request metadata
(coalesced? cache hit? queue time) therefore never rides in the body; the
HTTP layer carries it in ``X-Repro-*`` headers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.api import PolicySpec, RunSpec, _SPEC_FIELDS
from repro.cache.keys import canonical_key
from repro.errors import ConfigError
from repro.experiments.sweep import SweepOutcome, SweepTask

#: Request kinds the daemon accepts (the ``POST /v1/<kind>`` endpoints).
REQUEST_KINDS = ("run", "compare", "sweep")

#: Envelope fields accepted on every request kind.
_ENVELOPE_FIELDS = frozenset({"tenant", "priority"})

#: SweepTask fields a sweep request may set per task.
_TASK_FIELDS = frozenset(
    {"dataset", "kernel", "partitions", "tier", "seed", "max_iterations",
     "memory_budget_bytes", "policy"}
)

_SWEEP_FIELDS = frozenset({"tasks", "jobs"}) | _ENVELOPE_FIELDS


@dataclass(frozen=True)
class ServeRequest:
    """One parsed, validated analytics request."""

    kind: str
    tenant: str = "default"
    priority: int = 5
    #: workload for ``run``/``compare`` requests
    spec: Optional[RunSpec] = None
    #: workloads for ``sweep`` requests
    tasks: Tuple[SweepTask, ...] = ()
    #: worker processes a sweep request asks for (capped by the server)
    jobs: int = 1

    def digest(self) -> str:
        """Canonical digest — the coalescing and result-cache key.

        ``run``/``compare`` requests reduce to the spec's own canonical
        digest namespaced by kind; sweeps hash their full task list.  The
        envelope (tenant, priority) deliberately does **not** participate:
        two tenants asking for the same workload share one execution and
        one cached result.
        """
        if self.kind == "sweep":
            payload: Dict[str, Any] = {
                "tasks": [_task_payload(task) for task in self.tasks],
            }
        else:
            spec = self.spec
            if self.kind == "compare":
                # A comparison always covers all four architectures, so the
                # spec's architecture field is documented as ignored and
                # normalized out of the key — requests differing only there
                # dedup exactly.  ``policy`` stays: it changes the
                # disaggregated-NDP row's accounting.
                spec = replace(
                    spec,
                    architecture=RunSpec.__dataclass_fields__[
                        "architecture"
                    ].default,
                )
            payload = {"spec": spec.digest()}
        return canonical_key(f"serve-{self.kind}", payload)


def _task_payload(task: SweepTask) -> Dict[str, Any]:
    payload = {
        "dataset": task.dataset,
        "kernel": task.kernel,
        "partitions": task.partitions,
        "tier": task.tier,
        "seed": task.seed,
        "max_iterations": task.max_iterations,
        "memory_budget_bytes": task.memory_budget_bytes,
    }
    if task.policy is not None:
        # Absent when unset so pre-policy sweep digests stay stable.
        payload["policy"] = task.policy.to_json()
    return payload


def _parse_envelope(payload: Mapping[str, Any]) -> Tuple[str, int]:
    tenant = payload.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise ConfigError(f"tenant must be a non-empty string, got {tenant!r}")
    priority = payload.get("priority", 5)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ConfigError(f"priority must be an integer, got {priority!r}")
    if not 0 <= priority <= 9:
        raise ConfigError(f"priority must be in [0, 9], got {priority}")
    return tenant, priority


def parse_request(kind: str, payload: Any) -> ServeRequest:
    """Validate a decoded JSON body into a :class:`ServeRequest`.

    Unknown fields are rejected loudly (:class:`ConfigError`) — a typo'd
    knob silently ignored would serve the *wrong workload* while looking
    healthy.
    """
    if kind not in REQUEST_KINDS:
        raise ConfigError(
            f"unknown request kind {kind!r}; expected one of {REQUEST_KINDS}"
        )
    if not isinstance(payload, Mapping):
        raise ConfigError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    tenant, priority = _parse_envelope(payload)
    if kind == "sweep":
        unknown = set(payload) - _SWEEP_FIELDS
        if unknown:
            raise ConfigError(
                f"unknown sweep request field(s) {sorted(unknown)}; "
                f"valid fields: {sorted(_SWEEP_FIELDS)}"
            )
        raw_tasks = payload.get("tasks")
        if not isinstance(raw_tasks, Sequence) or isinstance(raw_tasks, (str, bytes)):
            raise ConfigError("sweep request needs a 'tasks' list")
        if not raw_tasks:
            raise ConfigError("sweep request needs at least one task")
        tasks = tuple(_parse_task(raw) for raw in raw_tasks)
        jobs = payload.get("jobs", 1)
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise ConfigError(f"jobs must be a positive integer, got {jobs!r}")
        return ServeRequest(
            kind=kind, tenant=tenant, priority=priority, tasks=tasks, jobs=jobs
        )
    spec_fields = {
        key: value
        for key, value in payload.items()
        if key not in _ENVELOPE_FIELDS
    }
    unknown = set(spec_fields) - _SPEC_FIELDS
    if unknown:
        raise ConfigError(
            f"unknown RunSpec field(s) {sorted(unknown)}; "
            f"valid fields: {sorted(_SPEC_FIELDS)}"
        )
    if spec_fields.get("policy") is not None:
        # Strings/objects are the wire format for policies; RunSpec itself
        # takes only typed specs and mappings, so convert here.
        spec_fields["policy"] = PolicySpec.parse(spec_fields["policy"])
    try:
        spec = RunSpec(**spec_fields)
    except TypeError as exc:
        raise ConfigError(f"invalid RunSpec payload: {exc}") from exc
    _validate_names(
        dataset=spec.dataset,
        kernel=spec.kernel,
        architecture=spec.architecture if kind == "run" else None,
    )
    return ServeRequest(kind=kind, tenant=tenant, priority=priority, spec=spec)


def _validate_names(
    *, dataset: str, kernel: str, architecture: Optional[str] = None
) -> None:
    """Reject unknown registry names at parse time (fast 400, not a 500)."""
    from repro.arch.registry import list_architectures
    from repro.graph.datasets import list_datasets
    from repro.kernels.registry import list_kernels

    if dataset not in list_datasets():
        raise ConfigError(
            f"unknown dataset {dataset!r}; expected one of {list_datasets()}"
        )
    if kernel not in list_kernels():
        raise ConfigError(
            f"unknown kernel {kernel!r}; expected one of {list_kernels()}"
        )
    if architecture is not None and architecture not in list_architectures():
        raise ConfigError(
            f"unknown architecture {architecture!r}; expected one of "
            f"{list_architectures()}"
        )


def _parse_task(raw: Any) -> SweepTask:
    if not isinstance(raw, Mapping):
        raise ConfigError(
            f"each sweep task must be a JSON object, got {type(raw).__name__}"
        )
    unknown = set(raw) - _TASK_FIELDS
    if unknown:
        raise ConfigError(
            f"unknown sweep task field(s) {sorted(unknown)}; "
            f"valid fields: {sorted(_TASK_FIELDS)}"
        )
    for required in ("dataset", "kernel", "partitions"):
        if required not in raw:
            raise ConfigError(f"sweep task missing required field {required!r}")
    _validate_names(dataset=raw["dataset"], kernel=raw["kernel"])
    data = dict(raw)
    if data.get("policy") is not None:
        data["policy"] = PolicySpec.parse(data["policy"])
    try:
        return SweepTask(**data)
    except TypeError as exc:
        raise ConfigError(f"invalid sweep task payload: {exc}") from exc


# --------------------------------------------------------------------------- #
# Canonical response payloads
# --------------------------------------------------------------------------- #


def canonical_bytes(payload: Mapping[str, Any]) -> bytes:
    """Render a payload as canonical JSON bytes (sorted keys, compact)."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
        + "\n"
    ).encode()


def result_sha256(values: np.ndarray) -> str:
    """sha256 of a kernel's result array — the bit-identity comparator."""
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def encode_run(spec: RunSpec, run) -> Dict[str, Any]:
    """Canonical payload for one completed ``run`` request."""
    return {
        "kind": "run",
        "spec_digest": spec.digest(),
        "architecture": run.architecture,
        "kernel": run.kernel,
        "graph": run.graph_name,
        "iterations": run.num_iterations,
        "converged": bool(run.converged),
        "total_host_link_bytes": int(run.total_host_link_bytes),
        "total_network_bytes": int(run.total_network_bytes),
        "modeled_seconds": float(run.total_seconds),
        "per_iteration_bytes": [int(b) for b in run.per_iteration_bytes()],
        "per_iteration_frontier": [int(f) for f in run.per_iteration_frontier()],
        "result_sha256": result_sha256(run.result_property()),
    }


def encode_compare(spec: RunSpec, comparison) -> Dict[str, Any]:
    """Canonical payload for one completed ``compare`` request."""
    rows = {}
    for row in comparison.rows:
        rows[row.architecture] = {
            "near_memory_acceleration": bool(row.near_memory_acceleration),
            "total_host_link_bytes": int(row.total_host_link_bytes),
            "total_sync_seconds": float(row.total_sync_seconds),
            "sync_participants": int(row.sync_participants),
            "iterations": int(row.run.num_iterations),
            "modeled_seconds": float(row.run.total_seconds),
        }
    return {
        "kind": "compare",
        "spec_digest": spec.digest(),
        "kernel": comparison.kernel,
        "graph": comparison.graph_name,
        "architectures": rows,
        "result_sha256": result_sha256(
            comparison.rows[0].run.result_property()
        ),
    }


def encode_sweep(outcomes: Sequence[SweepOutcome]) -> Dict[str, Any]:
    """Canonical payload for one completed ``sweep`` request."""
    workloads = {}
    for out in outcomes:
        entry: Dict[str, Any] = {
            "dataset": out.graph_name,
            "kernel": out.task.kernel,
            "partitions": out.task.partitions,
        }
        if out.ok:
            entry.update(
                iterations=out.num_iterations,
                fetch_bytes=int(out.total_fetch_bytes),
                offload_bytes=int(out.total_offload_bytes),
                result_sha256=out.result_sha256,
                ledger_sha256=out.ledger_sha256,
            )
        else:
            entry["error"] = out.error
        workloads[out.task.label] = entry
    return {"kind": "sweep", "workloads": workloads}


def error_payload(exc: Exception) -> Dict[str, Any]:
    """Typed error body: the exception's class name plus its message."""
    payload: Dict[str, Any] = {
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    retry = getattr(exc, "retry_after_s", None)
    if retry is not None:
        payload["error"]["retry_after_s"] = float(retry)
    tenant = getattr(exc, "tenant", None)
    if tenant is not None:
        payload["error"]["tenant"] = tenant
    return payload


# Re-exported for callers that want to enumerate spec fields (the CLI's
# request builder, the load generator's mix parser).
SPEC_FIELD_NAMES = tuple(sorted(f.name for f in fields(RunSpec)))
