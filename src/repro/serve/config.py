"""Configuration for the analytics serving daemon.

One frozen value object holds every tuning knob the daemon exposes —
socket placement, worker count, admission limits, pool and cache budgets —
so a server's behaviour is fully described by one picklable record and the
CLI maps one flag onto one field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError

#: Default TCP port ("GR" + "APH" would not fit; 8577 spells nothing but
#: collides with nothing either).
DEFAULT_PORT = 8577


@dataclass(frozen=True, kw_only=True)
class ServeConfig:
    """Frozen description of one serving daemon instance."""

    #: bind address; the daemon is a localhost front door by design —
    #: fronting proxies own the wide-area story.
    host: str = "127.0.0.1"
    #: TCP port; 0 asks the OS for an ephemeral port (read it back from
    #: ``AnalyticsServer.port`` or the ``--ready-file``).
    port: int = DEFAULT_PORT
    #: executor worker threads — the daemon's maximum execution parallelism.
    workers: int = 2
    #: admitted requests allowed to wait for a worker; past this, new
    #: requests are shed with a typed ``Overloaded`` error.
    max_queue_depth: int = 64
    #: byte budget for the shared graph pool (None = unbounded); unpinned
    #: graphs are evicted LRU-first once the budget is exceeded.
    pool_max_bytes: Optional[int] = 1 << 30
    #: attach identical concurrent requests to one in-flight execution.
    coalesce: bool = True
    #: answer repeat requests from the content-addressed result cache.
    result_cache: bool = True
    #: in-memory result-cache entries kept (LRU).
    result_cache_entries: int = 256
    #: per-tenant sustained request rate (requests/second; None = unlimited).
    tenant_rate: Optional[float] = None
    #: per-tenant token-bucket burst size.
    tenant_burst: int = 16
    #: per-tenant cap on queued+executing requests (None = unlimited).
    tenant_max_inflight: Optional[int] = 16
    #: per-request execution wall-clock budget (None = unlimited).
    request_timeout_s: Optional[float] = None
    #: how long a graceful shutdown waits for in-flight work to drain.
    drain_timeout_s: float = 30.0
    #: largest accepted request body.
    max_body_bytes: int = 1 << 20
    #: cap on ``jobs`` a sweep request may ask for (sweeps fan out over
    #: that many forked sweep workers).
    sweep_jobs_cap: int = 2
    #: allow ``POST /v1/shutdown`` to stop the daemon (handy for CI and
    #: tests; the daemon only listens on localhost anyway).
    allow_remote_shutdown: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.max_queue_depth < 1:
            raise ConfigError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.port < 0 or self.port > 65535:
            raise ConfigError(f"port must be in [0, 65535], got {self.port}")
        if self.pool_max_bytes is not None and self.pool_max_bytes < 0:
            raise ConfigError(
                f"pool_max_bytes must be >= 0, got {self.pool_max_bytes}"
            )
        if self.tenant_rate is not None and self.tenant_rate <= 0:
            raise ConfigError(
                f"tenant_rate must be positive, got {self.tenant_rate}"
            )
        if self.tenant_burst < 1:
            raise ConfigError(
                f"tenant_burst must be >= 1, got {self.tenant_burst}"
            )
        if self.tenant_max_inflight is not None and self.tenant_max_inflight < 1:
            raise ConfigError(
                "tenant_max_inflight must be >= 1, got "
                f"{self.tenant_max_inflight}"
            )
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ConfigError(
                f"request_timeout_s must be positive, got {self.request_timeout_s}"
            )
        if self.drain_timeout_s < 0:
            raise ConfigError(
                f"drain_timeout_s must be >= 0, got {self.drain_timeout_s}"
            )
        if self.sweep_jobs_cap < 1:
            raise ConfigError(
                f"sweep_jobs_cap must be >= 1, got {self.sweep_jobs_cap}"
            )
        if self.result_cache_entries < 1:
            raise ConfigError(
                "result_cache_entries must be >= 1, got "
                f"{self.result_cache_entries}"
            )
