"""Shared retry/backoff policy: capped exponential delays with jitter.

The sweep coordinator's task-requeue delay (``experiments/remote.py``),
``repro-worker``'s connect retry and the serving daemon's
``Retry-After`` hint in ``serve/admission.py`` all use this one
implementation.

The core primitive is :func:`exponential_delay`: attempt ``k`` waits
``min(cap, base * 2**k)`` seconds, optionally spread by deterministic
jitter.  Jitter is *seeded*, not wall-clock random, so two runs of the
same sweep produce the same retry schedule — determinism is a repo-wide
invariant and the backoff helper must not be the thing that breaks it.

:class:`BackoffPolicy` packages the parameters so they can be threaded
through call stacks (scheduler options, admission config) as one value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional


def exponential_delay(
    attempt: int,
    *,
    base: float = 0.25,
    cap: float = 8.0,
    jitter: float = 0.0,
    rng: Optional[random.Random] = None,
) -> float:
    """Delay in seconds before retry number ``attempt`` (0-based).

    ``min(cap, base * 2**attempt)``, plus up to ``jitter`` fraction of the
    computed delay when ``jitter > 0`` (requires ``rng`` so the spread is
    deterministic; the jittered value still respects ``cap``).
    """
    if attempt < 0:
        raise ValueError(f"attempt must be >= 0, got {attempt}")
    if base < 0.0 or cap < 0.0:
        raise ValueError(f"base/cap must be >= 0, got base={base} cap={cap}")
    if not 0.0 <= jitter <= 1.0:
        raise ValueError(f"jitter must be in [0, 1], got {jitter}")
    # 2**attempt overflows nothing (Python ints), but short-circuit huge
    # exponents so base * 2**1000 never materialises a bignum float error.
    if base > 0.0 and attempt < 64:
        delay = min(cap, base * (2.0 ** attempt))
    else:
        delay = cap if base > 0.0 else 0.0
    if jitter > 0.0 and delay > 0.0:
        if rng is None:
            raise ValueError("jitter requires an explicit rng for determinism")
        delay = min(cap, delay * (1.0 + jitter * rng.random()))
    return delay


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff parameters as one threadable value."""

    base_s: float = 0.25
    cap_s: float = 8.0
    jitter: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        # Reuse the validation in exponential_delay for attempt 0.
        exponential_delay(
            0,
            base=self.base_s,
            cap=self.cap_s,
            jitter=self.jitter,
            rng=random.Random(0) if self.jitter else None,
        )

    def delay(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (0-based), deterministic."""
        rng = None
        if self.jitter > 0.0:
            # Seed per attempt so delay(k) is a pure function of (policy, k)
            # regardless of call order — two supervisors retrying the same
            # task compute the same schedule.
            rng = random.Random(((self.seed or 0) << 32) ^ attempt)
        return exponential_delay(
            attempt,
            base=self.base_s,
            cap=self.cap_s,
            jitter=self.jitter,
            rng=rng,
        )

    def delays(self, retries: int) -> Iterator[float]:
        """The full schedule for ``retries`` retry rounds."""
        for attempt in range(retries):
            yield self.delay(attempt)


def retry_after_hint(
    streak: int, *, base: float = 1.0, cap: float = 8.0
) -> float:
    """Client-facing backoff hint that grows with consecutive rejections.

    Used by serve admission: the first shed suggests ``base`` seconds,
    and a sustained overload doubles the hint up to ``cap`` so clients
    spread out instead of hammering a full queue in lockstep.
    """
    return exponential_delay(max(0, streak - 1), base=base, cap=cap)
