"""Delivery policy: how hard the broker tries before giving a message up.

The paper positions WS-Messenger as a "scalable, reliable and efficient"
broker, but neither WS-Eventing nor WS-BaseNotification says anything about
*how* a producer should behave when a push fails — both leave it to
implementation QoS (the gap Table 3's QoS row shows the CORBA Notification
Service filling with 13 explicit properties).  :class:`DeliveryPolicy` is
this implementation's QoS knob set: attempt budget, exponential backoff with
deterministic seeded jitter, per-message TTL, and the circuit-breaker
thresholds the per-sink breakers are built from.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

from repro.util.rng import SeededRng


@dataclass(frozen=True)
class DeliveryPolicy:
    """Knobs for the reliable delivery pipeline (immutable, shareable)."""

    #: total tries per message, the first included; >= 1
    max_attempts: int = 8
    #: backoff before retry ``n`` is ``base_backoff * multiplier**(n-1)``…
    base_backoff: float = 0.25
    backoff_multiplier: float = 2.0
    #: …capped here (virtual seconds)
    max_backoff: float = 30.0
    #: backoff is scaled by ``1 + jitter * u`` with ``u`` uniform in
    #: ``[-1, 1)`` from the manager's seeded RNG — spread without wall clocks
    jitter: float = 0.2
    #: messages older than this (from enqueue, virtual seconds) are dead-
    #: lettered instead of retried; ``None`` = no expiry
    message_ttl: Optional[float] = None
    #: consecutive failures to one sink that trip its circuit breaker
    breaker_failure_threshold: int = 5
    #: how long a tripped breaker stays open before a half-open probe
    breaker_reset_after: float = 60.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff durations cannot be negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be a fraction in [0, 1)")
        if self.message_ttl is not None and self.message_ttl <= 0:
            raise ValueError("message_ttl must be positive (or None for no expiry)")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be at least 1")

    def backoff(self, failures: int, rng: SeededRng) -> float:
        """Delay before the next try after ``failures`` consecutive failures
        (1-based).  Exponential, capped, jittered from ``rng`` — the same
        seed always yields the same retry schedule."""
        if failures < 1:
            raise ValueError("backoff is defined after at least one failure")
        raw = self.base_backoff * self.backoff_multiplier ** (failures - 1)
        raw = min(raw, self.max_backoff)
        if self.jitter:
            raw *= 1.0 + self.jitter * rng.uniform(-1.0, 1.0)
        return raw


#: the direct policy, run when no DeliveryPolicy is configured: one attempt
#: per message, and a failed send ends the subscription (WSE DeliveryFailure,
#: WSN destroy) instead of dead-lettering.  The breaker never trips, so one
#: dead sink cannot fast-fail another subscription's first attempt.
BEST_EFFORT = DeliveryPolicy(
    max_attempts=1,
    base_backoff=0.0,
    jitter=0.0,
    breaker_failure_threshold=sys.maxsize,
)


@dataclass(frozen=True)
class BatchingPolicy:
    """Per-sink wire coalescing: notifications to the same consumer within
    the window ride one multi-``NotificationMessage`` Notify request.

    ``window`` is in virtual seconds.  ``window == 0`` coalesces only within
    a single publish (every matched subscriber of one event, flushed before
    ``publish`` returns); a positive window additionally holds partial
    batches on the clock scheduler, trading latency for fewer requests.
    ``max_batch`` bounds a single wire request regardless of window.
    """

    window: float = 0.0
    max_batch: int = 100
    #: flush held groups highest consumer QoS ``Priority`` first: under an
    #: adaptive (bounded/paced) delivery pipeline the flush order decides
    #: which consumers reach the queue before shedding starts
    priority_flush: bool = False

    def __post_init__(self) -> None:
        if self.window < 0:
            raise ValueError("window cannot be negative")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
