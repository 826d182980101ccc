"""Per-sink delivery batching: coalesce same-sink notifications in a window.

At high fan-out the wire request — framing, transport round-trip, receiver
parse — dominates per-notification cost.  WSN's ``Notify`` natively carries
multiple ``NotificationMessage`` elements, so notifications bound for the
same consumer EPR can legally ride one request.  :class:`DeliveryBatcher`
implements the coalescing half of that bargain, policy-driven by
:class:`~repro.delivery.policy.BatchingPolicy`:

* entries accumulate per **group key** (the caller supplies it — the WSN
  producer keys on sink signature + notification shape so every group can
  render through a single envelope byte-template);
* a group flushes when it reaches ``max_batch``, when its virtual-clock
  window expires (``window > 0``, scheduled on the delivery manager's
  :class:`~repro.transport.clock.ClockScheduler`, so the same
  ``run_due``/``run_until_idle`` pump that runs retries fires windows), or
  when the owner flushes explicitly (``window == 0`` flushes at the end of
  each publish);
* what "flush" means — one delivery-manager submission — belongs to the
  owner's callback; the batcher only decides *when*.

Determinism: windows live on the virtual clock and groups preserve
insertion order, so a (scenario, seed) pair fully determines batch
boundaries, like every other schedule in the pipeline.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable

from repro.delivery.policy import BatchingPolicy
from repro.transport.clock import ClockScheduler, VirtualClock


@dataclass
class BatcherStats:
    """Coalescing accounting (virtual-clock deterministic)."""

    flushes: int = 0
    coalesced: int = 0
    largest_batch: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "flushes": self.flushes,
            "coalesced": self.coalesced,
            "largest_batch": self.largest_batch,
        }


class DeliveryBatcher:
    """Groups entries per key and flushes them on size/window/demand."""

    def __init__(
        self,
        clock: VirtualClock,
        policy: BatchingPolicy,
        flush: Callable[[Hashable, list], None],
        *,
        scheduler: ClockScheduler,
        instrumentation=None,
        family: str = "",
    ) -> None:
        self.clock = clock
        self.policy = policy
        self._flush_group = flush
        #: the delivery manager's scheduler: window expiry is driven by the
        #: same run_due/run_until_idle pump as retries
        self.scheduler = scheduler
        self._instr = instrumentation
        self._family = family
        self._pending: "OrderedDict[Hashable, list]" = OrderedDict()
        self._deadlines: dict[Hashable, float] = {}
        #: per-group QoS priority (highest entry wins), for priority_flush
        self._priorities: dict[Hashable, int] = {}
        self.stats = BatcherStats()

    def add(self, key: Hashable, entry, *, priority: int = 0) -> None:
        """Queue one entry; may flush its group immediately (size trigger)."""
        group = self._pending.get(key)
        if group is None:
            group = self._pending[key] = []
            if self.policy.window > 0:
                when = self.clock.now() + self.policy.window
                self._deadlines[key] = when
                self.scheduler.call_at(when, lambda: self._on_deadline(key, when))
        if priority and priority > self._priorities.get(key, 0):
            self._priorities[key] = priority
        group.append(entry)
        if len(group) >= self.policy.max_batch:
            self._flush_key(key)

    def _on_deadline(self, key: Hashable, when: float) -> None:
        if self._deadlines.get(key) != when:
            return  # group already flushed (size/explicit); stale timer
        self._flush_key(key)

    def _flush_key(self, key: Hashable) -> None:
        entries = self._pending.pop(key, None)
        self._deadlines.pop(key, None)
        self._priorities.pop(key, None)
        if not entries:
            return
        n = len(entries)
        self.stats.flushes += 1
        self.stats.coalesced += n
        if n > self.stats.largest_batch:
            self.stats.largest_batch = n
        if self._instr is not None:
            self._instr.count("delivery.batched_total", n, family=self._family)
            flight = self._instr.flight
            if flight.enabled:
                flight.record(
                    "batch_flush", family=self._family, size=n,
                    still_pending=len(self._pending),
                )
        self._flush_group(key, entries)

    def flush_publish(self) -> None:
        """End-of-publish hook: with no window, nothing may stay queued past
        the publish that produced it."""
        if self.policy.window <= 0:
            self.flush_all()

    def flush_all(self) -> None:
        """Flush every group now (explicit drain, e.g. broker ``flush()``).

        With ``priority_flush``, groups leave highest-priority first (the
        sort is stable, so equal priorities keep insertion order); the
        default remains pure insertion order."""
        keys = list(self._pending)
        if self.policy.priority_flush and self._priorities:
            keys.sort(key=lambda key: -self._priorities.get(key, 0))
        for key in keys:
            self._flush_key(key)

    def pending(self) -> int:
        """Entries currently held back waiting for size or window."""
        return sum(len(group) for group in self._pending.values())

    def stale_deadlines(self) -> int:
        """Groups whose window deadline has passed but still hold entries.

        A non-zero value after the scheduler pump has drained everything due
        means a window timer was lost or never pumped — the ``obs-health``
        stale-batch-timer anomaly."""
        now = self.clock.now()
        return sum(
            1
            for key, when in self._deadlines.items()
            if when < now and key in self._pending
        )
