"""The delivery manager: the one pipeline every outbound send goes through.

Every notification and control message an :class:`~repro.wse.source.EventSource`
or :class:`~repro.wsn.producer.NotificationProducer` emits becomes a
:class:`DeliveryTask` on a per-sink FIFO queue here.  The
:class:`DeliveryPolicy` decides what a failed send means:

* the **direct policy** (:data:`~repro.delivery.policy.BEST_EFFORT`, what a
  broker, source or producer runs when no policy is configured) makes one
  attempt; a failure closes the task's obligations as ``failed`` and hands
  the error to the owner's ``on_failed`` callback, which ends the
  subscription (WSE ``DeliveryFailure``, WSN destroy) — nothing is retried,
  parked or dead-lettered;
* a **reliable policy** retries on the virtual clock with exponential
  backoff and deterministic seeded jitter, and a **circuit breaker** per
  sink fast-fails attempts to consumers that keep refusing, half-opening on
  a clock timer;
* under a reliable policy, :class:`~repro.transport.network.FirewallBlocked`
  triggers the store-and-forward fallback: the message parks in the sink's
  broker-side :class:`~repro.delivery.messagebox.MessageBox`, drained by
  pull from inside the firewall;
* exhausted attempt budgets and TTLs land in the :class:`DeadLetterQueue`,
  introspectable and replayable — never silently dropped.

The first attempt is always synchronous, so on a healthy network every
policy produces the same wire bytes at the same virtual instants.  Per-sink
queues are strictly ordered: a retrying head blocks the messages behind it
(head-of-line), which is what keeps redelivery in publish order.  Because
nothing here reads a wall clock or global RNG, a (scenario, seed) pair fully
determines every retry timestamp — the reliability benchmark asserts its
artifact is byte-identical across runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.delivery.breaker import BreakerState, CircuitBreaker
from repro.delivery.dlq import DeadLetterQueue
from repro.delivery.policy import BEST_EFFORT, DeliveryPolicy
from repro.delivery.task import DeliveryItem, DeliveryTask, TaskStatus
from repro.obs.instrument import BoundCounters
from repro.transport.clock import ClockScheduler
from repro.transport.network import FirewallBlocked, NetworkError, SimulatedNetwork
from repro.util.rng import SeededRng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.delivery.messagebox import MessageBoxRegistry
    from repro.qos.adaptive import AdaptiveQosController
    from repro.store.core import BrokerStore

from repro.soap.fault import SoapFault


@dataclass
class DeliveryStats:
    """Aggregate pipeline accounting (virtual-clock deterministic)."""

    submitted: int = 0
    #: submissions carrying more than one coalesced notification (delivery
    #: batching or WSE wrapped batches) — each saved at least one request
    batched: int = 0
    delivered: int = 0
    attempts: int = 0
    retries: int = 0
    failed_attempts: int = 0
    parked: int = 0
    dead_lettered: int = 0
    replayed: int = 0
    expired: int = 0
    breaker_fast_fails: int = 0
    #: messages dropped by the adaptive QoS layer (bounded queues, box
    #: overflow) — every one also closed its obligation as ``shed``
    shed: int = 0
    #: attempts deferred because a token bucket was empty (load leveling)
    throttled: int = 0

    def snapshot(self) -> dict:
        return {
            "submitted": self.submitted,
            "batched": self.batched,
            "delivered": self.delivered,
            "attempts": self.attempts,
            "retries": self.retries,
            "failed_attempts": self.failed_attempts,
            "parked": self.parked,
            "dead_lettered": self.dead_lettered,
            "replayed": self.replayed,
            "expired": self.expired,
            "breaker_fast_fails": self.breaker_fast_fails,
            "shed": self.shed,
            "throttled": self.throttled,
        }


class DeliveryManager:
    """Reliable delivery pipeline over one simulated network."""

    def __init__(
        self,
        network: SimulatedNetwork,
        *,
        policy: Optional[DeliveryPolicy] = None,
        seed: int = 0,
        message_boxes: Optional["MessageBoxRegistry"] = None,
        qos: Optional["AdaptiveQosController"] = None,
    ) -> None:
        self.network = network
        self.clock = network.clock
        self.policy = policy or DeliveryPolicy()
        #: the one place the policy's failure semantics are decided: the
        #: direct policy fails a task (its owner ends the subscription)
        #: where a reliable policy retries, parks or dead-letters it
        self._direct = self.policy == BEST_EFFORT
        self.scheduler = ClockScheduler(self.clock)
        #: jitter stream — forked per use-site label so unrelated draws
        #: cannot perturb each other's sequences
        self.rng = SeededRng(seed).fork("delivery.backoff")
        self.dlq = DeadLetterQueue()
        self.message_boxes = message_boxes
        #: adaptive QoS controller: bounded queues, DiscardPolicy shedding
        #: and token-bucket pacing (None = the historical unbounded pipeline)
        self.qos = qos
        self.stats = DeliveryStats()
        #: called with the aggregate pending count whenever it may have
        #: moved (submits, drains, gauge sweeps) — the WSN broker hangs its
        #: lag-driven demand pause/resume here
        self.backlog_listeners: list[Callable[[int], None]] = []
        #: durable broker store (set by BrokerStore.attach): stamps items
        #: with idempotency keys, records outcomes, and routes replayed
        #: submissions past obligations the log already settled
        self.store: Optional["BrokerStore"] = None
        self._queues: dict[str, deque[DeliveryTask]] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._wakeups: dict[str, float] = {}
        #: pre-bound per-family counters/histograms for the attempt loop
        self._bound_counters = BoundCounters()
        self._lag_instr = None
        self._lag_histograms: dict[str, object] = {}

    # --- intake ------------------------------------------------------------

    def submit(
        self,
        sink: str,
        send: Callable[[], None],
        *,
        items: Optional[list[DeliveryItem]] = None,
        family: str = "",
        describe: str = "",
        priority: int = 0,
        on_delivered: Optional[Callable[[DeliveryTask], None]] = None,
        on_dead: Optional[Callable[[DeliveryTask, str], None]] = None,
        on_failed: Optional[Callable[[DeliveryTask, Exception], None]] = None,
    ) -> DeliveryTask:
        """Queue one message for ``sink``; attempts immediately when the
        sink's queue is empty (the healthy-network fast path).

        ``on_failed`` runs only under the direct policy, with the error of
        the task's single failed attempt; ``on_dead`` runs when a reliable
        policy dead-letters or sheds the task."""
        instr = self.network.instrumentation
        item_list = items if items is not None else []
        if self.store is not None:
            item_list = self.store.stamp_items(item_list)
        lineage = None
        if instr.enabled:
            for item in item_list:
                if item.lineage is not None:
                    lineage = item.lineage
                    break
            else:
                # itemless control traffic still resumes under the span that
                # submitted it (e.g. a SubscriptionEnd inside a publish)
                lineage = instr.trace_context()
        task = DeliveryTask(
            sink,
            send,
            item_list,
            family,
            describe,
            lineage,
            self.clock.now(),
            priority,
            on_delivered=on_delivered,
            on_dead=on_dead,
            on_failed=on_failed,
        )
        if self.store is not None and self.store.replaying:
            resolution = self.store.resolve_replay(task)
            if resolution is not None:
                return self._apply_replay_resolution(task, resolution)
        stats = self.stats
        stats.submitted += 1
        if len(item_list) > 1:
            stats.batched += 1
        if instr.enabled:
            submitted_counter = self._bound_counters.probe(
                instr, "submitted:" + family
            )
            if submitted_counter is None:
                submitted_counter = self._bound_counters.get(
                    instr, "submitted:" + family, "delivery.submitted",
                    family=family,
                )
            submitted_counter.inc()
            self._record_items(task, "enqueued", sink=sink, family=family)
        self._enqueue(task)
        if self.backlog_listeners:
            self._notify_backlog()
        return task

    def resubmit(self, task: DeliveryTask) -> DeliveryTask:
        """Re-queue a (dead-lettered) task with a fresh budget and TTL."""
        task.attempts = 0
        task.status = TaskStatus.QUEUED
        task.last_error = None
        task.delivered_at = None
        task.enqueued_at = self.clock.now()
        self.stats.replayed += 1
        self.network.instrumentation.count("delivery.replayed", family=task.family)
        self._record_items(task, "replayed", sink=task.sink)
        if self.store is not None:
            self.store.task_replayed(task)
        self._enqueue(task)
        return task

    def _apply_replay_resolution(
        self, task: DeliveryTask, resolution: tuple[str, str]
    ) -> DeliveryTask:
        """Settle a replayed submission the log already accounts for.

        No lineage events and no manager stats: the pre-crash ledger
        entries for these obligations still stand — emitting fresh ones
        would double the books the conservation audit balances."""
        verdict, reason = resolution
        store = self.store
        assert store is not None
        if verdict == "park":
            assert self.message_boxes is not None
            box = self.message_boxes.box_for(task.sink)
            owed = store.replay_park_items(task)
            for item in owed:
                box.park(item)
            task.status = TaskStatus.PARKED
            store.stats.reparked += len(owed)
        elif verdict == "dead":
            task.status = TaskStatus.DEAD
            task.last_error = reason
            self.dlq.add(task, reason, self.clock.now())
            store.stats.redead += 1
        else:  # "suppress": every item already delivered or drained
            task.status = TaskStatus.DELIVERED
            store.stats.suppressed += 1
        return task

    def _record_items(self, task: DeliveryTask, state: str, **detail) -> None:
        """Ledger one transition for every lineage-bearing item of a task."""
        self._record_item_subset(task.items, state, **detail)

    def _record_item_subset(self, items, state: str, **detail) -> None:
        instr = self.network.instrumentation
        if not instr.enabled:
            return
        for item in items:
            if item.lineage is not None:
                instr.lineage_event(item.lineage.lineage_id, state, **detail)

    def _enqueue(self, task: DeliveryTask) -> None:
        queue = self._queues.get(task.sink)
        if queue is None:
            queue = self._queues[task.sink] = deque()
        if self.qos is not None:
            admit, victims = self.qos.plan_admission(task.sink, queue, task)
            for victim in victims:
                queue.remove(victim)
                self._shed(victim, "queue_full")
            if not admit:
                self._shed(task, "queue_full")
                return
        queue.append(task)
        # drain now unless the head is already waiting on a scheduled retry
        # (len > 1 with no wakeup means we are inside this sink's drain loop)
        if task.sink not in self._wakeups and len(queue) == 1:
            self._drain_sink(task.sink)

    # --- the pump ----------------------------------------------------------

    def pending(self) -> int:
        """Messages still queued (excludes delivered/parked/dead)."""
        return sum(len(queue) for queue in self._queues.values())

    def next_due(self) -> Optional[float]:
        return self.scheduler.next_due()

    def run_due(self) -> int:
        """Run retries whose deadline has passed (clock advanced elsewhere)."""
        ran = self.scheduler.run_due()
        self.publish_gauges()
        self._notify_backlog()
        return ran

    def run_until_idle(self, *, deadline: Optional[float] = None) -> int:
        """Fast-forward the clock through every scheduled retry."""
        ran = self.scheduler.run_until_idle(deadline=deadline)
        self.publish_gauges()
        self._notify_backlog()
        return ran

    # --- internals ---------------------------------------------------------

    def _breaker_for(self, sink: str) -> CircuitBreaker:
        breaker = self._breakers.get(sink)
        if breaker is None:
            breaker = self._breakers[sink] = CircuitBreaker(
                self.clock,
                failure_threshold=self.policy.breaker_failure_threshold,
                reset_after=self.policy.breaker_reset_after,
            )
        return breaker

    def _wake_at(self, sink: str, when: float) -> None:
        existing = self._wakeups.get(sink)
        if existing is not None and existing <= when:
            return
        self._wakeups[sink] = when
        self.scheduler.call_at(when, lambda: self._on_wake(sink, when))

    def _on_wake(self, sink: str, when: float) -> None:
        if self._wakeups.get(sink) != when:
            return  # superseded by an earlier wake-up
        del self._wakeups[sink]
        self._drain_sink(sink)
        self._notify_backlog()

    def _breaker_moved(self, instr, sink: str, before, after) -> None:
        """Record one breaker state transition (metric + flight record)."""
        if after is before or not instr.enabled:
            return
        instr.count(
            "delivery.breaker_transitions", sink=sink, state=after.value
        )
        flight = instr.flight
        if flight.enabled:
            flight.record(
                "breaker", sink=sink, previous=before.value, state=after.value
            )

    def _parkable(self, task: DeliveryTask) -> bool:
        return self.message_boxes is not None and bool(task.items)

    def _park(self, task: DeliveryTask) -> None:
        assert self.message_boxes is not None
        box = self.message_boxes.box_for(task.sink)
        parked: list[DeliveryItem] = []
        dropped: list[DeliveryItem] = []
        for item in task.items:
            (parked if box.park(item) else dropped).append(item)
        task.status = TaskStatus.PARKED if parked else TaskStatus.SHED
        instr = self.network.instrumentation
        if parked:
            self.stats.parked += len(parked)
            instr.count("delivery.parked", len(parked), family=task.family)
            flight = instr.flight
            if flight.enabled:
                flight.record(
                    "delivery", sink=task.sink, family=task.family,
                    outcome="parked", items=len(parked),
                )
            self._record_item_subset(
                parked, "pending_pull", sink=task.sink, box=box.address
            )
        if dropped:
            # box overflow: the item never reaches the box, so its
            # obligation must close here (``shed``) or the conservation
            # audit would find messages silently lost under overload
            self.stats.shed += len(dropped)
            instr.count(
                "qos.shed_total", len(dropped),
                family=task.family, reason="box_overflow",
            )
            flight = instr.flight
            if flight.enabled:
                flight.record(
                    "delivery", sink=task.sink, family=task.family,
                    outcome="shed", reason="box_overflow", items=len(dropped),
                )
            self._record_item_subset(
                dropped, "shed", sink=task.sink, reason="box_overflow"
            )
        if self.store is not None:
            if parked:
                self.store.items_parked(task, parked)
            if dropped:
                self.store.items_shed(task, dropped, "box_overflow")

    def _notify_backlog(self) -> None:
        if not self.backlog_listeners:
            return
        pending = self.pending()
        for listener in self.backlog_listeners:
            listener(pending)

    def _shed(self, task: DeliveryTask, reason: str) -> None:
        """Drop one task by QoS decision, with its books kept straight:
        every item's obligation closes as ``shed`` and the drop is counted
        — graceful degradation must never be silent loss."""
        task.status = TaskStatus.SHED
        task.last_error = reason
        self.stats.shed += len(task.items)
        instr = self.network.instrumentation
        instr.count(
            "qos.shed_total", len(task.items) or 1,
            family=task.family, reason=reason,
        )
        flight = instr.flight
        if flight.enabled:
            flight.record(
                "delivery", sink=task.sink, family=task.family,
                outcome="shed", reason=reason, items=len(task.items),
            )
        self._record_items(task, "shed", sink=task.sink, reason=reason)
        if self.store is not None:
            self.store.items_shed(task, task.items, reason)
        if task.on_dead is not None:
            task.on_dead(task, f"shed:{reason}")

    def _dead_letter(self, task: DeliveryTask, reason: str) -> None:
        task.status = TaskStatus.DEAD
        self.dlq.add(task, reason, self.clock.now())
        self.stats.dead_lettered += 1
        instr = self.network.instrumentation
        instr.count("delivery.dead_lettered", family=task.family, reason=reason)
        flight = instr.flight
        if flight.enabled:
            flight.record(
                "delivery", sink=task.sink, family=task.family,
                outcome="dead_lettered", reason=reason,
            )
        self._record_items(task, "dead_lettered", sink=task.sink, reason=reason)
        if self.store is not None:
            self.store.task_dead(task, reason)
        if task.on_dead is not None:
            task.on_dead(task, reason)

    def _drain_sink(self, sink: str) -> None:
        """Work the sink's queue head until empty or forced to wait."""
        instr = self.network.instrumentation
        queues = self._queues
        ttl = self.policy.message_ttl
        while True:
            queue = queues.get(sink)
            if not queue:
                queues.pop(sink, None)
                return
            task = queue[0]
            if ttl is not None and self.clock.now() - task.enqueued_at >= ttl:
                queue.popleft()
                self.stats.expired += 1
                self._dead_letter(task, "ttl_expired")
                continue
            breaker = self._breakers.get(sink)
            if breaker is None:
                breaker = self._breaker_for(sink)
            if breaker.state is not BreakerState.CLOSED:
                state_before = breaker.state
                allowed = breaker.allows()
                self._breaker_moved(instr, sink, state_before, breaker.state)
                if not allowed:
                    # known-firewalled sinks store-and-forward straight away
                    if self.message_boxes is not None and self.message_boxes.get(
                        sink
                    ) is not None and task.items:
                        queue.popleft()
                        self._park(task)
                        continue
                    self.stats.breaker_fast_fails += 1
                    instr.count("delivery.breaker_fast_fails", family=task.family)
                    self._wake_at(sink, breaker.retry_at())
                    return
            if self.qos is not None:
                ready_at = self.qos.attempt_delay(sink)
                if ready_at is not None:
                    # out of tokens: the queue holds the message and the
                    # wire stays quiet until the bucket refills
                    self.stats.throttled += 1
                    instr.count("qos.throttled_total", family=task.family)
                    self._wake_at(sink, ready_at)
                    return
            task.attempts += 1
            self.stats.attempts += 1
            if task.attempts > 1:
                self.stats.retries += 1
            try:
                if instr.enabled:
                    self._count_attempt(instr, task)
                    # resume the message's trace: a scheduler-fired retry has
                    # an empty span stack, so ``remote=`` re-parents this
                    # attempt (and the wire injection inside the thunk) under
                    # the span that enqueued the task
                    with instr.span(
                        "delivery.attempt",
                        remote=task.lineage,
                        sink=sink,
                        family=task.family,
                        attempt=str(task.attempts),
                    ):
                        task.send()
                else:
                    task.send()
            except (NetworkError, SoapFault) as exc:
                if self._attempt_failed(queue, task, breaker, exc):
                    continue
                return
            except Exception:
                # not a delivery outcome (e.g. a bug in a consumer handler):
                # the error reaches the publisher, and the task leaves the
                # queue so later sends to this sink are not stuck behind it
                queue.popleft()
                if queue:
                    self._wake_at(sink, self.clock.now())
                raise
            # success (the send itself advanced the clock by the RTT)
            if (
                breaker.consecutive_failures
                or breaker.state is not BreakerState.CLOSED
            ):
                state_before = breaker.state
                breaker.record_success()
                self._breaker_moved(instr, sink, state_before, breaker.state)
            task.status = TaskStatus.DELIVERED
            task.delivered_at = self.clock.now()
            queue.popleft()
            self.stats.delivered += 1
            if instr.enabled:
                self._count_delivered(instr, task)
            if self.store is not None:
                self.store.task_delivered(task)
            if task.on_delivered is not None:
                task.on_delivered(task)

    def _count_attempt(self, instr, task: DeliveryTask) -> None:
        bound = self._bound_counters
        attempts_counter = bound.probe(instr, "attempts:" + task.family)
        if attempts_counter is None:
            attempts_counter = bound.get(
                instr, "attempts:" + task.family, "delivery.attempts",
                family=task.family,
            )
        attempts_counter.inc()
        if task.attempts > 1:
            bound.get(
                instr, "retries:" + task.family, "delivery.retries",
                family=task.family,
            ).inc()
        self._record_items(task, "attempted", n=task.attempts, sink=task.sink)

    def _count_delivered(self, instr, task: DeliveryTask) -> None:
        delivered_counter = self._bound_counters.probe(
            instr, "delivered:" + task.family
        )
        if delivered_counter is None:
            delivered_counter = self._bound_counters.get(
                instr, "delivered:" + task.family, "delivery.delivered",
                family=task.family,
            )
        delivered_counter.inc()
        if instr is not self._lag_instr:
            self._lag_instr = instr
            self._lag_histograms = {}
        lag_histogram = self._lag_histograms.get(task.family)
        if lag_histogram is None:
            lag_histogram = self._lag_histograms[task.family] = (
                instr.histogram_handle(
                    "delivery.queue_lag_seconds", family=task.family
                )
            )
        lag_histogram.observe(task.delivered_at - task.enqueued_at)
        flight = instr.flight
        if flight.enabled:
            flight.record(
                "delivery", sink=task.sink, family=task.family,
                outcome="delivered", attempt=task.attempts,
                items=len(task.items),
            )
        for item in task.items:
            if item.lineage is not None:
                instr.lineage_delivered(
                    item.lineage.lineage_id,
                    family=task.family,
                    hops=item.lineage.hop + 1,
                    sink=task.sink,
                )

    def _attempt_failed(
        self,
        queue: deque,
        task: DeliveryTask,
        breaker: CircuitBreaker,
        exc: Exception,
    ) -> bool:
        """Settle one failed attempt; True when the queue head moved on (the
        drain continues), False when the sink must wait for a retry."""
        instr = self.network.instrumentation
        task.last_error = f"{type(exc).__name__}: {exc}"
        state_before = breaker.state
        breaker.record_failure()
        self._breaker_moved(instr, task.sink, state_before, breaker.state)
        self.stats.failed_attempts += 1
        if self._direct:
            queue.popleft()
            self._fail(task, exc)
            return True
        instr.count(
            "delivery.failed_total",
            family=task.family,
            stage="attempt",
            kind=type(exc).__name__,
        )
        flight = instr.flight
        if flight.enabled:
            flight.record(
                "delivery", sink=task.sink, family=task.family,
                outcome="failed_attempt", attempt=task.attempts,
                error=type(exc).__name__,
            )
        if isinstance(exc, FirewallBlocked) and self._parkable(task):
            queue.popleft()
            self._park(task)
            return True
        if task.attempts >= self.policy.max_attempts:
            queue.popleft()
            self._dead_letter(task, "max_attempts")
            return True
        delay = self.policy.backoff(task.attempts, self.rng)
        self._wake_at(
            task.sink, max(self.clock.now() + delay, breaker.retry_at())
        )
        return False

    def _fail(self, task: DeliveryTask, exc: Exception) -> None:
        """The direct policy's terminal failure: every obligation closes as
        ``failed`` and the owner's ``on_failed`` records the failure (with
        its own stage label) and ends the subscription."""
        task.status = TaskStatus.FAILED
        self._record_items(
            task, "failed", sink=task.sink, reason=type(exc).__name__
        )
        if self.store is not None:
            self.store.task_dead(task, "failed")
        if task.on_failed is not None:
            task.on_failed(task, exc)

    # --- introspection -----------------------------------------------------

    def open_breakers(self) -> list[str]:
        return sorted(
            sink
            for sink, breaker in self._breakers.items()
            if breaker.state is not BreakerState.CLOSED
        )

    def breaker_state(self, sink: str) -> str:
        breaker = self._breakers.get(sink)
        return breaker.state.value if breaker else BreakerState.CLOSED.value

    def publish_gauges(self) -> None:
        """Point-in-time pipeline depth gauges for the obs layer."""
        instr = self.network.instrumentation
        if not instr.enabled:
            return
        instr.gauge("delivery.pending", self.pending())
        instr.gauge("delivery.dlq_depth", len(self.dlq))
        instr.gauge(
            "delivery.parked_pending",
            self.message_boxes.total_parked() if self.message_boxes else 0,
        )
        instr.gauge("delivery.breakers_open", len(self.open_breakers()))
        if self.qos is not None:
            instr.gauge("qos.shed_messages", self.stats.shed)
            instr.gauge("qos.throttled_attempts", self.stats.throttled)

    def snapshot(self) -> dict:
        """Deterministic pipeline state for reports and tests."""
        return {
            "stats": self.stats.snapshot(),
            "pending_by_sink": {
                sink: len(queue)
                for sink, queue in sorted(self._queues.items())
                if queue
            },
            "breakers": {
                sink: breaker.snapshot()
                for sink, breaker in sorted(self._breakers.items())
            },
            "dlq": self.dlq.snapshot(),
            "message_boxes": (
                self.message_boxes.snapshot() if self.message_boxes else []
            ),
        }
