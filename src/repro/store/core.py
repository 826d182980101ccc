"""The broker store: one append-only log as the broker's source of truth.

:class:`BrokerStore` sits between a :class:`~repro.messenger.WsMessenger`
and an event log (:mod:`repro.store.log`).  Attached to a live broker it
*records*: the front door appends a :class:`SubscribeRecorded` per granted
subscription, lifecycle listeners append renew/remove/pause/pull records,
``publish`` appends its outbox entry before fan-out, and the delivery
manager appends an :class:`OutcomeRecorded` per settled obligation.

The same object *projects*: rebuilt over an existing log (see
:mod:`repro.store.recovery`), its ``(message_id, sink)`` settlement index
tells the delivery manager which replayed obligations are already
delivered (suppress), parked (re-park without re-attempting), or dead
(restore to the DLQ) — which is what makes crash-replay exactly-once.

Crash model: a record append and the wire exchange it describes are
atomic in the simulation; crash points fall *between* operations, never
inside one.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from repro.store.log import MemoryEventLog
from repro.store.records import (
    OutcomeRecorded,
    PauseRecorded,
    PublishRecorded,
    PullDrainRecorded,
    RemoveRecorded,
    RenewRecorded,
    SubscribeRecorded,
)
from repro.xmlkit.writer import serialize_xml

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.delivery.task import DeliveryItem, DeliveryTask
    from repro.messenger.broker import WsMessenger

#: outcomes after which a (message_id, sink) obligation needs no further work
TERMINAL_OUTCOMES = frozenset({"delivered", "dead", "drained"})


@dataclass
class StoreStats:
    """Append/replay accounting (virtual-clock deterministic)."""

    appends: int = 0
    publishes: int = 0
    outcomes: int = 0
    #: replayed tasks skipped because the log had already settled them
    suppressed: int = 0
    #: replayed items re-parked into message boxes without a wire attempt
    reparked: int = 0
    #: replayed tasks restored straight to the dead-letter queue
    redead: int = 0
    replayed_publishes: int = 0
    recovered_subscriptions: int = 0
    #: pre-crash in-flight obligations closed as failed during recovery
    crash_failures: int = 0

    def snapshot(self) -> dict:
        return dataclasses.asdict(self)


class BrokerStore:
    """Event-sourced state for one broker over one append-only log."""

    def __init__(self, log=None) -> None:
        self.log = log if log is not None else MemoryEventLog()
        self.stats = StoreStats()
        #: True while recovery replays the log: lifecycle and publish
        #: recording is muted (the log already has those records), while
        #: genuinely new delivery outcomes still append
        self.replaying = False
        self.broker: Optional["WsMessenger"] = None
        self.clock = None
        self._message_serial = 0
        #: settled obligations: (message_id, sink) -> (outcome, reason)
        self._settled: Dict[Tuple[str, str], Tuple[str, str]] = {}
        #: open parked obligations awaiting a pull drain
        self._parked: Set[Tuple[str, str]] = set()
        #: publishes forwarded to their owning mesh shard (no local fan-out)
        self._routed: Set[str] = set()
        #: message id stamped onto delivery items minted by the in-flight
        #: publish (set around fan-out, both live and during replay)
        self.current_message_id: Optional[str] = None
        for record in self.log.records():
            self._index(record)

    # --- settlement index --------------------------------------------------

    def _index(self, record: Any) -> None:
        if isinstance(record, PublishRecorded):
            tail = record.message_id.rsplit("-", 1)[-1]
            if tail.isdigit():
                self._message_serial = max(self._message_serial, int(tail))
        elif isinstance(record, OutcomeRecorded):
            key = (record.message_id, record.sink)
            if record.outcome in TERMINAL_OUTCOMES:
                self._settled[key] = (record.outcome, record.reason)
                self._parked.discard(key)
            elif record.outcome == "parked":
                if key not in self._settled:
                    self._parked.add(key)
            elif record.outcome == "replayed":
                # DLQ replay reopens a dead obligation
                if self._settled.get(key, ("", ""))[0] == "dead":
                    del self._settled[key]
            elif record.outcome == "routed":
                self._routed.add(record.message_id)

    def _now(self) -> float:
        return self.clock.now() if self.clock is not None else 0.0

    def _append(self, record: Any) -> None:
        self.log.append(record)
        self.stats.appends += 1
        self._index(record)
        broker = self.broker
        if broker is not None:
            instr = broker.network.instrumentation
            if instr.enabled:
                instr.count("store.log_appends", kind=type(record).__name__)
                flight = instr.flight
                if flight.enabled:
                    flight.record(
                        "log_append",
                        entry=type(record).__name__,
                        length=len(self.log),
                    )

    # --- wiring ------------------------------------------------------------

    def attach(self, broker: "WsMessenger") -> None:
        """Wire the store into a broker's sources, producers, delivery
        manager and message boxes.  Called from the broker constructor."""
        self.broker = broker
        self.clock = broker.network.clock
        for version, source in broker.wse_sources.items():
            tag = version.name.lower()
            source.store.on_removed.append(self._wse_removed_hook(tag))
            source.lifecycle_listeners.append(self._wse_lifecycle_hook(tag))
        for version, producer in broker.wsn_producers.items():
            tag = version.name.lower()
            producer.subscription_listeners.append(self._wsn_hook(tag))
        broker.delivery_manager.store = self
        if broker.message_boxes is not None:
            broker.message_boxes.on_drained = self._box_drained

    def _wse_removed_hook(self, tag: str):
        def on_removed(subscription) -> None:
            if self.replaying:
                return
            self._append(
                RemoveRecorded(
                    at=self._now(), family="wse", tag=tag, sub_id=subscription.id
                )
            )

        return on_removed

    def _wse_lifecycle_hook(self, tag: str):
        def on_event(event: str, subscription, detail: dict) -> None:
            if self.replaying:
                return
            if event == "renewed":
                self._append(
                    RenewRecorded(
                        at=self._now(),
                        family="wse",
                        tag=tag,
                        sub_id=subscription.id,
                        expires=subscription.expires,
                    )
                )
            elif event == "pulled" and detail.get("count"):
                self._append(
                    PullDrainRecorded(
                        at=self._now(),
                        tag=tag,
                        sub_id=subscription.id,
                        count=int(detail["count"]),
                    )
                )

        return on_event

    def _wsn_hook(self, tag: str):
        def on_event(event: str, subscription) -> None:
            if self.replaying:
                return
            if event == "renewed":
                self._append(
                    RenewRecorded(
                        at=self._now(),
                        family="wsn",
                        tag=tag,
                        sub_id=subscription.key,
                        expires=subscription.resource.termination_time,
                    )
                )
            elif event == "destroyed":
                self._append(
                    RemoveRecorded(
                        at=self._now(), family="wsn", tag=tag, sub_id=subscription.key
                    )
                )
            elif event in ("paused", "resumed"):
                self._append(
                    PauseRecorded(
                        at=self._now(),
                        tag=tag,
                        sub_id=subscription.key,
                        paused=event == "paused",
                    )
                )

        return on_event

    # --- recording: subscription lifecycle ---------------------------------

    def record_subscribe(self, envelope, action: str, granted) -> None:
        """Front-door hook after a granted Subscribe.  ``granted`` is the
        ``(family, tag, sub_id, expires)`` tuple the broker captured from
        the implementation's creation hook."""
        if self.replaying or granted is None:
            return
        from repro.soap.codec import serialize_envelope

        family, tag, sub_id, expires = granted
        self._append(
            SubscribeRecorded(
                at=self._now(),
                family=family,
                tag=tag,
                sub_id=sub_id,
                action=action,
                wire=serialize_envelope(envelope),
                expires=expires,
            )
        )

    # --- recording: the transactional outbox -------------------------------

    def record_publish(self, payload, topic: Optional[str], lineage) -> Optional[str]:
        """Append the outbox entry *before* fan-out and arm item stamping.
        Returns the minted message id (None while replaying: the replay
        loop pins ``current_message_id`` itself)."""
        if self.replaying:
            return None
        self._message_serial += 1
        message_id = f"msg-{self._message_serial}"
        self._append(
            PublishRecorded(
                at=self._now(),
                message_id=message_id,
                topic=topic,
                payload=serialize_xml(payload),
                lineage=lineage.encode() if lineage is not None else None,
            )
        )
        self.stats.publishes += 1
        self.current_message_id = message_id
        return message_id

    def record_routed(self) -> None:
        """The mesh router forwarded the in-flight publish to its owning
        shard: no local fan-out exists to reproduce on replay."""
        if self.replaying or self.current_message_id is None:
            return
        self._append(
            OutcomeRecorded(
                at=self._now(),
                message_id=self.current_message_id,
                sink="",
                outcome="routed",
            )
        )

    def end_publish(self) -> None:
        if not self.replaying:
            self.current_message_id = None

    def stamp_items(self, items: List["DeliveryItem"]) -> List["DeliveryItem"]:
        """Stamp the in-flight publish's message id onto delivery items —
        the idempotency key is born here."""
        if self.current_message_id is None:
            return items
        return [
            dataclasses.replace(item, message_id=self.current_message_id)
            if item.message_id is None
            else item
            for item in items
        ]

    # --- recording: delivery outcomes --------------------------------------

    def _record_outcome(
        self, message_id: str, sink: str, outcome: str, reason: str = ""
    ) -> None:
        key = (message_id, sink)
        settled = self._settled.get(key, ("", ""))[0]
        if settled in TERMINAL_OUTCOMES and outcome != "replayed":
            return  # already terminal: appending again would be noise
        if outcome == "parked" and key in self._parked:
            return
        self._append(
            OutcomeRecorded(
                at=self._now(),
                message_id=message_id,
                sink=sink,
                outcome=outcome,
                reason=reason,
            )
        )
        self.stats.outcomes += 1

    def _keyed_items(self, task: "DeliveryTask"):
        for item in task.items:
            if item.message_id is not None:
                yield item

    def task_delivered(self, task: "DeliveryTask") -> None:
        for item in self._keyed_items(task):
            self._record_outcome(item.message_id, task.sink, "delivered")

    def task_parked(self, task: "DeliveryTask") -> None:
        self.items_parked(task, list(self._keyed_items(task)))

    def items_parked(self, task: "DeliveryTask", items: List["DeliveryItem"]) -> None:
        """Park outcomes for a subset of a task's items (the rest may have
        overflowed the box and been shed instead)."""
        for item in items:
            if item.message_id is not None:
                self._record_outcome(item.message_id, task.sink, "parked")

    def items_shed(
        self, task: "DeliveryTask", items: List["DeliveryItem"], reason: str
    ) -> None:
        """Terminal outcomes for QoS-shed items.

        Recorded as ``dead`` with a ``shed:`` reason so crash replay treats
        them as settled (a shed message must not resurrect as a fresh wire
        attempt) while the reason keeps the distinction auditable."""
        for item in items:
            if item.message_id is not None:
                self._record_outcome(
                    item.message_id, task.sink, "dead", f"shed:{reason}"
                )

    def task_dead(self, task: "DeliveryTask", reason: str) -> None:
        for item in self._keyed_items(task):
            self._record_outcome(item.message_id, task.sink, "dead", reason)

    def task_replayed(self, task: "DeliveryTask") -> None:
        for item in self._keyed_items(task):
            self._record_outcome(item.message_id, task.sink, "replayed")

    def _box_drained(self, box, batch: List["DeliveryItem"]) -> None:
        for item in batch:
            if item.message_id is not None:
                self._record_outcome(item.message_id, box.sink, "drained")

    # --- replay routing (consulted by the delivery manager) ------------------

    def resolve_replay(self, task: "DeliveryTask") -> Optional[Tuple[str, str]]:
        """Route one replayed submission by its idempotency keys.

        Returns ``("suppress", "")`` when the log already settled every
        item, ``("park", "")`` when the open items were parked pre-crash,
        ``("dead", reason)`` when the task died pre-crash, or None for a
        live re-attempt (the obligation was genuinely in flight)."""
        keys = [(item.message_id, task.sink) for item in self._keyed_items(task)]
        if not keys:
            return None
        open_keys = [key for key in keys if key not in self._settled]
        if not open_keys:
            outcomes = [self._settled[key] for key in keys]
            dead = [reason for outcome, reason in outcomes if outcome == "dead"]
            if dead and not any(o in ("delivered", "drained") for o, _ in outcomes):
                return ("dead", dead[0])
            return ("suppress", "")
        if all(key in self._parked for key in open_keys):
            return ("park", "")
        return None

    def replay_park_items(self, task: "DeliveryTask") -> List["DeliveryItem"]:
        """The items of a "park"-routed task that are still owed a drain."""
        return [
            item
            for item in self._keyed_items(task)
            if (item.message_id, task.sink) in self._parked
            and (item.message_id, task.sink) not in self._settled
        ]

    # --- projections ---------------------------------------------------------

    def projection(self, broker: Optional["WsMessenger"] = None) -> dict:
        """Canonical snapshot of the broker state the log determines.

        The durability conformance engine's fixpoint: a projection taken
        from the live broker must equal the projection of a fresh broker
        rebuilt from the log alone."""
        broker = broker if broker is not None else self.broker
        assert broker is not None
        subscriptions: Dict[str, dict] = {}
        for version, source in broker.wse_sources.items():
            tag = version.name.lower()
            for sub in source.store.live():
                subscriptions[f"wse:{tag}:{sub.id}"] = {
                    "sink": sub.notify_to.address if sub.notify_to else None,
                    "mode": sub.mode.value,
                    "expires": sub.expires,
                    "queued": len(sub.queue),
                }
        for version, producer in broker.wsn_producers.items():
            tag = version.name.lower()
            for sub in producer.live_subscriptions():
                subscriptions[f"wsn:{tag}:{sub.key}"] = {
                    "sink": sub.consumer.address,
                    "expires": sub.resource.termination_time,
                    "paused": sub.paused,
                    "queued": len(sub.paused_queue),
                }
        boxes = {}
        if broker.message_boxes is not None:
            for box in broker.message_boxes.boxes():
                boxes[box.sink] = {"address": box.address, "pending": len(box)}
        return {
            "subscriptions": subscriptions,
            "boxes": boxes,
            "dead_letters": len(broker.delivery_manager.dlq),
        }

    def snapshot(self) -> dict:
        """Deterministic store state for reports and tests."""
        return {
            "log_records": len(self.log),
            "settled": len(self._settled),
            "parked_open": len(self._parked),
            "stats": self.stats.snapshot(),
        }
