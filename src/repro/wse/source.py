"""The WS-Eventing event source (and its subscription manager).

In WS-Eventing the event source is both the notification producer and the
publisher (the paper's Fig. 1: Subscribe arrives at the source, notifications
leave from it).  In 08/2004 the *subscription manager* — the endpoint that
handles Renew/GetStatus/Unsubscribe — is a separate entity; in 01/2004 those
operations land on the event source itself.  Both layouts are implemented
here, switched by the version profile.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.delivery.limits import parse_drain_limit
from repro.delivery.manager import DeliveryManager
from repro.delivery.outcome import DeliveryFailure, record_failure
from repro.delivery.policy import BEST_EFFORT, BatchingPolicy
from repro.delivery.task import DeliveryItem
from repro.qos.adaptive import validate_supported
from repro.qos.properties import DiscardPolicy, QosError, QosProfile
from repro.filters.base import AcceptAllFilter, Filter, FilterContext, FilterError
from repro.obs.instrument import BoundCounters
from repro.filters.content import MessageContentFilter
from repro.filters.topics import TopicSubscriptionIndex, topic_expression_of
from repro.soap.envelope import SoapEnvelope, SoapVersion
from repro.soap.fault import FaultCode, SoapFault
from repro.transport.endpoint import SoapClient, SoapEndpoint
from repro.transport.network import SimulatedNetwork
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import MessageHeaders, apply_headers
from repro.wse import messages
from repro.wse.model import (
    DeliveryMode,
    SubscriptionEndCode,
    SubscriptionStore,
    WseSubscription,
)
from repro.wse.versions import WseVersion
from repro.xmlkit.element import XElem
from repro.xmlkit.names import Namespaces, QName
from repro.util.xstime import format_datetime, parse_expires

#: default action URI stamped on raw (unwrapped) notification messages
DEFAULT_NOTIFY_ACTION = "http://repro.invalid/wse/Notify"


class EventSource:
    """A WS-Eventing event source bound to the simulated network."""

    def __init__(
        self,
        network: SimulatedNetwork,
        address: str,
        *,
        version: WseVersion = WseVersion.V2004_08,
        manager_address: Optional[str] = None,
        default_lifetime: Optional[float] = 3600.0,
        max_lifetime: Optional[float] = None,
        wrapped_batch_size: int = 10,
        producer_properties: Optional[dict[str, str]] = None,
        topic_header: Optional["QName"] = None,
        delivery_manager: Optional[DeliveryManager] = None,
        debug_linear_match: bool = False,
        batching: Optional[BatchingPolicy] = None,
    ) -> None:
        self.network = network
        self.version = version
        self._version_tag = version.name.lower()  # metric/span label form
        #: pre-bound fan-out counters (see repro.obs.instrument.BoundCounters)
        self._bound_counters = BoundCounters()
        self.clock = network.clock
        self.default_lifetime = default_lifetime
        self.max_lifetime = max_lifetime
        self.wrapped_batch_size = wrapped_batch_size
        self.producer_properties = dict(producer_properties or {})
        # mediation hook (section V.4 category 6): WSE has no body slot for a
        # topic, so when set, published topics ride as this SOAP header
        self.topic_header = topic_header
        #: every outbound send goes through this pipeline; without one this
        #: source runs its own on the direct policy, where a failed send
        #: ends the subscription with DeliveryFailure
        self.delivery_manager = delivery_manager or DeliveryManager(
            network, policy=BEST_EFFORT
        )
        #: wrapped-mode batching policy: ``max_batch`` replaces the size
        #: trigger, a positive ``window`` flushes partial batches on the
        #: delivery manager's clock scheduler instead of waiting for an
        #: explicit ``flush()``
        self.batching = batching
        self._wrapped_deadlines: dict[str, float] = {}
        #: every failed outbound send, recorded (see repro.delivery.outcome)
        self.delivery_failures: list[DeliveryFailure] = []
        #: escape hatch: bypass the topic index / frozen-payload fast path and
        #: match with the original linear scan (differential tests diff the two)
        self.debug_linear_match = debug_linear_match
        self.store = SubscriptionStore(self.clock)
        #: lifecycle listeners (event, subscription, detail): "renewed" and
        #: "pulled" — creations/removals already flow via the store's hooks
        self.lifecycle_listeners: list[
            Callable[[str, WseSubscription, dict], None]
        ] = []
        #: consumed by the next _handle_subscribe (log replay pins the id)
        self._forced_sub_id: Optional[str] = None
        # topic index over the store, kept fresh via the store's own hooks so
        # direct store manipulation (tests, sweeps) can never leave it stale
        self._topic_index = TopicSubscriptionIndex()
        self.store.on_created.append(
            lambda s: self._topic_index.add(s.id, topic_expression_of(s.filter))
        )
        self.store.on_removed.append(lambda s: self._topic_index.discard(s.id))
        self._client = SoapClient(
            network, wsa_version=version.wsa_version, soap_version=SoapVersion.V11
        )
        self.endpoint = SoapEndpoint(network, address)
        self.endpoint.on_action(version.action("Subscribe"), self._handle_subscribe)
        if version.separate_subscription_manager:
            self.manager_address = manager_address or f"{address}/subscriptions"
            self.manager_endpoint = SoapEndpoint(network, self.manager_address)
        else:
            # 01/2004: the source *is* the manager
            self.manager_address = address
            self.manager_endpoint = self.endpoint
        self._register_manager_handlers(self.manager_endpoint)
        #: SubscriptionEnd messages we emitted (observability for tests/benches)
        self.ended_subscriptions: list[tuple[str, SubscriptionEndCode]] = []

    @property
    def address(self) -> str:
        return self.endpoint.address

    def epr(self) -> EndpointReference:
        return EndpointReference(self.address)

    def wsdl(self) -> str:
        """This source's self-description as a WSDL 1.1 document."""
        from repro.wsdl.generator import wsdl_for_wse_source

        return wsdl_for_wse_source(self.version, address=self.address).to_xml()

    def close(self) -> None:
        self.endpoint.close()
        if self.manager_endpoint is not self.endpoint:
            self.manager_endpoint.close()

    # --- subscribe --------------------------------------------------------------

    def force_next_subscription_id(self, sub_id: str) -> None:
        """Pin the id the next Subscribe mints (event-log replay)."""
        self._forced_sub_id = sub_id

    def _fire_lifecycle(self, event: str, subscription: WseSubscription, **detail) -> None:
        for listener in self.lifecycle_listeners:
            listener(event, subscription, detail)

    def _handle_subscribe(self, envelope: SoapEnvelope, headers: MessageHeaders):
        # consume the forced id up front so a faulting request cannot leak
        # it into an unrelated later subscription
        forced_sub_id, self._forced_sub_id = self._forced_sub_id, None
        request = messages.parse_subscribe(envelope.body_element(), self.version)
        if request.mode is not DeliveryMode.PUSH and not (
            self.version.supports_pull_delivery or request.mode is DeliveryMode.WRAPPED
        ):
            raise SoapFault(
                FaultCode.SENDER,
                f"delivery mode {request.mode.value} unavailable in {self.version.name}",
                subcode=self.version.qname("DeliveryModeRequestedUnavailable"),
            )
        if request.mode is DeliveryMode.WRAPPED and not self.version.supports_wrapped_delivery:
            raise SoapFault(
                FaultCode.SENDER,
                "wrapped delivery unavailable in WS-Eventing 01/2004",
                subcode=self.version.qname("DeliveryModeRequestedUnavailable"),
            )
        if request.mode is not DeliveryMode.PULL and request.notify_to is None:
            raise SoapFault(FaultCode.SENDER, "push/wrapped delivery requires NotifyTo")
        subscription_filter = self._build_filter(request)
        expires = self._grant_expiry(request.expires_text)
        qos_profile = self._accept_qos(request)
        subscription = self.store.create(
            sub_id=forced_sub_id,
            version=self.version,
            notify_to=request.notify_to,
            mode=request.mode,
            filter=subscription_filter,
            expires=expires,
            end_to=request.end_to,
            qos=qos_profile,
        )
        response_body = messages.build_subscribe_response(
            self.version,
            sub_id=subscription.id,
            manager_address=self.manager_address,
            expires_text=self._expires_text(expires),
        )
        return self._reply(headers, self.version.action("SubscribeResponse"), response_body)

    def _accept_qos(
        self, request: messages.SubscribeRequest
    ) -> Optional[QosProfile]:
        """Accept (or fault) the profile a Subscribe requested.

        CORBA's UnsupportedQoS becomes a sender fault here; an accepted
        profile is registered with the adaptive controller (when the
        delivery pipeline carries one) so the consumer's bounds and
        priority drive real delivery decisions.
        """
        if request.qos is None:
            return None
        try:
            controller = self.delivery_manager.qos
            if controller is not None and request.notify_to is not None:
                return controller.register_consumer(
                    request.notify_to.address, request.qos
                )
            return validate_supported(request.qos)
        except QosError as exc:
            raise SoapFault(
                FaultCode.SENDER,
                f"unsupported QoS: {exc}",
                subcode=self.version.qname("UnsupportedQoS"),
            ) from exc

    def _build_filter(self, request: messages.SubscribeRequest) -> Filter:
        if request.filter_expression is None:
            return AcceptAllFilter()
        dialect = request.filter_dialect or Namespaces.DIALECT_XPATH10
        if dialect != Namespaces.DIALECT_XPATH10:
            raise SoapFault(
                FaultCode.SENDER,
                f"filter dialect {dialect!r} unavailable",
                subcode=self.version.qname("FilteringRequestedUnavailable"),
            )
        try:
            return MessageContentFilter(request.filter_expression, request.filter_namespaces)
        except FilterError as exc:
            raise SoapFault(
                FaultCode.SENDER,
                str(exc),
                subcode=self.version.qname("FilteringRequestedUnavailable"),
            ) from exc

    def _grant_expiry(self, expires_text: Optional[str]) -> Optional[float]:
        now = self.clock.now()
        if expires_text is None:
            return None if self.default_lifetime is None else now + self.default_lifetime
        try:
            requested = parse_expires(expires_text, now)
        except ValueError as exc:
            raise SoapFault(
                FaultCode.SENDER,
                f"invalid expiration: {exc}",
                subcode=self.version.qname("InvalidExpirationTime"),
            ) from exc
        if requested is not None and requested <= now:
            raise SoapFault(
                FaultCode.SENDER,
                "expiration is in the past",
                subcode=self.version.qname("InvalidExpirationTime"),
            )
        if self.max_lifetime is not None:
            ceiling = now + self.max_lifetime
            if requested is None or requested > ceiling:
                return ceiling
        return requested

    def _expires_text(self, expires: Optional[float]) -> str:
        # granted expiry is reported as an absolute dateTime; "never" is
        # reported as the largest representable lease in this implementation
        if expires is None:
            return format_datetime(self.clock.now() + 10 * 365 * 86400)
        return format_datetime(expires)

    # --- manager operations ---------------------------------------------------------

    def _register_manager_handlers(self, endpoint: SoapEndpoint) -> None:
        version = self.version
        endpoint.on_action(version.action("Renew"), self._handle_renew)
        endpoint.on_action(version.action("Unsubscribe"), self._handle_unsubscribe)
        if version.has_get_status:
            endpoint.on_action(version.action("GetStatus"), self._handle_get_status)
        if version.supports_pull_delivery:
            endpoint.on_action(version.action("Pull"), self._handle_pull)

    def _subscription_for(self, envelope: SoapEnvelope, headers: MessageHeaders) -> WseSubscription:
        body = envelope.body_element()
        sub_id = messages.subscription_id_from_request(self.version, body, headers.echoed)
        subscription = self.store.get(sub_id)
        if subscription is None:
            raise SoapFault(
                FaultCode.SENDER,
                f"unknown subscription {sub_id!r}",
                subcode=self.version.qname("InvalidMessage"),
            )
        return subscription

    def _handle_renew(self, envelope: SoapEnvelope, headers: MessageHeaders):
        subscription = self._subscription_for(envelope, headers)
        expires_text = messages.expires_from_body(envelope.body_element(), self.version)
        self.store.update_expiry(subscription, self._grant_expiry(expires_text))
        self._fire_lifecycle("renewed", subscription, expires=subscription.expires)
        body = messages.build_renew_response(
            self.version, self._expires_text(subscription.expires)
        )
        return self._reply(headers, self.version.action("RenewResponse"), body)

    def _handle_get_status(self, envelope: SoapEnvelope, headers: MessageHeaders):
        subscription = self._subscription_for(envelope, headers)
        body = messages.build_get_status_response(
            self.version, self._expires_text(subscription.expires)
        )
        return self._reply(headers, self.version.action("GetStatusResponse"), body)

    def _handle_unsubscribe(self, envelope: SoapEnvelope, headers: MessageHeaders):
        subscription = self._subscription_for(envelope, headers)
        self.store.remove(subscription.id)
        body = messages.build_unsubscribe_response(self.version)
        return self._reply(headers, self.version.action("UnsubscribeResponse"), body)

    def _handle_pull(self, envelope: SoapEnvelope, headers: MessageHeaders):
        subscription = self._subscription_for(envelope, headers)
        if subscription.mode is not DeliveryMode.PULL:
            raise SoapFault(FaultCode.SENDER, "subscription is not in pull mode")
        body_elem = envelope.body_element()
        count = parse_drain_limit(
            body_elem,
            self.version.qname("MaxMessages"),
            backlog=len(subscription.queue),
            subcode=self.version.qname("InvalidMessage"),
        )
        batch = subscription.queue[:count]
        del subscription.queue[:count]
        if batch:
            self._fire_lifecycle("pulled", subscription, count=len(batch))
        body = messages.build_pull_response(self.version, batch)
        return self._reply(headers, self.version.action("PullResponse"), body)

    def _reply(self, request_headers: MessageHeaders, action: str, body: XElem) -> SoapEnvelope:
        reply = SoapEnvelope(SoapVersion.V11)
        headers = MessageHeaders.reply(request_headers, action, self.version.wsa_version)
        apply_headers(reply, headers, self.version.wsa_version)
        reply.add_body(body)
        return reply

    # --- publication ------------------------------------------------------------------

    def publish(
        self,
        payload: XElem,
        *,
        action: str = DEFAULT_NOTIFY_ACTION,
        topic: Optional[str] = None,
    ) -> int:
        """Publish one event; returns the number of subscriptions it reached.

        WS-Eventing has no topic model — ``topic`` only feeds filters that
        look at it (the mediation layer maps WSN topics through here).
        """
        instr = self.network.instrumentation
        if not instr.enabled:
            return self._fan_out_event(payload, action, topic)
        # a publish arriving with no live lineage is a true origin (mint a
        # fresh one); with one — e.g. the broker backbone re-publishing a
        # mediated message — it stays inside the existing trace
        originating = instr.trace_context() is None
        with instr.span(
            "wse.publish", mint=True, source=self.address, version=self._version_tag
        ) as span:
            if originating:
                # direct ledger write: mint=True guarantees span.lineage
                instr._ledger_record(
                    span.lineage, "published", source=self.address, family="wse"
                )
            delivered = self._fan_out_event(payload, action, topic)
        matched_counter = self._bound_counters.probe(instr, "matched")
        if matched_counter is None:
            matched_counter = self._bound_counters.get(
                instr, "matched", "notifications.matched",
                family="wse", version=self._version_tag,
            )
        matched_counter.inc(delivered)
        return delivered

    def _fan_out_event(
        self, payload: XElem, action: str, topic: Optional[str]
    ) -> int:
        if self.debug_linear_match:
            return self._fan_out_linear(payload, action, topic)
        instr = self.network.instrumentation
        self.store.sweep_due()
        # one frozen payload instance is shared by every match this publish
        if payload.frozen:
            frozen = payload
        else:
            frozen = payload.copy().freeze()
            if instr.enabled:
                self._bound_counters.get(
                    instr, "payload_copies", "fanout.payload_copies", family="wse"
                ).inc()
        context = FilterContext(
            frozen, topic=topic, producer_properties=self.producer_properties
        )
        candidates = self._topic_index.candidates(topic)
        lineage = instr.trace_context() if instr.enabled else None
        if instr.enabled:
            bound = self._bound_counters
            hits_counter = bound.probe(instr, "index_hits")
            if hits_counter is None:
                hits_counter = bound.get(
                    instr, "index_hits", "fanout.index_hits", family="wse"
                )
            hits_counter.inc(len(candidates))
            skipped = len(self.store._subscriptions) - len(candidates)
            if skipped > 0:
                bound.get(
                    instr, "index_skips", "fanout.index_skips", family="wse"
                ).inc(skipped)
            # hottest site: one increment per candidate, via one handle
            evals_counter = bound.probe(instr, "filter_evals")
            if evals_counter is None:
                evals_counter = bound.get(
                    instr, "filter_evals", "fanout.filter_evals", family="wse"
                )
        else:
            evals_counter = None
        delivered = 0
        for key in candidates:
            subscription = self.store.get(key)
            if subscription is None:
                continue
            if evals_counter is not None:
                evals_counter.inc()
            if not subscription.accepts(context):
                continue
            delivered += 1
            if subscription.mode is DeliveryMode.PULL:
                if not self._enqueue_bounded(subscription, frozen):
                    continue
                if lineage is not None:
                    # informational: subscription queues hold bare payloads,
                    # so per-item lineage ends here (no delivery obligation)
                    instr.lineage_event(
                        lineage.lineage_id, "queued",
                        subscription=subscription.id, mode="pull",
                    )
            elif subscription.mode is DeliveryMode.WRAPPED:
                if not self._enqueue_bounded(subscription, frozen):
                    continue
                if lineage is not None:
                    instr.lineage_event(
                        lineage.lineage_id, "queued",
                        subscription=subscription.id, mode="wrapped",
                    )
                self._note_wrapped_queued(subscription)
                if len(subscription.queue) >= self._wrapped_trigger():
                    self._flush_wrapped(subscription)
            else:
                self._push(subscription, frozen, action, topic)
        return delivered

    def _enqueue_bounded(self, subscription: WseSubscription, frozen: XElem) -> bool:
        """Append to a pull/wrapped queue, honouring the subscription's
        ``MaxEventsPerConsumer`` bound.  Returns False when the *incoming*
        message was the one discarded (LifoOrder); otherwise the oldest
        queued payload makes room.  These queues carry no per-item
        obligations (their lineage is the informational ``queued``), so the
        drop is surfaced as a counter, not a ledger event."""
        profile = subscription.qos
        if profile is not None:
            limit = profile.get("MaxEventsPerConsumer")
            if limit and len(subscription.queue) >= limit:
                self.network.instrumentation.count(
                    "qos.shed_total", family="wse", reason="sub_queue_full"
                )
                if profile.get("DiscardPolicy") is DiscardPolicy.LIFO_ORDER:
                    return False
                del subscription.queue[0]
        subscription.queue.append(frozen)
        return True

    def _priority_of(self, subscription: WseSubscription) -> int:
        return (
            int(subscription.qos.get("Priority"))
            if subscription.qos is not None
            else 0
        )

    def _wrapped_trigger(self) -> int:
        """Queue length that forces a wrapped flush (batching policy wins)."""
        return self.batching.max_batch if self.batching is not None else self.wrapped_batch_size

    def _note_wrapped_queued(self, subscription: WseSubscription) -> None:
        """First message into an empty wrapped queue starts its window."""
        if (
            self.batching is None
            or self.batching.window <= 0
            or len(subscription.queue) != 1
        ):
            return
        when = self.clock.now() + self.batching.window
        self._wrapped_deadlines[subscription.id] = when
        self.delivery_manager.scheduler.call_at(
            when, lambda: self._on_wrapped_deadline(subscription.id, when)
        )

    def stale_wrapped_deadlines(self) -> int:
        """Wrapped queues whose window deadline passed without a flush.

        Non-zero after the scheduler has drained everything due means a
        window timer was lost or never pumped — the ``obs-health``
        stale-batch-timer anomaly (the WSE analog of
        :meth:`repro.delivery.batcher.DeliveryBatcher.stale_deadlines`)."""
        now = self.clock.now()
        stale = 0
        for sub_id, when in self._wrapped_deadlines.items():
            subscription = self.store.get(sub_id)
            if when < now and subscription is not None and subscription.queue:
                stale += 1
        return stale

    def _on_wrapped_deadline(self, sub_id: str, when: float) -> None:
        if self._wrapped_deadlines.get(sub_id) != when:
            return  # flushed by size or explicit flush(); stale timer
        subscription = self.store.get(sub_id)
        if subscription is not None and subscription.queue:
            self._flush_wrapped(subscription)
        else:
            self._wrapped_deadlines.pop(sub_id, None)

    def _fan_out_linear(
        self, payload: XElem, action: str, topic: Optional[str]
    ) -> int:
        """The pre-index matcher, kept verbatim as the differential baseline
        (``debug_linear_match=True``): full sweep, linear scan, one filter
        evaluation per subscriber and per-subscriber payload copies."""
        instr = self.network.instrumentation
        self.store.sweep_expired()
        context = FilterContext(
            payload, topic=topic, producer_properties=self.producer_properties
        )
        delivered = 0
        for subscription in list(self.store.live()):
            if instr.enabled:
                instr.count("fanout.filter_evals", family="wse")
            if not subscription.accepts(context):
                continue
            delivered += 1
            if subscription.mode is DeliveryMode.PULL:
                subscription.queue.append(payload.copy())
                if instr.enabled:
                    instr.count("fanout.payload_copies", family="wse")
            elif subscription.mode is DeliveryMode.WRAPPED:
                subscription.queue.append(payload.copy())
                if instr.enabled:
                    instr.count("fanout.payload_copies", family="wse")
                if len(subscription.queue) >= self.wrapped_batch_size:
                    self._flush_wrapped(subscription)
            else:
                self._push(subscription, payload, action, topic)
        return delivered

    def flush(self) -> None:
        """Deliver any batched wrapped-mode notifications immediately."""
        for subscription in self.store.live():
            if subscription.mode is DeliveryMode.WRAPPED and subscription.queue:
                self._flush_wrapped(subscription)

    def _push(
        self,
        subscription: WseSubscription,
        payload: XElem,
        action: str,
        topic: Optional[str] = None,
    ) -> None:
        extra = []
        if topic is not None and self.topic_header is not None:
            from repro.xmlkit.element import text_element

            extra.append(text_element(self.topic_header, topic))

        def outbound() -> XElem:
            # frozen payloads are fan-out-shared; mutable ones are copied per
            # attempt exactly as before the fast path existed
            if payload.frozen:
                return payload
            instr = self.network.instrumentation
            if instr.enabled:
                instr.count("fanout.payload_copies", family="wse")
            return payload.copy()

        def attempt() -> None:
            instr = self.network.instrumentation
            if not instr.enabled:
                self._client.call(
                    subscription.notify_to,
                    action,
                    [outbound()],
                    expect_reply=False,
                    extra_headers=extra,
                )
                return
            with instr.span("notify", family="wse", to=subscription.notify_to.address):
                self._client.call(
                    subscription.notify_to,
                    action,
                    [outbound()],
                    expect_reply=False,
                    extra_headers=extra,
                )
            self._count_delivered(instr)

        self.delivery_manager.submit(
            subscription.notify_to.address,
            attempt,
            items=[
                DeliveryItem(
                    payload if payload.frozen else payload.copy(),
                    topic,
                    lineage=self.network.instrumentation.trace_context(),
                )
            ],
            family="wse",
            describe=f"notify {subscription.id}",
            priority=self._priority_of(subscription),
            on_failed=lambda task, exc: self._delivery_failed(
                subscription, "notify", exc
            ),
        )

    def _count_delivered(self, instr) -> None:
        delivered_counter = self._bound_counters.probe(instr, "delivered")
        if delivered_counter is None:
            delivered_counter = self._bound_counters.get(
                instr, "delivered", "notifications.delivered",
                family="wse", version=self._version_tag,
            )
        delivered_counter.inc()

    def _delivery_failed(
        self, subscription: WseSubscription, stage: str, error: Exception
    ) -> None:
        """The direct policy gave up on a send: record it and end the
        subscription with DeliveryFailure."""
        instr = self.network.instrumentation
        if instr.enabled:
            self._bound_counters.get(
                instr, "failed", "notifications.failed",
                family="wse", version=self._version_tag,
            ).inc()
        self._record_failure(stage, subscription.notify_to.address, error)
        self._end_subscription(
            subscription, SubscriptionEndCode.DELIVERY_FAILURE, str(error)
        )

    def _record_failure(self, stage: str, sink: str, error: Exception) -> None:
        record_failure(
            self.delivery_failures,
            self.network.instrumentation,
            at=self.clock.now(),
            family="wse",
            stage=stage,
            sink=sink,
            error=error,
        )

    def _flush_wrapped(self, subscription: WseSubscription) -> None:
        self._wrapped_deadlines.pop(subscription.id, None)
        batch, subscription.queue = subscription.queue, []
        wrapper = messages.build_wrapped_notification(self.version, batch)
        # queued payloads carry no lineage of their own: the flush request
        # opens one obligation on the trace it is sent under
        lineage = self.network.instrumentation.trace_context()
        items = [
            DeliveryItem(
                message if message.frozen else message.copy(),
                lineage=lineage if index == 0 else None,
            )
            for index, message in enumerate(batch)
        ]

        def attempt() -> None:
            instr = self.network.instrumentation
            if not instr.enabled:
                self._client.call(
                    subscription.notify_to,
                    self.version.action("Notifications"),
                    [wrapper],
                    expect_reply=False,
                )
                return
            with instr.span(
                "notify", family="wse", mode="wrapped",
                to=subscription.notify_to.address,
            ):
                self._client.call(
                    subscription.notify_to,
                    self.version.action("Notifications"),
                    [wrapper],
                    expect_reply=False,
                )
            self._count_delivered(instr)

        self.delivery_manager.submit(
            subscription.notify_to.address,
            attempt,
            items=items,
            family="wse",
            describe=f"wrapped notify {subscription.id}",
            priority=self._priority_of(subscription),
            on_failed=lambda task, exc: self._delivery_failed(
                subscription, "wrapped_notify", exc
            ),
        )

    # --- termination -----------------------------------------------------------------

    def shutdown(self) -> None:
        """Terminate every subscription with SourceShuttingDown, then close."""
        for subscription in list(self.store.live()):
            self._end_subscription(
                subscription, SubscriptionEndCode.SOURCE_SHUTTING_DOWN, "source shutting down"
            )
        self.close()

    def _end_subscription(
        self, subscription: WseSubscription, code: SubscriptionEndCode, reason: str
    ) -> None:
        self.store.remove(subscription.id)
        subscription.ended = True
        self.ended_subscriptions.append((subscription.id, code))
        if subscription.end_to is None:
            # per the paper: no EndTo in the request => no SubscriptionEnd message
            return
        body = messages.build_subscription_end(
            self.version,
            manager_address=self.manager_address,
            sub_id=subscription.id,
            code=code,
            reason=reason,
        )

        def send_end() -> None:
            self._client.call(
                subscription.end_to,
                self.version.action("SubscriptionEnd"),
                [body],
                expect_reply=False,
            )

        # control messages ride the pipeline too (no parkable payload: an
        # end notice is meaningless once the sink is gone)
        self.delivery_manager.submit(
            subscription.end_to.address,
            send_end,
            family="wse",
            describe=f"subscription_end {subscription.id}",
            on_failed=lambda task, exc: self._record_failure(
                "subscription_end", subscription.end_to.address, exc
            ),
        )
