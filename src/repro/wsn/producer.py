"""The WS-Notification NotificationProducer and its SubscriptionManager.

Subscriptions are genuine WS-Resources (:mod:`repro.wsrf`): their filter,
status and termination time are resource properties, their lifetime is
managed through WSRF in 1.0/1.2 (mandatorily) and 1.3 (optionally, alongside
the native Renew/Unsubscribe), and their demise triggers a WSRF
TerminationNotification to the consumer — which is how WSN <= 1.2 realizes
WS-Eventing's SubscriptionEnd (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.delivery.batcher import DeliveryBatcher
from repro.delivery.manager import DeliveryManager
from repro.delivery.outcome import DeliveryFailure, record_failure
from repro.delivery.policy import BEST_EFFORT, BatchingPolicy
from repro.delivery.task import DeliveryItem
from repro.filters.base import AcceptAllFilter, AndFilter, Filter, FilterContext, FilterError
from repro.obs.instrument import BoundCounters
from repro.qos.adaptive import validate_supported
from repro.qos.properties import QosError, QosProfile
from repro.filters.content import MessageContentFilter
from repro.filters.producer import ProducerPropertiesFilter
from repro.filters.topics import TopicFilter, TopicNamespace, topic_expression_of
from repro.soap.envelope import SoapEnvelope, SoapVersion
from repro.soap.fault import FaultCode, SoapFault
from repro.transport.endpoint import SoapClient, SoapEndpoint
from repro.transport.network import SimulatedNetwork
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import MessageHeaders, apply_headers, fresh_message_id
from repro.wsn import messages
from repro.wsn.messages import NotificationMessage, WsnFilterSpec, WsnSubscribeRequest
from repro.wsn.templates import NotifyTemplateCache, sink_signature
from repro.wsn.versions import WsnVersion
from repro.wsrf.lifetime import set_termination_time
from repro.wsrf.properties import get_resource_property
from repro.wsrf.resource import RESOURCE_ID, ResourceRegistry, ResourceUnknownFault, WsResource
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.writer import frozen_namespace_order
from repro.xmlkit.names import Namespaces, QName
from repro.util.xstime import format_datetime, parse_datetime, parse_expires

# resource property names of a subscription resource
PROP_STATUS = QName(Namespaces.WSNT_13, "SubscriptionStatus")
PROP_TERMINATION = QName(Namespaces.WSRF_RL, "TerminationTime")
PROP_CONSUMER = QName(Namespaces.WSNT_13, "ConsumerReference")
PROP_FILTER = QName(Namespaces.WSNT_13, "FilterDescription")
PROP_TOPIC_SET = QName(Namespaces.WSTOP_13, "TopicSet")


def _delivery_item(message: NotificationMessage, lineage) -> DeliveryItem:
    """The spec-neutral content of one notification, for parking and replay."""
    payload = message.payload
    return DeliveryItem(
        payload if payload.frozen else payload.copy(), message.topic, lineage=lineage
    )


@dataclass
class WsnSubscription:
    """Runtime state attached to a subscription resource."""

    resource: WsResource
    consumer: EndpointReference
    filter: Filter
    topic_expression: Optional[str]
    use_raw: bool
    paused: bool = False
    paused_queue: list[NotificationMessage] = field(default_factory=list)
    #: accepted QoS profile (1.3 SubscriptionPolicy / <=1.2 extension child)
    qos: Optional[QosProfile] = None

    @property
    def key(self) -> str:
        return self.resource.key


class NotificationProducer:
    """A WSN producer bound to the simulated network.

    The producer is distinct from the *publisher* (Fig. 2): publishers call
    :meth:`publish`; consumers never talk to publishers directly.
    """

    def __init__(
        self,
        network: SimulatedNetwork,
        address: str,
        *,
        version: WsnVersion = WsnVersion.V1_3,
        manager_address: Optional[str] = None,
        topic_namespace: Optional[TopicNamespace] = None,
        default_lifetime: Optional[float] = 3600.0,
        producer_properties: Optional[dict[str, str]] = None,
        enable_wsrf: Optional[bool] = None,
        delivery_manager: Optional[DeliveryManager] = None,
        debug_linear_match: bool = False,
        batching: Optional[BatchingPolicy] = None,
        debug_no_templates: bool = False,
    ) -> None:
        self.network = network
        self.version = version
        self._version_tag = version.name.lower()  # metric/span label form
        #: pre-bound fan-out counters (see repro.obs.instrument.BoundCounters)
        self._bound_counters = BoundCounters()
        self.clock = network.clock
        self.default_lifetime = default_lifetime
        self.topics = topic_namespace or TopicNamespace()
        #: escape hatch: bypass the topic index / frozen-payload fast path and
        #: match with the original linear scan (differential tests diff the two)
        self.debug_linear_match = debug_linear_match
        self._topic_index = self.topics.new_index()
        self.producer_properties = dict(producer_properties or {})
        # WSRF port: mandatory <= 1.2, optional (default on) in 1.3
        if enable_wsrf is None:
            self.wsrf_enabled = True
        else:
            self.wsrf_enabled = enable_wsrf or version.requires_wsrf
        #: every outbound send goes through this pipeline; without one this
        #: producer runs its own on the direct policy, where a failed send
        #: destroys the subscription
        self.delivery_manager = delivery_manager or DeliveryManager(
            network, policy=BEST_EFFORT
        )
        #: every failed outbound send, recorded (see repro.delivery.outcome)
        self.delivery_failures: list[DeliveryFailure] = []
        self.registry = ResourceRegistry(self.clock, key_prefix="wsn-sub")
        self._subscriptions: dict[str, WsnSubscription] = {}
        #: consumed by the next create_subscription (log replay pins the key)
        self._forced_sub_id: Optional[str] = None
        self._current_message: dict[str, XElem] = {}  # last message per topic
        self._client = SoapClient(
            network, wsa_version=version.wsa_version, soap_version=SoapVersion.V11
        )
        #: listeners for broker demand accounting: (event, subscription)
        self.subscription_listeners: list[Callable[[str, WsnSubscription], None]] = []
        self.endpoint = SoapEndpoint(network, address)
        self.endpoint.on_action(version.action("Subscribe"), self._handle_subscribe)
        self.endpoint.on_action(
            version.action("GetCurrentMessage"), self._handle_get_current_message
        )
        if self.wsrf_enabled:
            # the producer itself is a WS-Resource: its TopicSet and
            # producer properties are readable via GetResourceProperty
            self.endpoint.on_action(
                messages.wsrf_action("GetResourceProperty"),
                self._handle_producer_property,
            )
        self.manager_address = manager_address or f"{address}/subscriptions"
        self.manager_endpoint = SoapEndpoint(network, self.manager_address)
        self._register_manager_handlers(self.manager_endpoint)
        #: escape hatch mirroring ``debug_linear_match``: disable the envelope
        #: byte-template cache so every send walks the full tree (differential
        #: tests diff the two paths byte-for-byte)
        self.debug_no_templates = debug_no_templates
        self.templates = NotifyTemplateCache(version, address, self.manager_address)
        #: per-sink wire coalescing (None = one request per notification);
        #: shares the delivery manager's scheduler so window expiry rides the
        #: same run_due/run_until_idle pump as retries
        self.batcher: Optional[DeliveryBatcher] = None
        if batching is not None:
            self.batcher = DeliveryBatcher(
                self.clock,
                batching,
                self._flush_batch,
                scheduler=self.delivery_manager.scheduler,
                instrumentation=network.instrumentation,
                family="wsn",
            )

    @property
    def address(self) -> str:
        return self.endpoint.address

    def epr(self) -> EndpointReference:
        return EndpointReference(self.address)

    def wsdl(self) -> str:
        """This producer's self-description as a WSDL 1.1 document."""
        from repro.wsdl.generator import wsdl_for_wsn_producer

        return wsdl_for_wsn_producer(
            self.version, address=self.address, include_wsrf=self.wsrf_enabled
        ).to_xml()

    def close(self) -> None:
        self.endpoint.close()
        self.manager_endpoint.close()

    # --- subscribe -----------------------------------------------------------

    def _handle_subscribe(self, envelope: SoapEnvelope, headers: MessageHeaders):
        request = messages.parse_subscribe(envelope.body_element(), self.version)
        subscription = self.create_subscription(request)
        termination = subscription.resource.termination_time
        body = messages.build_subscribe_response(
            self.version,
            manager_address=self.manager_address,
            sub_id=subscription.key,
            current_time_text=format_datetime(self.clock.now()),
            termination_time_text=(
                format_datetime(termination) if termination is not None else None
            ),
        )
        return self._reply(headers, self.version.action("SubscribeResponse"), body)

    def force_next_subscription_id(self, sub_id: str) -> None:
        """Pin the key the next Subscribe mints (event-log replay)."""
        self._forced_sub_id = sub_id

    def forget_subscription(self, sub_id: str) -> None:
        """Drop a subscription without a TerminationNotification (log
        replay: the pre-crash removal already announced itself).  The
        "destroyed" listeners still fire so derived state — topic index,
        mesh demand — stays consistent."""
        if self.registry.find(sub_id) is not None:
            self.registry.destroy(sub_id, reason="unsubscribed")
        else:
            self._subscriptions.pop(sub_id, None)
            self._topic_index.discard(sub_id)
            self.templates.note_removed(sub_id)

    def create_subscription(self, request: WsnSubscribeRequest) -> WsnSubscription:
        """Core Subscribe logic (also called in-process by the broker)."""
        if self.version.requires_topic and request.filter.topic_expression is None:
            raise SoapFault(
                FaultCode.SENDER,
                f"WS-BaseNotification {self.version.name} requires a TopicExpression",
                subcode=self.version.qname("TopicExpressionRequired"),
            )
        # consume the forced key up front so a faulting request cannot leak
        # it into an unrelated later subscription
        forced_sub_id, self._forced_sub_id = self._forced_sub_id, None
        self._accept_qos(request.qos, request.consumer)
        subscription_filter = self._build_filter(request.filter)
        expiry = self._grant_termination(request.initial_termination_text)
        resource = self.registry.create(key=forced_sub_id)
        resource.termination_time = expiry
        self.registry.note_termination(resource)
        subscription = WsnSubscription(
            resource=resource,
            consumer=request.consumer,
            filter=subscription_filter,
            topic_expression=request.filter.topic_expression,
            use_raw=request.use_raw,
            qos=request.qos,
        )
        self._subscriptions[resource.key] = subscription
        self._topic_index.add(resource.key, topic_expression_of(subscription_filter))
        self._set_resource_properties(subscription)
        resource.termination_listeners.append(self._on_subscription_terminated)
        self._notify_listeners("created", subscription)
        return subscription

    def _accept_qos(
        self, qos: Optional[QosProfile], consumer: EndpointReference
    ) -> None:
        """Vet a requested QoS profile, registering it with the adaptive
        controller when the delivery pipeline carries one.  A profile the
        producer cannot honour faults the Subscribe (1.3's
        UnsupportedPolicyRequestFault) rather than silently degrading."""
        if qos is None:
            return
        controller = self.delivery_manager.qos
        try:
            if controller is not None:
                controller.register_consumer(consumer.address, qos)
            else:
                validate_supported(qos)
        except QosError as exc:
            raise SoapFault(
                FaultCode.SENDER,
                f"unsupported QoS policy: {exc}",
                subcode=self.version.qname("UnsupportedPolicyRequestFault"),
            ) from exc

    def _priority_of(self, subscription: WsnSubscription) -> int:
        return subscription.qos.get("Priority") if subscription.qos is not None else 0

    def _set_resource_properties(self, subscription: WsnSubscription) -> None:
        resource = subscription.resource
        resource.set_text_property(
            PROP_STATUS, "Paused" if subscription.paused else "Active"
        )
        termination = resource.termination_time
        resource.set_text_property(
            PROP_TERMINATION,
            format_datetime(termination) if termination is not None else "",
        )
        resource.set_property(
            PROP_CONSUMER,
            subscription.consumer.to_element(self.version.wsa_version, PROP_CONSUMER),
        )
        resource.set_text_property(PROP_FILTER, subscription.filter.describe())

    def _build_filter(self, spec: WsnFilterSpec) -> Filter:
        parts: list[Filter] = []
        if spec.topic_expression is not None:
            try:
                parts.append(TopicFilter.parse(spec.topic_expression, spec.topic_dialect))
            except FilterError as exc:
                raise SoapFault(
                    FaultCode.SENDER,
                    str(exc),
                    subcode=self.version.qname("InvalidTopicExpressionFault"),
                ) from exc
        if spec.producer_properties is not None:
            try:
                parts.append(
                    ProducerPropertiesFilter(spec.producer_properties, spec.namespaces)
                )
            except FilterError as exc:
                raise SoapFault(
                    FaultCode.SENDER,
                    str(exc),
                    subcode=self.version.qname("InvalidProducerPropertiesExpressionFault"),
                ) from exc
        if spec.message_content is not None:
            if spec.message_content_dialect != Namespaces.DIALECT_XPATH10:
                raise SoapFault(
                    FaultCode.SENDER,
                    f"unsupported content dialect {spec.message_content_dialect!r}",
                    subcode=self.version.qname("InvalidMessageContentExpressionFault"),
                )
            try:
                parts.append(MessageContentFilter(spec.message_content, spec.namespaces))
            except FilterError as exc:
                raise SoapFault(
                    FaultCode.SENDER,
                    str(exc),
                    subcode=self.version.qname("InvalidMessageContentExpressionFault"),
                ) from exc
        if not parts:
            return AcceptAllFilter()
        if len(parts) == 1:
            return parts[0]
        return AndFilter(parts)

    def _grant_termination(self, text: Optional[str]) -> Optional[float]:
        now = self.clock.now()
        if text is None:
            return None if self.default_lifetime is None else now + self.default_lifetime
        fault = SoapFault(
            FaultCode.SENDER,
            f"unacceptable initial termination time {text!r}",
            subcode=self.version.qname("UnacceptableInitialTerminationTimeFault"),
        )
        if text.startswith("P") or text.startswith("-P"):
            if not self.version.supports_duration_expiry:
                raise SoapFault(
                    FaultCode.SENDER,
                    f"WS-BaseNotification {self.version.name} accepts only absolute "
                    "termination times (durations arrived in 1.3)",
                    subcode=self.version.qname("UnacceptableInitialTerminationTimeFault"),
                )
            try:
                requested = parse_expires(text, now)
            except ValueError:
                raise fault from None
        else:
            try:
                requested = parse_datetime(text)
            except ValueError:
                raise fault from None
        if requested is not None and requested <= now:
            raise fault
        return requested

    # --- manager operations ---------------------------------------------------------

    def _register_manager_handlers(self, endpoint: SoapEndpoint) -> None:
        version = self.version
        if version.has_native_unsubscribe:
            endpoint.on_action(version.action("Renew"), self._handle_renew)
            endpoint.on_action(version.action("Unsubscribe"), self._handle_unsubscribe)
        endpoint.on_action(version.action("PauseSubscription"), self._handle_pause)
        endpoint.on_action(version.action("ResumeSubscription"), self._handle_resume)
        if self.wsrf_enabled:
            endpoint.on_action(
                messages.wsrf_action("GetResourceProperty"), self._handle_get_property
            )
            endpoint.on_action(
                messages.wsrf_lifetime_action("SetTerminationTime"),
                self._handle_set_termination_time,
            )
            endpoint.on_action(
                messages.wsrf_lifetime_action("Destroy"), self._handle_destroy
            )

    def _subscription_for(self, headers: MessageHeaders) -> WsnSubscription:
        sub_id = messages.subscription_id_from_headers(headers.echoed)
        self.registry.get(sub_id)  # liveness check; faults ResourceUnknown
        subscription = self._subscriptions.get(sub_id)
        if subscription is None:
            raise ResourceUnknownFault(sub_id)
        return subscription

    def _handle_renew(self, envelope: SoapEnvelope, headers: MessageHeaders):
        subscription = self._subscription_for(headers)
        term_elem = envelope.body_element().find(self.version.qname("TerminationTime"))
        text = term_elem.full_text().strip() if term_elem is not None else None
        subscription.resource.termination_time = self._grant_termination(text)
        self.registry.note_termination(subscription.resource)
        self._set_resource_properties(subscription)
        self._notify_listeners("renewed", subscription)
        termination = subscription.resource.termination_time
        body = messages.build_renew_response(
            self.version,
            format_datetime(termination) if termination is not None else "",
            format_datetime(self.clock.now()),
        )
        return self._reply(headers, self.version.action("RenewResponse"), body)

    def _handle_unsubscribe(self, envelope: SoapEnvelope, headers: MessageHeaders):
        subscription = self._subscription_for(headers)
        self.registry.destroy(subscription.key, reason="unsubscribed")
        body = XElem(self.version.qname("UnsubscribeResponse"))
        return self._reply(headers, self.version.action("UnsubscribeResponse"), body)

    def _handle_pause(self, envelope: SoapEnvelope, headers: MessageHeaders):
        subscription = self._subscription_for(headers)
        subscription.paused = True
        self._set_resource_properties(subscription)
        self._notify_listeners("paused", subscription)
        body = XElem(self.version.qname("PauseSubscriptionResponse"))
        return self._reply(headers, self.version.action("PauseSubscriptionResponse"), body)

    def _handle_resume(self, envelope: SoapEnvelope, headers: MessageHeaders):
        subscription = self._subscription_for(headers)
        subscription.paused = False
        self._set_resource_properties(subscription)
        backlog, subscription.paused_queue = subscription.paused_queue, []
        if backlog:
            self._deliver(subscription, backlog)
        self._notify_listeners("resumed", subscription)
        body = XElem(self.version.qname("ResumeSubscriptionResponse"))
        return self._reply(headers, self.version.action("ResumeSubscriptionResponse"), body)

    def _handle_get_property(self, envelope: SoapEnvelope, headers: MessageHeaders):
        subscription = self._subscription_for(headers)
        name = messages.parse_get_resource_property(envelope.body_element())
        values = get_resource_property(subscription.resource, name)
        body = XElem(QName(Namespaces.WSRF_RP, "GetResourcePropertyResponse"))
        for value in values:
            body.append(value.copy())
        return self._reply(
            headers, messages.wsrf_action("GetResourcePropertyResponse"), body
        )

    def _handle_set_termination_time(self, envelope: SoapEnvelope, headers: MessageHeaders):
        subscription = self._subscription_for(headers)
        request = envelope.body_element()
        requested = request.find(QName(Namespaces.WSRF_RL, "RequestedTerminationTime"))
        if requested is None or not requested.full_text().strip():
            new_time: Optional[float] = None
        else:
            new_time = parse_datetime(requested.full_text().strip())
        set_termination_time(self.registry, subscription.resource, new_time)
        self._set_resource_properties(subscription)
        self._notify_listeners("renewed", subscription)
        body = XElem(QName(Namespaces.WSRF_RL, "SetTerminationTimeResponse"))
        body.append(
            text_element(
                QName(Namespaces.WSRF_RL, "NewTerminationTime"),
                format_datetime(new_time) if new_time is not None else "",
            )
        )
        return self._reply(
            headers, messages.wsrf_lifetime_action("SetTerminationTimeResponse"), body
        )

    def _handle_destroy(self, envelope: SoapEnvelope, headers: MessageHeaders):
        subscription = self._subscription_for(headers)
        self.registry.destroy(subscription.key, reason="destroyed")
        body = XElem(QName(Namespaces.WSRF_RL, "DestroyResponse"))
        return self._reply(headers, messages.wsrf_lifetime_action("DestroyResponse"), body)

    def topic_set_document(self) -> XElem:
        """The producer's advertised topic space (WS-Topics TopicSet)."""
        document = XElem(PROP_TOPIC_SET)
        for path in self.topics.all_paths():
            document.append(
                text_element(QName(Namespaces.WSTOP_13, "Topic"), path)
            )
        return document

    def _handle_producer_property(self, envelope: SoapEnvelope, headers: MessageHeaders):
        name = messages.parse_get_resource_property(envelope.body_element())
        body = XElem(QName(Namespaces.WSRF_RP, "GetResourcePropertyResponse"))
        if name == PROP_TOPIC_SET:
            body.append(self.topic_set_document())
        elif name.local == "ProducerProperties":
            from repro.filters.producer import properties_document

            body.append(properties_document(self.producer_properties))
        else:
            from repro.wsrf.properties import InvalidResourcePropertyFault

            raise InvalidResourcePropertyFault(name)
        return self._reply(
            headers, messages.wsrf_action("GetResourcePropertyResponse"), body
        )

    def _handle_get_current_message(self, envelope: SoapEnvelope, headers: MessageHeaders):
        topic, _dialect = messages.parse_get_current_message(
            envelope.body_element(), self.version
        )
        payload = self._current_message.get(topic)
        if payload is None:
            raise SoapFault(
                FaultCode.SENDER,
                f"no current message on topic {topic!r}",
                subcode=self.version.qname("NoCurrentMessageOnTopicFault"),
            )
        body = XElem(self.version.qname("GetCurrentMessageResponse"))
        body.append(payload if payload.frozen else payload.copy())
        return self._reply(
            headers, self.version.action("GetCurrentMessageResponse"), body
        )

    def _reply(self, request_headers: MessageHeaders, action: str, body: XElem) -> SoapEnvelope:
        reply = SoapEnvelope(SoapVersion.V11)
        headers = MessageHeaders.reply(request_headers, action, self.version.wsa_version)
        apply_headers(reply, headers, self.version.wsa_version)
        reply.add_body(body)
        return reply

    # --- publication --------------------------------------------------------------------

    def publish(self, payload: XElem, *, topic: Optional[str] = None) -> int:
        """Publish one event on an (optional in 1.3) topic.

        Returns the number of subscriptions the event matched (including
        paused ones, whose copies are queued for resume).
        """
        if topic is None and self.version.requires_topic:
            raise SoapFault(
                FaultCode.SENDER,
                f"WS-BaseNotification {self.version.name} publications require a topic",
            )
        instr = self.network.instrumentation
        if not instr.enabled:
            return self._match_and_deliver(payload, topic)
        # a publish arriving with no live lineage is a true origin (mint a
        # fresh one); with one — e.g. the broker backbone re-publishing a
        # mediated message — it stays inside the existing trace
        originating = instr.trace_context() is None
        with instr.span(
            "wsn.publish",
            mint=True,
            producer=self.address,
            version=self._version_tag,
            topic=topic or "",
        ) as span:
            if originating:
                # direct ledger write: mint=True guarantees span.lineage, so
                # the lineage_event() None-guard and kwargs repack are skipped
                instr._ledger_record(
                    span.lineage, "published", producer=self.address, family="wsn"
                )
            matched = self._match_and_deliver(payload, topic)
        matched_counter = self._bound_counters.probe(instr, "matched")
        if matched_counter is None:
            matched_counter = self._bound_counters.get(
                instr, "matched", "notifications.matched",
                family="wsn", version=self._version_tag,
            )
        matched_counter.inc(matched)
        return matched

    def _match_and_deliver(self, payload: XElem, topic: Optional[str]) -> int:
        if self.debug_linear_match:
            return self._match_and_deliver_linear(payload, topic)
        instr = self.network.instrumentation
        if topic is not None:
            try:
                self.topics.validate_publication(topic)
            except FilterError as exc:
                raise SoapFault(FaultCode.SENDER, str(exc)) from exc
        # one frozen payload instance is shared by every match this publish
        if payload.frozen:
            frozen = payload
        else:
            frozen = payload.copy().freeze()
            if instr.enabled:
                self._bound_counters.get(
                    instr, "payload_copies", "fanout.payload_copies", family="wsn"
                ).inc()
        if topic is not None:
            self._current_message[topic] = frozen
        self.registry.sweep_due()
        context = FilterContext(
            frozen, topic=topic, producer_properties=self.producer_properties
        )
        candidates = self._topic_index.candidates(topic)
        if instr.enabled:
            bound = self._bound_counters
            hits_counter = bound.probe(instr, "index_hits")
            if hits_counter is None:
                hits_counter = bound.get(
                    instr, "index_hits", "fanout.index_hits", family="wsn"
                )
            hits_counter.inc(len(candidates))
            skipped = len(self._subscriptions) - len(candidates)
            if skipped > 0:
                bound.get(
                    instr, "index_skips", "fanout.index_skips", family="wsn"
                ).inc(skipped)
            # hottest site: one increment per candidate, via one handle
            evals_counter = bound.probe(instr, "filter_evals")
            if evals_counter is None:
                evals_counter = bound.get(
                    instr, "filter_evals", "fanout.filter_evals", family="wsn"
                )
        else:
            evals_counter = None
        matched = 0
        for key in candidates:
            subscription = self._subscriptions.get(key)
            if subscription is None or not subscription.resource.alive(self.clock.now()):
                continue
            if evals_counter is not None:
                evals_counter.inc()
            if not subscription.filter.matches(context):
                continue
            matched += 1
            message = NotificationMessage(
                frozen,
                topic=topic,
                subscription_reference=self.registry.epr_for(
                    subscription.resource, self.manager_address
                ),
                producer_reference=self.epr(),
            )
            if subscription.paused:
                subscription.paused_queue.append(message)
                if instr.enabled:
                    lineage = instr.trace_context()
                    if lineage is not None:
                        # informational: the paused queue holds bare messages,
                        # so per-item lineage ends here (no obligation)
                        instr.lineage_event(
                            lineage.lineage_id, "queued",
                            subscription=subscription.key, mode="paused",
                        )
            elif self.batcher is not None and not subscription.use_raw:
                # same sink + same shape coalesce into one wire request; the
                # group key mirrors the byte-template cache key so every
                # flushed batch renders through a single compiled envelope
                lineage = instr.trace_context() if instr.enabled else None
                self.batcher.add(
                    (
                        sink_signature(subscription.consumer),
                        topic,
                        frozen_namespace_order(frozen),
                    ),
                    (subscription, message, lineage),
                    priority=self._priority_of(subscription),
                )
            else:
                self._deliver(subscription, [message])
        if self.batcher is not None:
            self.batcher.flush_publish()
        return matched

    def _match_and_deliver_linear(self, payload: XElem, topic: Optional[str]) -> int:
        """The pre-index matcher, kept verbatim as the differential baseline
        (``debug_linear_match=True``): full sweep, linear scan, one filter
        evaluation and one payload copy per subscriber."""
        instr = self.network.instrumentation
        if topic is not None:
            try:
                self.topics.validate_publication(topic)
            except FilterError as exc:
                raise SoapFault(FaultCode.SENDER, str(exc)) from exc
            self._current_message[topic] = payload.copy()
            if instr.enabled:
                instr.count("fanout.payload_copies", family="wsn")
        self.registry.sweep()
        context = FilterContext(
            payload, topic=topic, producer_properties=self.producer_properties
        )
        matched = 0
        for subscription in list(self._subscriptions.values()):
            if not subscription.resource.alive(self.clock.now()):
                continue
            if instr.enabled:
                instr.count("fanout.filter_evals", family="wsn")
            if not subscription.filter.matches(context):
                continue
            matched += 1
            if instr.enabled:
                instr.count("fanout.payload_copies", family="wsn")
            message = NotificationMessage(
                payload.copy(),
                topic=topic,
                subscription_reference=self.registry.epr_for(
                    subscription.resource, self.manager_address
                ),
                producer_reference=self.epr(),
            )
            if subscription.paused:
                subscription.paused_queue.append(message)
            else:
                self._deliver(subscription, [message])
        return matched

    def note_publication(self, payload: XElem, topic: Optional[str]) -> None:
        """Record a publication without fanning out — the broker's
        zero-subscription fast path.  Preserves the observable side effects
        of :meth:`publish`: topic validation (and namespace growth) and the
        GetCurrentMessage cache."""
        if topic is None:
            return
        try:
            self.topics.validate_publication(topic)
        except FilterError as exc:
            raise SoapFault(FaultCode.SENDER, str(exc)) from exc
        self._current_message[topic] = payload if payload.frozen else payload.copy()

    def has_subscriptions(self) -> bool:
        """Whether any subscription (live or not-yet-swept) exists — O(1)."""
        return bool(self._subscriptions)

    def _deliver(
        self, subscription: WsnSubscription, notifications: list[NotificationMessage]
    ) -> None:
        instr = self.network.instrumentation

        def attempt() -> None:
            if not instr.enabled:
                self._send_notifications(subscription, notifications)
            else:
                with instr.span(
                    "notify", family="wsn", to=subscription.consumer.address,
                    raw="true" if subscription.use_raw else "false",
                ):
                    self._send_notifications(subscription, notifications)
                self._count_delivered(instr, 1)

        lineage = instr.trace_context()
        self.delivery_manager.submit(
            subscription.consumer.address,
            attempt,
            items=[_delivery_item(item, lineage) for item in notifications],
            family="wsn",
            describe=f"notify {subscription.key}",
            priority=self._priority_of(subscription),
            on_failed=lambda task, exc: self._delivery_failed(
                [subscription], 1, exc
            ),
        )

    def _count_delivered(self, instr, notifications: int) -> None:
        delivered_counter = self._bound_counters.probe(instr, "delivered")
        if delivered_counter is None:
            delivered_counter = self._bound_counters.get(
                instr, "delivered", "notifications.delivered",
                family="wsn", version=self._version_tag,
            )
        delivered_counter.inc(notifications)

    def _delivery_failed(
        self, subscriptions: list[WsnSubscription], notifications: int, error
    ) -> None:
        """The direct policy gave up on a send: record it and destroy every
        subscription it carried (soft state would collect them anyway; this
        mirrors WSE's DeliveryFailure ending)."""
        instr = self.network.instrumentation
        if instr.enabled:
            self._bound_counters.get(
                instr, "failed", "notifications.failed",
                family="wsn", version=self._version_tag,
            ).inc(notifications)
        self._record_failure("notify", subscriptions[0].consumer.address, error)
        for subscription in subscriptions:
            try:
                self.registry.destroy(subscription.key, reason="delivery failure")
            except ResourceUnknownFault as destroy_exc:
                # already destroyed (e.g. swept mid-delivery); record the skip
                instr.count(
                    "obs.swallowed_errors_total",
                    site="wsn.producer.destroy_after_failure",
                    kind=type(destroy_exc).__name__,
                )

    def flush_batches(self) -> None:
        """Force out every partially-filled batch (broker ``flush()``)."""
        if self.batcher is not None:
            self.batcher.flush_all()

    def _flush_batch(
        self,
        key,
        entries: list[tuple[WsnSubscription, NotificationMessage, object]],
    ) -> None:
        """Deliver one coalesced batch: same sink, same shape, one request.

        Mirrors :meth:`_deliver`: one task whose items carry each
        notification's own lineage; a failure under the direct policy ends
        every batched subscription, just as per-subscriber pushes would.
        """
        instr = self.network.instrumentation
        consumer = entries[0][0].consumer
        sink = consumer.address
        wrapped = [(sub.key, item) for sub, item, _ in entries]

        def attempt() -> None:
            if not instr.enabled:
                self._send_wrapped(consumer, wrapped)
            else:
                with instr.span(
                    "notify", family="wsn", to=sink, raw="false",
                    batch=str(len(wrapped)),
                ):
                    self._send_wrapped(consumer, wrapped)
                self._count_delivered(instr, len(wrapped))

        self.delivery_manager.submit(
            sink,
            attempt,
            items=[_delivery_item(item, lineage) for _, item, lineage in entries],
            family="wsn",
            describe=f"notify batch[{len(entries)}] {sink}",
            priority=max(self._priority_of(sub) for sub, _, _ in entries),
            on_failed=lambda task, exc: self._delivery_failed(
                list({sub.key: sub for sub, _, _ in entries}.values()),
                len(entries),
                exc,
            ),
        )

    def _send_notifications(
        self, subscription: WsnSubscription, notifications: list[NotificationMessage]
    ) -> None:
        if subscription.use_raw:
            for item in notifications:
                self._client.call(
                    subscription.consumer,
                    self.version.action("Notify"),
                    [item.payload if item.payload.frozen else item.payload.copy()],
                    expect_reply=False,
                )
        else:
            self._send_wrapped(
                subscription.consumer,
                [(subscription.key, item) for item in notifications],
            )

    def _send_wrapped(
        self,
        consumer: EndpointReference,
        entries: list[tuple[str, NotificationMessage]],
    ) -> None:
        """One wrapped Notify request carrying ``entries`` (sub key, message).

        Fast path: render through the envelope byte-template cache — no tree
        build, no tree walk.  Fallback (``debug_no_templates``, unfrozen
        payload, mixed shapes, sentinel collision, envelope filter): the
        original ``build_notify`` + ``call`` path, byte-identical output.
        """
        action = self.version.action("Notify")
        text = self._render_notify(consumer, entries)
        if text is not None:
            instr = self.network.instrumentation
            context = instr.trace_context() if instr.enabled else None
            self._client.send_rendered(
                consumer.address,
                action,
                text,
                lineage=None if context is None else context.wire_text(),
            )
            return
        body = messages.build_notify(self.version, [item for _, item in entries])
        self._client.call(consumer, action, [body], expect_reply=False)

    def _render_notify(
        self,
        consumer: EndpointReference,
        entries: list[tuple[str, NotificationMessage]],
    ) -> Optional[str]:
        """Rendered envelope text for ``entries``, or ``None`` for the tree
        path.  Runs at attempt time, so the message id is minted exactly
        where the tree path would mint it.  Lineage never appears here:
        trace context rides the HTTP head (see ``_send_wrapped``), so the
        rendered bytes match the uninstrumented envelope exactly."""
        if self.debug_no_templates or self._client.envelope_filter is not None:
            return None
        instr = self.network.instrumentation
        first = entries[0][1]
        topic = first.topic
        dialect = first.topic_dialect
        payload0 = first.payload
        if not payload0.frozen:
            return None
        shape = frozen_namespace_order(payload0)
        for sub_key, item in entries:
            if (
                item.topic != topic
                or item.topic_dialect != dialect
                or not item.payload.frozen
                or (item.payload is not payload0
                    and frozen_namespace_order(item.payload) != shape)
                or not self._references_match(sub_key, item)
            ):
                if instr.enabled:
                    self._bound_counters.get(
                        instr, "template_misses", "fanout.template_misses",
                        family="wsn",
                    ).inc()
                return None
        compiled, outcome = self.templates.lookup(
            consumer,
            topic,
            dialect,
            payload0,
            sub_keys=[sub_key for sub_key, _ in entries],
        )
        if instr.enabled:
            if outcome == "hit":
                self._bound_counters.get(
                    instr, "template_hits", "fanout.template_hits", family="wsn"
                ).inc()
            else:
                self._bound_counters.get(
                    instr, "template_misses", "fanout.template_misses",
                    family="wsn",
                ).inc()
            flight = instr.flight
            if flight.enabled:
                flight.record(
                    "serialize",
                    family="wsn",
                    sink=consumer.address,
                    outcome=outcome,
                    batch=len(entries),
                )
        if compiled is None:
            return None
        message_id = fresh_message_id()
        phases = instr.phases
        if phases is None:
            return compiled.render(
                message_id,
                [(sub_key, item.payload) for sub_key, item in entries],
            )
        timer = phases.begin()
        text = compiled.render(
            message_id,
            [(sub_key, item.payload) for sub_key, item in entries],
        )
        phases.end("serialize", timer)
        return text

    def _references_match(self, sub_key: str, item: NotificationMessage) -> bool:
        """Whether the message's EPRs are exactly the shapes the template
        bakes in (our own ``epr_for`` + producer EPR); anything else — e.g. a
        re-published message carrying foreign references — takes the tree
        path rather than silently rewriting its references."""
        sref = item.subscription_reference
        pref = item.producer_reference
        if sref is None or pref is None:
            return False
        if pref.address != self.address or pref.reference_parameters or pref.reference_properties:
            return False
        if sref.address != self.manager_address or sref.reference_properties:
            return False
        if len(sref.reference_parameters) != 1:
            return False
        param = sref.reference_parameters[0]
        return (
            param.name == RESOURCE_ID
            and not param.attrs
            and len(param.children) == 1
            and param.children[0] == sub_key
        )

    # --- termination -----------------------------------------------------------------------

    def _on_subscription_terminated(self, resource: WsResource, reason: str) -> None:
        subscription = self._subscriptions.pop(resource.key, None)
        self._topic_index.discard(resource.key)
        self.templates.note_removed(resource.key)
        if subscription is None:
            return
        self._notify_listeners("destroyed", subscription)
        if reason == "unsubscribed":
            return  # orderly removal, no termination notice
        if not self.wsrf_enabled:
            # TerminationNotification is a WSRF resource-lifetime feature:
            # mandatory <= 1.2, available in 1.3 exactly when WSRF is mounted
            return
        body = messages.build_termination_notification(reason)

        def send_termination() -> None:
            self._client.call(
                subscription.consumer,
                messages.wsrf_lifetime_action("TerminationNotification"),
                [body],
                expect_reply=False,
            )

        # control message: retried like any delivery under a reliable
        # policy, but content-free so it is never parked in a message box
        self.delivery_manager.submit(
            subscription.consumer.address,
            send_termination,
            family="wsn",
            describe=f"termination_notification {subscription.key}",
            on_failed=lambda task, exc: self._record_failure(
                "termination_notification", subscription.consumer.address, exc
            ),
        )

    def _record_failure(self, stage: str, sink: str, error: Exception) -> None:
        record_failure(
            self.delivery_failures,
            self.network.instrumentation,
            at=self.clock.now(),
            family="wsn",
            stage=stage,
            sink=sink,
            error=error,
        )

    def sweep(self) -> None:
        """Expire overdue subscriptions (fires termination notifications)."""
        self.registry.sweep()

    def _notify_listeners(self, event: str, subscription: WsnSubscription) -> None:
        for listener in self.subscription_listeners:
            listener(event, subscription)

    # --- introspection -----------------------------------------------------------------

    def live_subscriptions(self) -> list[WsnSubscription]:
        now = self.clock.now()
        return [
            s for s in self._subscriptions.values() if s.resource.alive(now)
        ]
