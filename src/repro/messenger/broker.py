"""The WS-Messenger broker.

One front-door address accepts traffic in **both** specification families and
**all five** supported versions.  Per section VII:

- spec detection: every incoming envelope is classified by
  :func:`repro.messenger.detection.detect_spec`;
- "Response messages follow the same specifications as request messages":
  each request is dispatched to an internal implementation of exactly the
  detected version, whose reply is returned verbatim;
- "notification messages follow the expected specifications of the target
  event consumers.  The specification type of a target event consumer is
  determined by the subscription request message type": a subscription made
  with a WSE 08/2004 Subscribe lives in the broker's internal WSE 08/2004
  event source and is served raw WSE notifications; a WSN 1.3 subscription
  is served wrapped ``Notify`` messages; and so on;
- publications may enter in-process (:meth:`WsMessenger.publish`), as WSN
  ``Notify`` messages at the front door, or by bridging from external WSE
  sources / WSN producers — "an event producer can publish event
  notifications using either the WS-Eventing specification or the
  WS-Notification specification.  It makes no difference to the event
  consumers";
- all traffic is carried by a pluggable messaging backbone
  (:mod:`repro.messenger.adapters`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.core import BrokerStore

from repro.delivery.manager import DeliveryManager
from repro.delivery.messagebox import MessageBoxRegistry
from repro.delivery.policy import BEST_EFFORT, BatchingPolicy, DeliveryPolicy
from repro.filters.topics import TopicNamespace
from repro.messenger.adapters import InMemoryBackbone, MessagingBackbone
from repro.messenger.detection import DetectedSpec, SpecDetectionError, SpecFamily, detect_spec
from repro.obs.instrument import BoundCounters
from repro.qos.adaptive import AdaptiveQosController, AdaptiveQosPolicy
from repro.messenger import mediation
from repro.soap.envelope import SoapEnvelope
from repro.soap.fault import FaultCode, SoapFault
from repro.transport.endpoint import SoapEndpoint
from repro.transport.network import SimulatedNetwork
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import MessageHeaders
from repro.wse.model import DeliveryMode
from repro.wse.source import EventSource
from repro.wse.subscriber import WseSubscriber
from repro.wse.versions import WseVersion
from repro.wsn.producer import NotificationProducer
from repro.wsn.pullpoint import PullPointFactory
from repro.wsn.subscriber import WsnSubscriber
from repro.wsn.versions import WsnVersion
from repro.xmlkit.element import XElem


@dataclass
class BrokerStats:
    """Observability: what the detection layer saw."""

    detected: dict[str, int] = field(default_factory=dict)
    publications: int = 0
    detection_failures: int = 0

    def record(self, spec: DetectedSpec) -> None:
        key = f"{spec.family.value}/{spec.version.name}"
        self.detected[key] = self.detected.get(key, 0) + 1


def _family_tag(spec: DetectedSpec) -> str:
    """Short metric-label form of the spec family ("wse"/"wsn")."""
    return "wse" if spec.family is SpecFamily.WS_EVENTING else "wsn"


class WsMessenger:
    """The mediation broker."""

    def __init__(
        self,
        network: SimulatedNetwork,
        address: str,
        *,
        backbone: Optional[MessagingBackbone] = None,
        topic_namespace: Optional[TopicNamespace] = None,
        wse_versions: Optional[list[WseVersion]] = None,
        wsn_versions: Optional[list[WsnVersion]] = None,
        delivery: Optional[DeliveryPolicy] = None,
        delivery_seed: int = 0,
        qos: Optional[AdaptiveQosPolicy] = None,
        store: Optional["BrokerStore"] = None,
        debug_linear_match: bool = False,
        batching: Optional[BatchingPolicy] = None,
        debug_no_templates: bool = False,
    ) -> None:
        self.network = network
        self.address = address
        #: escape hatch: run every internal source/producer on the pre-index
        #: linear matcher (differential tests diff the two fan-out paths)
        self.debug_linear_match = debug_linear_match
        #: escape hatch: disable envelope byte-templates (tree-serialize every
        #: Notify); mirrors debug_linear_match for the byte-template layer
        self.debug_no_templates = debug_no_templates
        #: optional per-sink coalescing of same-EPR notifications
        self.batching = batching
        self.stats = BrokerStats()
        #: pre-bound front-door/fan-out counters (identity-keyed cache)
        self._bound_counters = BoundCounters()
        self.backbone = backbone or InMemoryBackbone()
        self.backbone.network = network
        #: optional event-sourced durable core (see repro.store); exactly-
        #: once outcomes need the delivery pipeline, so a store implies one
        self.store = store
        if store is not None and delivery is None:
            delivery = DeliveryPolicy()
        # adaptive QoS needs the reliable pipeline to act on (bounded queues,
        # pacing and shedding all live in the delivery manager)
        if qos is not None and delivery is None:
            delivery = DeliveryPolicy()
        # one delivery pipeline shared by every internal source and producer:
        # a DeliveryPolicy makes it store-and-forward (retries, message boxes,
        # DLQ); without one it runs the direct policy, where a failed send
        # ends the subscription
        self.message_boxes: Optional[MessageBoxRegistry] = (
            MessageBoxRegistry(network, f"{address}/msgbox")
            if delivery is not None
            else None
        )
        self.qos: Optional[AdaptiveQosController] = (
            AdaptiveQosController(network.clock, policy=qos)
            if qos is not None
            else None
        )
        self.delivery_manager = DeliveryManager(
            network,
            policy=delivery or BEST_EFFORT,
            seed=delivery_seed,
            message_boxes=self.message_boxes,
            qos=self.qos,
        )
        topics = topic_namespace or TopicNamespace()
        # internal per-version implementations on hidden sub-addresses; the
        # manager EPRs they mint are handed to clients verbatim, so Renew /
        # Unsubscribe / GetStatus / Pull flow to them directly, already in
        # the right dialect.
        self.wse_sources: dict[WseVersion, EventSource] = {}
        for version in wse_versions if wse_versions is not None else list(WseVersion):
            tag = version.name.lower()
            self.wse_sources[version] = EventSource(
                network,
                f"{address}/{tag}",
                version=version,
                manager_address=f"{address}/{tag}/subscriptions",
                topic_header=mediation.WSE_TOPIC_HEADER,
                delivery_manager=self.delivery_manager,
                debug_linear_match=debug_linear_match,
                batching=batching,
            )
        self.wsn_producers: dict[WsnVersion, NotificationProducer] = {}
        for version in wsn_versions if wsn_versions is not None else list(WsnVersion):
            tag = version.name.lower()
            self.wsn_producers[version] = NotificationProducer(
                network,
                f"{address}/{tag}",
                version=version,
                manager_address=f"{address}/{tag}/subscriptions",
                topic_namespace=topics,
                delivery_manager=self.delivery_manager,
                debug_linear_match=debug_linear_match,
                batching=batching,
                debug_no_templates=debug_no_templates,
            )
        # pull points for firewalled WSN 1.3 consumers
        self.pullpoint_factory = (
            PullPointFactory(network, f"{address}/pullpoints", version=WsnVersion.V1_3)
            if WsnVersion.V1_3 in self.wsn_producers
            else None
        )
        #: mesh hook (see repro.mesh.node): consulted on every publish, inside
        #: the publish span; returning True means the router took the message
        #: (forwarded it to its owning shard) and local fan-out is skipped
        self.publish_router: Optional[
            Callable[[XElem, Optional[str]], bool]
        ] = None
        # capture the identity each granted Subscribe mints — (family, tag,
        # sub_id, granted absolute expiry) — for the store
        self._last_granted: Optional[tuple[str, str, str, Optional[float]]] = None
        for version, source in self.wse_sources.items():
            source.store.on_created.append(
                self._wse_granted_hook(version.name.lower())
            )
        for version, producer in self.wsn_producers.items():
            producer.subscription_listeners.append(
                self._wsn_granted_hook(version.name.lower())
            )
        # the front door
        self.endpoint = SoapEndpoint(network, address)
        self.endpoint.on_any(self._front_door)
        # bridging roles (lazy): the broker as subscriber/consumer upstream
        self._ingest_counter = 0
        self._ingest_endpoints: list[object] = []
        self.backbone.start(self._fan_out)
        if self.store is not None:
            self.store.attach(self)

    def _wse_granted_hook(self, tag: str):
        def on_created(subscription) -> None:
            self._last_granted = ("wse", tag, subscription.id, subscription.expires)

        return on_created

    def _wsn_granted_hook(self, tag: str):
        def on_event(event: str, subscription) -> None:
            if event == "created":
                self._last_granted = (
                    "wsn",
                    tag,
                    subscription.key,
                    subscription.resource.termination_time,
                )

        return on_event

    def epr(self) -> EndpointReference:
        return EndpointReference(self.address)

    def close(self) -> None:
        self.endpoint.close()
        for source in self.wse_sources.values():
            source.close()
        for producer in self.wsn_producers.values():
            producer.close()
        if self.message_boxes is not None:
            self.message_boxes.close()

    # --- delivery pump ----------------------------------------------------------------

    def pump_deliveries(self) -> int:
        """Run delivery retries and batch windows already due on the virtual
        clock."""
        return self.delivery_manager.run_due()

    def run_deliveries_until_idle(self, *, deadline: Optional[float] = None) -> int:
        """Fast-forward the clock until the delivery pipeline drains."""
        return self.delivery_manager.run_until_idle(deadline=deadline)

    # --- the front door -----------------------------------------------------------

    def _front_door(
        self, envelope: SoapEnvelope, headers: MessageHeaders
    ) -> Optional[SoapEnvelope]:
        instr = self.network.instrumentation
        if not instr.enabled:
            try:
                spec = detect_spec(envelope)
            except SpecDetectionError as exc:
                self.stats.detection_failures += 1
                raise SoapFault(
                    FaultCode.SENDER, f"specification detection failed: {exc}"
                )
        else:
            with instr.span("detect_spec") as span:
                try:
                    spec = detect_spec(envelope)
                except SpecDetectionError as exc:
                    self.stats.detection_failures += 1
                    instr.count("broker.detection_failures")
                    raise SoapFault(
                        FaultCode.SENDER, f"specification detection failed: {exc}"
                    )
                span.set("family", _family_tag(spec))
                span.set("version", spec.version.name.lower())
                span.set("operation", spec.operation)
            family = _family_tag(spec)
            version = spec.version.name.lower()
            request_key = family + ":" + version
            request_counter = self._bound_counters.probe(instr, request_key)
            if request_counter is None:
                request_counter = self._bound_counters.get(
                    instr, request_key, "broker.requests",
                    family=family, version=version,
                )
            request_counter.inc()
        self.stats.record(spec)
        if spec.operation == "Notify" and spec.family is SpecFamily.WS_NOTIFICATION:
            return self._accept_wsn_publication(envelope, spec)
        self._last_granted = None
        reply = self._route(envelope, headers, spec)
        if spec.operation == "Subscribe":  # only reached on success (no fault)
            granted, self._last_granted = self._last_granted, None
            if self.store is not None:
                self.store.record_subscribe(envelope, headers.action, granted)
        return reply

    def _route(
        self, envelope: SoapEnvelope, headers: MessageHeaders, spec: DetectedSpec
    ) -> Optional[SoapEnvelope]:
        if spec.operation == "CreatePullPoint":
            if self.pullpoint_factory is None:
                raise SoapFault(FaultCode.SENDER, "pull points require WSN 1.3")
            return self.pullpoint_factory._handle_create(envelope, headers)
        if spec.family is SpecFamily.WS_EVENTING:
            implementation = self.wse_sources.get(spec.version)
        else:
            implementation = self.wsn_producers.get(spec.version)
        if implementation is None:
            raise SoapFault(
                FaultCode.SENDER,
                f"{spec.describe()} is not enabled on this broker",
            )
        handler = implementation.endpoint._handlers.get(headers.action)
        if handler is None:
            # WSE 01/2004 mounts manager ops on the source endpoint itself, so
            # they resolve above; for every other version, management flows to
            # the subscription-manager EPR minted at Subscribe time, not here.
            raise SoapFault(
                FaultCode.SENDER,
                f"operation {spec.operation!r} ({spec.describe()}) is not accepted "
                "at the broker front door; management operations go to the "
                "subscription-manager EPR",
            )
        return handler(envelope, headers)

    def _accept_wsn_publication(
        self, envelope: SoapEnvelope, spec: DetectedSpec
    ) -> None:
        body = envelope.body_element()
        items = mediation.neutral_from_wsn_notify(
            body, spec.version, instrumentation=self.network.instrumentation
        )
        for item in items:
            self.publish(item.payload, topic=item.topic)
        return None

    # --- publication & fan-out ------------------------------------------------------

    def publish(self, payload: XElem, *, topic: Optional[str] = None) -> None:
        """Publish a notification through the backbone to every consumer
        whose subscription matches — regardless of which spec they used."""
        instr = self.network.instrumentation
        self.stats.publications += 1
        store = self.store
        if not instr.enabled:
            if store is not None:
                store.record_publish(payload, topic, None)
            try:
                if self.publish_router is not None and self.publish_router(
                    payload, topic
                ):
                    if store is not None:
                        store.record_routed()
                    return
                self.backbone.publish(payload, topic)
            finally:
                if store is not None:
                    store.end_publish()
            return
        publications_counter = self._bound_counters.probe(instr, "publications")
        if publications_counter is None:
            publications_counter = self._bound_counters.get(
                instr, "publications", "broker.publications"
            )
        publications_counter.inc()
        # a mediated publish arrives inside a dispatch span that already
        # carries the origin's lineage; a locally-originated one mints here
        originating = instr.trace_context() is None
        phases = instr.phases
        timer = phases.begin() if phases is not None else 0
        with instr.span("broker.publish", mint=True, topic=topic or "") as span:
            # direct ledger write: mint=True guarantees span.lineage
            instr._ledger_record(
                span.lineage,
                "published" if originating else "mediated",
                broker=self.address,
                topic=topic or "",
            )
            flight = instr.flight
            if flight.enabled:
                flight.record(
                    "publish",
                    broker=self.address,
                    topic=topic or "",
                    lineage=span.lineage,
                    origin="local" if originating else "mediated",
                )
            # transactional outbox: the publish record (and the message id
            # that stamps every delivery item) exists before any fan-out
            if store is not None:
                store.record_publish(payload, topic, instr.trace_context())
            try:
                if self.publish_router is not None and self.publish_router(
                    payload, topic
                ):
                    if store is not None:
                        store.record_routed()
                    return
                self.backbone.publish(payload, topic)
            finally:
                if store is not None:
                    store.end_publish()
                if phases is not None:
                    phases.end("publish", timer)

    def _fan_out(self, payload: XElem, topic: Optional[str]) -> None:
        instr = self.network.instrumentation
        if not instr.enabled:
            self._fan_out_all(payload, topic)
            return
        with instr.span("broker.fan_out"):
            self._fan_out_all(payload, topic)

    def _fan_out_all(self, payload: XElem, topic: Optional[str]) -> None:
        if self.debug_linear_match:
            self._fan_out_all_linear(payload, topic)
            return
        instr = self.network.instrumentation
        # freeze once at the broker: every internal source/producer (and the
        # whole delivery machinery below them) shares this one instance
        if not payload.frozen:
            payload = payload.copy().freeze()
            if instr.enabled:
                self._bound_counters.get(
                    instr, "payload_copies", "fanout.payload_copies",
                    family="broker",
                ).inc()
        skips_counter = (
            self._bound_counters.get(
                instr, "index_skips", "fanout.index_skips", family="broker"
            )
            if instr.enabled
            else None
        )
        for source in self.wse_sources.values():
            if not source.store.has_subscriptions():
                if skips_counter is not None:
                    skips_counter.inc()
                continue
            source.publish(payload, topic=topic)
        for producer in self.wsn_producers.values():
            if topic is None and producer.version.requires_topic:
                continue  # <=1.2 subscriptions are all topic-filtered anyway
            if not producer.has_subscriptions():
                # still validate the topic and refresh GetCurrentMessage
                producer.note_publication(payload, topic)
                if skips_counter is not None:
                    skips_counter.inc()
                continue
            producer.publish(payload, topic=topic)

    def _fan_out_all_linear(self, payload: XElem, topic: Optional[str]) -> None:
        for source in self.wse_sources.values():
            source.publish(payload, topic=topic)
        for producer in self.wsn_producers.values():
            if topic is None and producer.version.requires_topic:
                continue  # <=1.2 subscriptions are all topic-filtered anyway
            producer.publish(payload, topic=topic)

    def flush(self) -> None:
        """Flush wrapped-mode batches in the internal WSE sources and any
        pending per-sink Notify batches in the WSN producers."""
        for source in self.wse_sources.values():
            source.flush()
        for producer in self.wsn_producers.values():
            producer.flush_batches()

    # --- introspection ---------------------------------------------------------------

    def subscription_count(self) -> int:
        return sum(len(s.store) for s in self.wse_sources.values()) + sum(
            len(p.live_subscriptions()) for p in self.wsn_producers.values()
        )

    # --- bridging: the broker as a consumer of external producers ------------------------

    def bridge_from_wse_source(
        self,
        source: EndpointReference,
        *,
        version: WseVersion = WseVersion.V2004_08,
        filter: Optional[str] = None,
        filter_namespaces: Optional[dict[str, str]] = None,
    ) -> None:
        """Subscribe the broker to an external WS-Eventing source; everything
        it pushes is re-published to all broker subscribers (mediation from
        WSE publishers to consumers of either spec)."""
        self._ingest_counter += 1
        ingest_address = f"{self.address}/ingest-{self._ingest_counter}"
        ingest = SoapEndpoint(self.network, ingest_address)

        def on_notification(envelope: SoapEnvelope, headers: MessageHeaders):
            item = mediation.neutral_from_wse_envelope(
                envelope, instrumentation=self.network.instrumentation
            )
            self.publish(item.payload, topic=item.topic)
            return None

        ingest.on_any(on_notification)
        self._ingest_endpoints.append(ingest)
        subscriber = WseSubscriber(self.network, version=version)
        subscriber.subscribe(
            source,
            notify_to=EndpointReference(ingest_address),
            mode=DeliveryMode.PUSH,
            filter=filter,
            filter_namespaces=filter_namespaces,
        )

    def bridge_from_wsn_producer(
        self,
        producer: EndpointReference,
        *,
        version: WsnVersion = WsnVersion.V1_3,
        topic: Optional[str] = None,
        topic_dialect: Optional[str] = None,
    ) -> None:
        """Subscribe the broker to an external WS-Notification producer."""
        self._ingest_counter += 1
        ingest_address = f"{self.address}/ingest-{self._ingest_counter}"
        ingest = SoapEndpoint(self.network, ingest_address)

        def on_notify(envelope: SoapEnvelope, headers: MessageHeaders):
            body = envelope.body_element()
            if body.name == version.qname("Notify"):
                items = mediation.neutral_from_wsn_notify(
                    body, version, instrumentation=self.network.instrumentation
                )
                for item in items:
                    self.publish(item.payload, topic=item.topic)
            else:
                self.publish(body.copy())
            return None

        ingest.on_action(version.action("Notify"), on_notify)
        ingest.on_any(on_notify)
        self._ingest_endpoints.append(ingest)
        subscriber = WsnSubscriber(self.network, version=version)
        kwargs = {}
        if topic_dialect is not None:
            kwargs["topic_dialect"] = topic_dialect
        subscriber.subscribe(
            producer, EndpointReference(ingest_address), topic=topic, **kwargs
        )
