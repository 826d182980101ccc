"""Cache-invalidation tests for the Notify envelope byte-templates.

The byte-template cache must never serve a stale envelope: templates are
dropped when the last subscription referencing their sink goes away —
unsubscribe, lease-expiry sweep — and wiped wholesale after a crash-recovery
replay.  An EPR change keys a different cache slot by construction (the sink
signature is recomputed per send), which the resubscribe test verifies on
the wire.  The topic is a render slot, not part of the key: publishing many
topics to a sink compiles one template, and each rendered topic matches the
tree path byte for byte.
"""

import pytest

from repro.messenger import WsMessenger
from repro.soap import SoapEnvelope, SoapVersion, serialize_envelope
from repro.store import BrokerStore, MemoryEventLog, recover_broker
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import MessageHeaders, apply_headers
from repro.wsn import (
    NotificationConsumer,
    NotificationProducer,
    WsnSubscriber,
    WsnVersion,
)
from repro.wsn.messages import NotificationMessage, build_notify
from repro.wsn.templates import TOPIC_SENTINEL, NotifyTemplateCache
from repro.wsrf.resource import RESOURCE_ID
from repro.xmlkit import parse_xml
from repro.xmlkit.element import text_element
from repro.xmlkit.names import Namespaces, QName
from repro.xmlkit.template import TEMPLATE_STATS


def event(n=1):
    return parse_xml(f'<e:V xmlns:e="urn:tmpl"><e:n>{n}</e:n></e:V>')


@pytest.fixture
def network():
    return SimulatedNetwork(VirtualClock())


@pytest.fixture
def stack(network):
    producer = NotificationProducer(network, "http://tmpl-producer")
    consumer = NotificationConsumer(network, "http://tmpl-consumer")
    subscriber = WsnSubscriber(network)
    return producer, consumer, subscriber


class TestEviction:
    def test_publish_compiles_then_reuses_one_template(self, stack):
        producer, consumer, subscriber = stack
        subscriber.subscribe(producer.epr(), consumer.epr(), topic="t")
        assert len(producer.templates) == 0
        producer.publish(event(1), topic="t")
        producer.publish(event(2), topic="t")
        assert len(producer.templates) == 1
        assert len(consumer.received) == 2

    def test_unsubscribe_drops_the_sink_templates(self, stack):
        producer, consumer, subscriber = stack
        handle = subscriber.subscribe(producer.epr(), consumer.epr(), topic="t")
        producer.publish(event(), topic="t")
        assert len(producer.templates) == 1
        subscriber.unsubscribe(handle)
        assert len(producer.templates) == 0

    def test_shared_sink_survives_until_last_reference(self, stack):
        producer, consumer, subscriber = stack
        first = subscriber.subscribe(producer.epr(), consumer.epr(), topic="t")
        second = subscriber.subscribe(producer.epr(), consumer.epr(), topic="t")
        producer.publish(event(), topic="t")
        assert len(producer.templates) == 1
        subscriber.unsubscribe(first)
        # the other subscription still points at this sink: keep its templates
        assert len(producer.templates) == 1
        subscriber.unsubscribe(second)
        assert len(producer.templates) == 0

    def test_lease_expiry_sweep_drops_the_sink_templates(self, network, stack):
        producer, consumer, subscriber = stack
        subscriber.subscribe(
            producer.epr(), consumer.epr(), topic="t", initial_termination="PT1H"
        )
        producer.publish(event(1), topic="t")
        assert len(producer.templates) == 1
        network.clock.advance(3601.0)
        # the next publish sweeps due leases before matching
        assert producer.publish(event(2), topic="t") == 0
        assert len(producer.templates) == 0
        assert len(consumer.received) == 1


class TestEprChange:
    def test_resubscribed_epr_renders_through_a_fresh_template(self, network, stack):
        producer, consumer, subscriber = stack
        frames = []
        network.wire_observers.append(
            lambda obs: frames.append(bytes(obs.request))
        )
        tag = QName("urn:x-test", "Tag")
        handle = subscriber.subscribe(
            producer.epr(),
            consumer.epr().with_parameter(text_element(tag, "old-identity")),
            topic="t",
        )
        producer.publish(event(1), topic="t")
        assert any(b"old-identity" in frame for frame in frames)
        subscriber.unsubscribe(handle)
        del frames[:]
        subscriber.subscribe(
            producer.epr(),
            consumer.epr().with_parameter(text_element(tag, "new-identity")),
            topic="t",
        )
        producer.publish(event(2), topic="t")
        notify_frames = [f for f in frames if b"Notify" in f]
        assert notify_frames, "second publish reached the wire"
        # the stale sink's template cannot leak into the new EPR's envelopes
        assert all(b"old-identity" not in frame for frame in notify_frames)
        assert any(b"new-identity" in frame for frame in notify_frames)
        assert len(consumer.received) == 2


class TestRecoveryReplay:
    def test_replay_leaves_the_template_caches_empty(self, network):
        log = MemoryEventLog()
        broker = WsMessenger(network, "http://tmpl-broker", store=BrokerStore(log))
        consumer = NotificationConsumer(network, "http://tmpl-consumer")
        WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="t")
        broker.publish(event(1), topic="t")
        broker.run_deliveries_until_idle()
        assert any(len(p.templates) for p in broker.wsn_producers.values())
        broker.close()

        recovered = recover_broker(network, "http://tmpl-broker", log)
        recovered.run_deliveries_until_idle()
        # replayed publishes compiled templates mid-replay; all dropped so
        # post-recovery traffic recompiles against the converged stores
        assert all(len(p.templates) == 0 for p in recovered.wsn_producers.values())
        received_before = len(consumer.received)
        recovered.publish(event(2), topic="t")
        recovered.run_deliveries_until_idle()
        assert len(consumer.received) == received_before + 1


class TestTopicChurn:
    def test_topic_churn_compiles_once_per_sink(self, network):
        # more sinks x topics than the cache holds: a topic-keyed cache would
        # compile (and evict) one template per (sink, topic)
        producer = NotificationProducer(network, "http://churn-producer")
        subscriber = WsnSubscriber(network)
        n_sinks, n_topics = 8, 100
        assert n_sinks * n_topics > producer.templates.capacity
        sinks = [
            NotificationConsumer(network, f"http://churn-sink-{i}")
            for i in range(n_sinks)
        ]
        for sink in sinks:
            subscriber.subscribe(
                producer.epr(), sink.epr(),
                topic="churn//.", topic_dialect=Namespaces.DIALECT_TOPIC_FULL,
            )
        TEMPLATE_STATS.reset()
        for t in range(n_topics):
            assert producer.publish(event(t), topic=f"churn/t{t}") == n_sinks
        assert all(len(sink.received) == n_topics for sink in sinks)
        # one key per (sink, dialect, payload shape): every publish shares the
        # dialect and the payload namespace order
        assert TEMPLATE_STATS.misses == n_sinks
        assert TEMPLATE_STATS.fallbacks == 0
        assert TEMPLATE_STATS.hits == n_sinks * (n_topics - 1)
        assert len(producer.templates) <= n_sinks

        # a topic-less message has no Topic element: its own entry
        subscriber.subscribe(producer.epr(), sinks[0].epr())
        assert producer.publish(event(), topic=None) == 1
        assert TEMPLATE_STATS.misses == n_sinks + 1
        assert len(producer.templates) == n_sinks + 1
        assert sinks[0].received[-1].topic is None


class TestTopicSlot:
    VERSION = WsnVersion.V1_3
    PRODUCER = "http://slot-producer"
    MANAGER = "http://slot-producer/manager"
    DIALECT = Namespaces.DIALECT_TOPIC_CONCRETE

    def _consumer(self):
        return EndpointReference("http://slot-consumer").with_parameter(
            text_element(QName("urn:x-test", "Tag"), "sink-7")
        )

    def _tree_text(self, consumer, message_id, topic, sub_key, payload):
        """The tree path: build the envelope and serialize the whole tree."""
        envelope = SoapEnvelope(SoapVersion.V11)
        headers = MessageHeaders(
            to=consumer.address,
            action=self.VERSION.action("Notify"),
            message_id=message_id,
        )
        headers.echoed = [e.copy() for e in consumer.reference_parameters]
        apply_headers(envelope, headers, self.VERSION.wsa_version)
        item = NotificationMessage(
            payload,
            topic=topic,
            topic_dialect=self.DIALECT,
            subscription_reference=EndpointReference(self.MANAGER).with_parameter(
                text_element(RESOURCE_ID, sub_key)
            ),
            producer_reference=EndpointReference(self.PRODUCER),
        )
        envelope.add_body(build_notify(self.VERSION, [item]))
        return serialize_envelope(envelope)

    def test_topic_slot_is_byte_identical_to_tree_path(self):
        cache = NotifyTemplateCache(self.VERSION, self.PRODUCER, self.MANAGER)
        consumer = self._consumer()
        payload = event(3).freeze()
        compiled, outcome = cache.lookup(
            consumer, "first/topic", self.DIALECT, payload, sub_keys=["sub-1"]
        )
        assert outcome == "miss"
        for topic in ("first/topic", "second/topic", "a&b<c>d"):
            again, outcome = cache.lookup(
                consumer, topic, self.DIALECT, payload, sub_keys=["sub-1"]
            )
            assert again is compiled and outcome == "hit"
            rendered = compiled.render(
                "urn:uuid:slot-1", topic, [("sub-1", payload)]
            )
            assert rendered == self._tree_text(
                consumer, "urn:uuid:slot-1", topic, "sub-1", payload
            )
        assert "a&amp;b&lt;c&gt;d" in rendered
        assert len(cache) == 1

    def test_topicless_template_is_byte_identical_to_tree_path(self):
        cache = NotifyTemplateCache(self.VERSION, self.PRODUCER, self.MANAGER)
        consumer = self._consumer()
        payload = event(4).freeze()
        cache.lookup(consumer, "some/topic", self.DIALECT, payload, sub_keys=["s"])
        compiled, outcome = cache.lookup(
            consumer, None, self.DIALECT, payload, sub_keys=["s"]
        )
        assert outcome == "miss" and len(cache) == 2
        rendered = compiled.render("urn:uuid:slot-2", None, [("s", payload)])
        assert rendered == self._tree_text(
            consumer, "urn:uuid:slot-2", None, "s", payload
        )
        assert "Topic" not in rendered

    def test_payload_carrying_the_topic_sentinel_falls_back(self):
        cache = NotifyTemplateCache(self.VERSION, self.PRODUCER, self.MANAGER)
        payload = parse_xml(
            f'<e:V xmlns:e="urn:tmpl"><e:n>{TOPIC_SENTINEL}</e:n></e:V>'
        ).freeze()
        compiled, outcome = cache.lookup(
            self._consumer(), "t", self.DIALECT, payload, sub_keys=["s"]
        )
        assert compiled is None and outcome == "fallback"
        assert len(cache) == 0
