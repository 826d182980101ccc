"""Formerly-silent exception swallows now surface as a counter.

Both sites still skip the failing element (an unparsable filter must not
take down demand reconciliation; an unparsable frame must not break a
figure trace) — but the skip is recorded in
``obs.swallowed_errors_total{site=...}`` so it can never again hide a
broker pausing real publishers or a figure silently losing edges.
"""

from types import SimpleNamespace

from repro.comparison.figures import _Recorder
from repro.obs.instrument import Instrumentation
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wsn.broker import NotificationBroker


def counter_total(instrumentation, site):
    values = instrumentation.metrics.counter_values("obs.swallowed_errors_total")
    return sum(v for k, v in values.items() if f"site={site}" in k)


def test_demand_for_counts_unparsable_filters():
    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    broker = object.__new__(NotificationBroker)  # unit-level: no endpoints
    broker.network = network
    good = SimpleNamespace(paused=False, topic_expression="jobs")
    bad = SimpleNamespace(paused=False, topic_expression="")  # FilterError
    broker.producer = SimpleNamespace(live_subscriptions=lambda: [good, bad])

    assert broker.demand_for("jobs") == 1  # the bad filter is skipped...
    assert counter_total(
        instrumentation, "wsn.broker.demand_for"
    ) == 1  # ...but the skip is recorded


def test_figure_recorder_counts_unparsable_frames():
    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    recorder = _Recorder(network, labels={})
    recorder._observe(
        SimpleNamespace(ok=True, request=b"not an http request", address="x")
    )
    assert recorder.interactions == []
    assert counter_total(instrumentation, "comparison.figures.recorder") == 1


def test_destroy_registration_counts_upstream_unsubscribe_fault():
    from repro.soap.fault import FaultCode, SoapFault

    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    broker = object.__new__(NotificationBroker)  # unit-level: no endpoints
    broker.network = network

    def failing_unsubscribe(handle):
        raise SoapFault(FaultCode.SENDER, "already gone")

    broker._upstream_subscriber = SimpleNamespace(unsubscribe=failing_unsubscribe)
    registration = SimpleNamespace(destroyed=False, upstream=object())

    broker.destroy_registration(registration)
    assert registration.destroyed  # the registration is still torn down...
    assert counter_total(instrumentation, "wsn.broker.destroy_registration") == 1


def test_producer_counts_double_destroy_after_delivery_failure():
    from repro.wsn import NotificationConsumer, NotificationProducer, WsnSubscriber
    from repro.wsn.messages import NotificationMessage
    from repro.xmlkit import parse_xml

    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    producer = NotificationProducer(network, "http://swallow-producer")
    consumer = NotificationConsumer(network, "http://swallow-consumer")
    handle = WsnSubscriber(network).subscribe(
        producer.epr(), consumer.epr(), topic="t"
    )
    subscription = producer._subscriptions[handle.sub_id]
    # the resource dies first (e.g. swept mid-delivery), then the consumer:
    # the failure-path destroy now hits ResourceUnknownFault
    producer.registry.destroy(subscription.key, reason="test teardown")
    consumer.close()
    producer._deliver(
        subscription, [NotificationMessage(parse_xml("<e/>"), topic="t")]
    )
    assert counter_total(instrumentation, "wsn.producer.destroy_after_failure") == 1


def test_convergence_counts_unreachable_end_to():
    from repro.convergence.service import ConvergedConsumer, ConvergedSource, ConvergedSubscriber
    from repro.xmlkit import parse_xml

    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    source = ConvergedSource(network, "http://swallow-source")
    consumer = ConvergedConsumer(network, "http://swallow-sink")
    end_sink = ConvergedConsumer(network, "http://swallow-end")
    ConvergedSubscriber(network).subscribe(
        source.epr(), consumer=consumer.epr(), topic="t", end_to=end_sink.epr()
    )
    # both the consumer and the EndTo sink vanish: delivery fails, and the
    # SubscriptionEnd notice cannot be delivered either
    consumer.close()
    end_sink.close()
    source.publish(parse_xml("<e/>"), topic="t")
    assert counter_total(instrumentation, "convergence.send_end") == 1


def test_jms_consumer_double_close_is_counted():
    from repro.baselines.jms.provider import JmsProvider
    from repro.baselines.jms.session import Connection

    provider = JmsProvider()
    provider.instrumentation = instrumentation = Instrumentation(provider.clock)
    session = Connection(provider, "client-1").create_session()
    consumer = session.create_consumer(provider.topic("t"))
    # detach the subscription behind the consumer's back, then close
    provider.topic("t")._subscribers.remove(consumer._subscription)
    consumer.close()
    assert counter_total(instrumentation, "jms.consumer.close") == 1


def test_uninstrumented_runs_still_skip_silently():
    network = SimulatedNetwork(VirtualClock())  # null instrumentation
    recorder = _Recorder(network, labels={})
    recorder._observe(
        SimpleNamespace(ok=True, request=b"garbage", address="x")
    )
    assert recorder.interactions == []  # no crash, no counter, no trace


def test_pullpoint_overflow_drop_is_counted():
    from repro.soap.envelope import SoapEnvelope, SoapVersion
    from repro.wsn.pullpoint import PullPoint
    from repro.wsn.versions import WsnVersion
    from repro.xmlkit.element import XElem

    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    version = WsnVersion.V1_3
    pull_point = PullPoint(network, "http://pp-overflow", version, capacity=2)
    notify = XElem(version.qname("Notify"))
    for _ in range(5):
        notify.append(XElem(version.qname("NotificationMessage")))
    envelope = SoapEnvelope(SoapVersion.V11)
    envelope.add_body(notify)

    pull_point._handle_notify(envelope, None)
    assert len(pull_point.queue) == 2  # the queue keeps what fits...
    # ...and the three dropped messages are on the record
    assert counter_total(instrumentation, "wsn.pullpoint.capacity_overflow") == 3


def test_jms_drain_does_not_strand_messages_behind_a_poisoned_one():
    import pytest

    from repro.baselines.jms.messages import TextMessage
    from repro.baselines.jms.provider import JmsProvider
    from repro.messenger.adapters import JmsBackbone
    from repro.xmlkit import parse_xml

    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    backbone = JmsBackbone(JmsProvider(network.clock))
    backbone.network = network  # what WsMessenger does when mounting it
    delivered = []

    def deliver(payload, topic):
        if payload.name.local == "bad":
            raise ValueError("poison")
        delivered.append((payload.name.local, topic))

    backbone.start(deliver)
    # two poisoned messages are already buffered when the drain runs
    backbone._producer.send(TextMessage(text="<bad/>"))
    backbone._producer.send(TextMessage(text="<bad/>"))
    with pytest.raises(ValueError):
        backbone.publish(parse_xml("<good/>"), "t")

    assert delivered == [("good", "t")]  # nothing stranded behind the poison
    # the first error surfaced (raised above); only the second was swallowed
    assert counter_total(instrumentation, "messenger.adapters.jms_drain") == 1

def test_store_recovery_counts_failed_subscribe_replay():
    from repro.messenger.broker import WsMessenger
    from repro.store.core import BrokerStore
    from repro.store.log import MemoryEventLog
    from repro.store.records import SubscribeRecorded
    from repro.store.recovery import _replay_subscribe

    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    store = BrokerStore(MemoryEventLog())
    broker = WsMessenger(network, "http://replay-broker", store=store)
    # a logged Subscribe whose wire bytes no longer parse as a Subscribe:
    # the front door answers with a fault, not a grant
    record = SubscribeRecorded(
        at=0.0,
        family="wsn",
        tag="v1_3",
        sub_id="sub-bogus",
        action="urn:not-subscribe",
        wire="<bogus/>",
        expires=None,
    )
    _replay_subscribe(broker, store, record)
    assert store.stats.recovered_subscriptions == 0  # the replay moved on...
    assert counter_total(instrumentation, "store.recovery.replay_subscribe") == 1


def test_corba_batch_push_does_not_strand_events_behind_a_poisoned_one():
    import pytest

    from repro.baselines.corba.events import StructuredEvent
    from repro.messenger.adapters import CorbaBackbone

    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    backbone = CorbaBackbone()
    backbone.network = network
    delivered = []

    def deliver(payload, topic):
        if payload.name.local == "bad":
            raise ValueError("poison")
        delivered.append(payload.name.local)

    backbone.start(deliver)
    servant = next(iter(backbone.orb._servants.values()))
    batch = [
        StructuredEvent(
            domain_name="d", type_name="t", filterable_data={}, payload=payload
        ).to_wire()
        for payload in ("<bad/>", "<bad/>", "<ok/>")
    ]
    with pytest.raises(ValueError):
        servant("push_structured_events", [batch])

    assert delivered == ["ok"]
    assert counter_total(instrumentation, "messenger.adapters.corba_push") == 1
