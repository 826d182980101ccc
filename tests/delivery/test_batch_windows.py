"""Batch windows fire on the delivery pipeline's pump with or without a
``DeliveryPolicy``: WSN per-sink batches and WSE wrapped-mode queues both
schedule their windows on the broker's one delivery manager."""

import pytest

from repro.delivery import BatchingPolicy, DeliveryPolicy
from repro.messenger import WsMessenger
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wse import DeliveryMode, EventSink, WseSubscriber
from repro.wsn import NotificationConsumer, WsnSubscriber
from repro.xmlkit import parse_xml


@pytest.mark.parametrize(
    "delivery", [None, DeliveryPolicy()], ids=["direct", "reliable"]
)
def test_windows_fire_when_the_broker_pumps(delivery):
    network = SimulatedNetwork(VirtualClock())
    broker = WsMessenger(
        network,
        "http://bw-broker",
        batching=BatchingPolicy(window=1.0),
        delivery=delivery,
    )
    consumer = NotificationConsumer(network, "http://bw-consumer")
    WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="bw")
    sink = EventSink(network, "http://bw-sink")
    WseSubscriber(network).subscribe(
        broker.epr(), notify_to=sink.epr(), mode=DeliveryMode.WRAPPED
    )
    broker.publish(parse_xml('<e:V xmlns:e="urn:bw">1</e:V>'), topic="bw")
    assert (len(consumer.received), len(sink.received)) == (0, 0)  # held
    network.clock.advance(5.0)
    broker.pump_deliveries()
    broker.run_deliveries_until_idle()
    assert (len(consumer.received), len(sink.received)) == (1, 1)
