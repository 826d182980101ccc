"""Failure injection: lossy networks, dead endpoints, retry policies."""

import pytest

from repro.delivery import DeliveryManager, DeliveryPolicy
from repro.soap import SoapFault
from repro.transport import MessageLost, SimulatedNetwork, VirtualClock
from repro.wse import EventSink, EventSource, SubscriptionEndCode, WseSubscriber
from repro.wsn import NotificationConsumer, NotificationProducer, WsnSubscriber
from repro.xmlkit import parse_xml


def event(n=1):
    return parse_xml(f'<e:V xmlns:e="urn:fi"><e:n>{n}</e:n></e:V>')


class LossSchedule:
    """Deterministic loss: drop exactly the requests whose index is listed."""

    def __init__(self, network: SimulatedNetwork, drop_indices: set[int]) -> None:
        self.count = 0
        self.drop = drop_indices
        network.observers.append(self._observe)
        self._network = network

    def _observe(self, target, payload):
        self.count += 1
        if self.count in self.drop:
            self._network.stats.lost += 1
            raise MessageLost(target)


class TestLossyDelivery:
    def test_no_retries_loss_kills_subscription(self):
        network = SimulatedNetwork(VirtualClock())
        source = EventSource(network, "http://src")  # the direct pipeline
        sink = EventSink(network, "http://snk")
        WseSubscriber(network).subscribe(source.epr(), notify_to=sink.epr())
        LossSchedule(network, {1})  # drop the next wire request
        source.publish(event())
        assert sink.received == []
        assert source.ended_subscriptions
        assert source.ended_subscriptions[0][1] is SubscriptionEndCode.DELIVERY_FAILURE

    def test_retry_recovers_from_transient_loss(self):
        network = SimulatedNetwork(VirtualClock())
        manager = DeliveryManager(
            network, policy=DeliveryPolicy(max_attempts=3, jitter=0.0)
        )
        source = EventSource(network, "http://src", delivery_manager=manager)
        sink = EventSink(network, "http://snk")
        WseSubscriber(network).subscribe(source.epr(), notify_to=sink.epr())
        LossSchedule(network, {1})  # first attempt lost, retry succeeds
        source.publish(event())
        manager.run_until_idle()
        assert len(sink.received) == 1
        assert not source.ended_subscriptions

    def test_hard_failure_not_retried(self):
        network = SimulatedNetwork(VirtualClock())
        source = EventSource(network, "http://src")  # the direct pipeline
        sink = EventSink(network, "http://snk")
        WseSubscriber(network).subscribe(source.epr(), notify_to=sink.epr())
        sink.close()  # address gone: AddressUnreachable is permanent
        network.stats.reset()
        source.publish(event())
        assert source.ended_subscriptions
        # exactly one attempt: no retry storm against a dead address
        assert network.stats.refused == 1

    def test_seeded_loss_rate_is_reproducible(self):
        outcomes = []
        for _ in range(2):
            network = SimulatedNetwork(VirtualClock(), loss_rate=0.5, seed=7)
            network.register("http://svc", lambda req: b"ok")
            results = []
            for _ in range(20):
                try:
                    network.send_request("http://svc", b"x")
                    results.append(True)
                except MessageLost:
                    results.append(False)
            outcomes.append(results)
        assert outcomes[0] == outcomes[1]
        assert any(outcomes[0]) and not all(outcomes[0])


class TestWsnFailureHandling:
    def test_dead_consumer_removes_subscription_without_poisoning_others(self):
        network = SimulatedNetwork(VirtualClock())
        producer = NotificationProducer(network, "http://prod")
        dead = NotificationConsumer(network, "http://dead")
        alive = NotificationConsumer(network, "http://alive")
        subscriber = WsnSubscriber(network)
        subscriber.subscribe(producer.epr(), dead.epr(), topic="t")
        subscriber.subscribe(producer.epr(), alive.epr(), topic="t")
        dead.close()
        producer.publish(event(), topic="t")
        assert len(alive.received) == 1
        # second publication: only the live subscription remains
        assert producer.publish(event(), topic="t") == 1

    def test_fault_from_handler_crosses_the_wire_intact(self):
        network = SimulatedNetwork(VirtualClock())
        producer = NotificationProducer(network, "http://prod")
        consumer = NotificationConsumer(network, "http://cons")
        subscriber = WsnSubscriber(network)
        handle = subscriber.subscribe(producer.epr(), consumer.epr(), topic="t")
        subscriber.unsubscribe(handle)
        with pytest.raises(SoapFault) as excinfo:
            subscriber.renew(handle, "PT1H")
        assert excinfo.value.subcode.local == "ResourceUnknownFault"

    def test_expired_subscription_management_faults(self):
        network = SimulatedNetwork(VirtualClock())
        producer = NotificationProducer(network, "http://prod")
        consumer = NotificationConsumer(network, "http://cons")
        subscriber = WsnSubscriber(network)
        handle = subscriber.subscribe(
            producer.epr(), consumer.epr(), topic="t", initial_termination="PT10S"
        )
        network.clock.advance(20.0)
        with pytest.raises(SoapFault):
            subscriber.pause(handle)
