"""Crash recovery from the event log: replayable projections end to end."""

import pytest

from repro.delivery import DeliveryPolicy, drain_message_box_wse
from repro.messenger import WsMessenger
from repro.obs import Instrumentation
from repro.obs.audit import audit
from repro.store import BrokerStore, FileEventLog, MemoryEventLog, recover_broker
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wse import DeliveryMode, EventSink, WseSubscriber
from repro.wsn import NotificationConsumer, WsnSubscriber
from repro.xmlkit import parse_xml


def event(n=1):
    return parse_xml(f'<e:V xmlns:e="urn:rc"><e:n>{n}</e:n></e:V>')


@pytest.fixture
def network():
    return SimulatedNetwork(VirtualClock())


def _broker(network, log=None, **kwargs):
    # explicit None check: an empty FileEventLog is falsy but very much a log
    store = BrokerStore(log if log is not None else MemoryEventLog())
    return WsMessenger(network, "http://rc-broker", store=store, **kwargs)


def _recover(network, log, **kwargs):
    return recover_broker(network, "http://rc-broker", log, **kwargs)


class TestIdentityPreservation:
    def test_subscription_ids_survive_the_crash(self, network):
        broker = _broker(network)
        sink = EventSink(network, "http://rc-sink")
        consumer = NotificationConsumer(network, "http://rc-consumer")
        wse_handle = WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
        wsn_handle = WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="rc")
        projection = broker.store.projection(broker)
        broker.close()
        recovered = _recover(network, broker.store.log)
        assert recovered.store.projection(recovered) == projection
        keys = set(recovered.store.projection(recovered)["subscriptions"])
        assert f"wse:v2004_08:{wse_handle.sub_id}" in keys
        assert f"wsn:v1_3:{wsn_handle.sub_id}" in keys

    def test_old_manager_eprs_still_work(self, network):
        broker = _broker(network)
        sink = EventSink(network, "http://rc-sink")
        consumer = NotificationConsumer(network, "http://rc-consumer")
        wse_subscriber = WseSubscriber(network)
        wsn_subscriber = WsnSubscriber(network)
        wse_handle = wse_subscriber.subscribe(broker.epr(), notify_to=sink.epr())
        wsn_handle = wsn_subscriber.subscribe(broker.epr(), consumer.epr(), topic="rc")
        broker.close()
        recovered = _recover(network, broker.store.log)
        # the manager EPRs minted before the crash address the new broker's
        # managers and carry the same subscription identity
        assert wse_subscriber.get_status(wse_handle)
        wse_subscriber.renew(wse_handle, "PT2H")
        wsn_subscriber.renew(wsn_handle, "PT2H")
        wse_subscriber.unsubscribe(wse_handle)
        wsn_subscriber.unsubscribe(wsn_handle)
        assert recovered.subscription_count() == 0

    def test_granted_expiry_preserved_not_regranted(self, network):
        broker = _broker(network)
        sink = EventSink(network, "http://rc-sink")
        subscriber = WseSubscriber(network)
        handle = subscriber.subscribe(broker.epr(), notify_to=sink.epr(), expires="PT1H")
        subscriber.renew(handle, "PT4H")
        network.clock.advance(1800.0)  # recovery happens half an hour in
        broker.close()
        recovered = _recover(network, broker.store.log)
        projection = recovered.store.projection(recovered)
        [entry] = projection["subscriptions"].values()
        # absolute expiry from the Renew grant, not 4h from recovery time
        assert entry["expires"] == pytest.approx(4 * 3600.0, abs=1.0)

    def test_failed_subscribe_is_not_recorded(self, network):
        from repro.soap import SoapFault

        broker = _broker(network)
        with pytest.raises(SoapFault):
            WseSubscriber(network).subscribe(broker.epr())  # push without NotifyTo
        assert [r for r in broker.store.log.records() if r.kind == "subscribe"] == []
        broker.close()
        recovered = _recover(network, broker.store.log)
        assert recovered.subscription_count() == 0

    def test_unsubscribed_subscriptions_stay_gone(self, network):
        broker = _broker(network)
        sink = EventSink(network, "http://rc-sink")
        keeper = EventSink(network, "http://rc-keeper")
        subscriber = WseSubscriber(network)
        handle = subscriber.subscribe(broker.epr(), notify_to=sink.epr())
        kept = subscriber.subscribe(broker.epr(), notify_to=keeper.epr())
        subscriber.unsubscribe(handle)
        broker.close()
        recovered = _recover(network, broker.store.log)
        assert recovered.subscription_count() == 1
        keys = set(recovered.store.projection(recovered)["subscriptions"])
        assert keys == {f"wse:v2004_08:{kept.sub_id}"}


class TestObligationRecovery:
    def test_no_duplicate_deliveries_on_replay(self, network):
        instrumentation = Instrumentation.attach(network)
        broker = _broker(network)
        sink = EventSink(network, "http://rc-sink")
        WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
        for n in range(4):
            broker.publish(event(n), topic="rc")
        broker.run_deliveries_until_idle()
        assert len(sink.received) == 4
        broker.close()
        recovered = _recover(network, broker.store.log)
        recovered.run_deliveries_until_idle()
        # settled deliveries replay as suppressed obligations, never re-sent
        assert len(sink.received) == 4
        assert recovered.store.stats.suppressed == 4
        recovered.publish(event(9), topic="rc")
        recovered.run_deliveries_until_idle()
        assert len(sink.received) == 5
        assert audit(instrumentation, scenario="recovery").passed

    def test_parked_obligations_survive_and_drain(self, network):
        network.add_zone("rc-dmz", blocks_inbound=True)
        broker = _broker(network)
        sink = EventSink(network, "http://rc-inside", zone="rc-dmz")
        WseSubscriber(network, zone="rc-dmz").subscribe(broker.epr(), notify_to=sink.epr())
        broker.publish(event(1), topic="rc")
        broker.publish(event(2), topic="rc")
        broker.run_deliveries_until_idle()
        projection = broker.store.projection(broker)
        assert projection["boxes"]["http://rc-inside"]["pending"] == 2
        broker.close()
        recovered = _recover(network, broker.store.log)
        recovered.run_deliveries_until_idle()
        assert recovered.store.stats.reparked == 2
        assert recovered.store.projection(recovered) == projection
        box = recovered.message_boxes.get("http://rc-inside")
        payloads = drain_message_box_wse(network, box.epr(), zone="rc-dmz")
        assert [p.full_text() for p in payloads] == ["1", "2"]

    def test_dead_letters_survive_and_replay(self, network):
        policy = DeliveryPolicy(max_attempts=2, base_backoff=1.0, jitter=0.0)
        broker = _broker(network, delivery=policy)
        consumer = NotificationConsumer(network, "http://rc-dark")
        WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="rc")
        consumer.close()
        broker.publish(event(1), topic="rc")
        broker.run_deliveries_until_idle()
        assert len(broker.delivery_manager.dlq) == 1
        broker.close()
        recovered = _recover(network, broker.store.log, delivery=policy)
        recovered.run_deliveries_until_idle()
        assert recovered.store.stats.redead == 1
        assert len(recovered.delivery_manager.dlq) == 1
        # the consumer comes back; DLQ replay delivers exactly once
        revived = NotificationConsumer(network, "http://rc-dark")
        assert recovered.delivery_manager.dlq.replay(recovered.delivery_manager) == 1
        recovered.run_deliveries_until_idle()
        assert len(revived.received) == 1

    def test_dlq_replay_then_live_traffic_each_arrive_once(self, network):
        policy = DeliveryPolicy(max_attempts=2, base_backoff=1.0, jitter=0.0)
        broker = _broker(network, delivery=policy)
        sink = EventSink(network, "http://rc-sink")
        WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
        consumer = NotificationConsumer(network, "http://rc-dark")
        WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="rc")
        # the WSN consumer goes dark: its copy dead-letters (the subscription
        # itself survives — the DLQ owns the message)
        consumer.close()
        broker.publish(event(1), topic="rc")
        broker.run_deliveries_until_idle()
        assert len(sink.received) == 1
        broker.close()
        recovered = _recover(network, broker.store.log, delivery=policy)
        recovered.run_deliveries_until_idle()
        assert recovered.subscription_count() == 2
        revived = NotificationConsumer(network, "http://rc-dark")
        assert recovered.delivery_manager.dlq.replay(recovered.delivery_manager) == 1
        recovered.run_deliveries_until_idle()
        assert len(recovered.delivery_manager.dlq) == 0
        assert len(revived.received) == 1
        assert len(sink.received) == 1  # the settled delivery is not re-sent
        recovered.publish(event(2), topic="rc")
        recovered.run_deliveries_until_idle()
        assert len(revived.received) == 2
        assert len(sink.received) == 2

    def test_pull_queue_trimmed_to_undrained_suffix(self, network):
        broker = _broker(network)
        subscriber = WseSubscriber(network)
        handle = subscriber.subscribe(broker.epr(), mode=DeliveryMode.PULL)
        for n in range(4):
            broker.publish(event(n), topic="rc")
        broker.run_deliveries_until_idle()
        assert len(subscriber.pull(handle, max_messages=2)) == 2
        projection = broker.store.projection(broker)
        [entry] = projection["subscriptions"].values()
        assert entry["queued"] == 2
        broker.close()
        recovered = _recover(network, broker.store.log)
        recovered.run_deliveries_until_idle()
        assert recovered.store.projection(recovered) == projection
        # only the undrained suffix is still pullable
        remaining = subscriber.pull(handle)
        assert [p.full_text() for p in remaining] == ["2", "3"]

    def test_wsn_pause_state_survives(self, network):
        broker = _broker(network)
        consumer = NotificationConsumer(network, "http://rc-consumer")
        subscriber = WsnSubscriber(network)
        handle = subscriber.subscribe(broker.epr(), consumer.epr(), topic="rc")
        subscriber.pause(handle)
        broker.publish(event(1), topic="rc")
        broker.run_deliveries_until_idle()
        assert consumer.received == []
        broker.close()
        recovered = _recover(network, broker.store.log)
        recovered.run_deliveries_until_idle()
        [entry] = recovered.store.projection(recovered)["subscriptions"].values()
        assert entry["paused"] is True

    def test_dangling_obligations_fail_closed(self, network):
        """A crash strands an unsettled obligation; recovery closes the books."""
        instrumentation = Instrumentation.attach(network)
        policy = DeliveryPolicy(max_attempts=5, base_backoff=10.0, jitter=0.0)
        broker = _broker(network, delivery=policy)
        consumer = NotificationConsumer(network, "http://rc-dark")
        WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="rc")
        consumer.close()
        broker.publish(event(1), topic="rc")
        # crash while the retry is still backing off: no outcome was logged
        broker.close()
        recovered = _recover(network, broker.store.log, delivery=policy)
        recovered.run_deliveries_until_idle()
        assert recovered.store.stats.crash_failures == 1
        result = audit(instrumentation, scenario="dangling")
        assert result.passed
        assert result.failed == 1


class TestFileBackedRecovery:
    def test_fresh_process_recovery_from_disk(self, network, tmp_path):
        path = tmp_path / "broker.log"
        broker = _broker(network, log=FileEventLog(str(path)))
        sink = EventSink(network, "http://rc-sink")
        handle = WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
        broker.publish(event(1), topic="rc")
        broker.run_deliveries_until_idle()
        projection = broker.store.projection(broker)
        broker.close()
        broker.store.log.close()
        # a "fresh process": re-open the log purely from its on-disk bytes
        recovered = _recover(network, FileEventLog(str(path)))
        recovered.run_deliveries_until_idle()
        assert recovered.store.projection(recovered) == projection
        assert len(sink.received) == 1  # no duplicate delivery
        recovered.publish(event(2), topic="rc")
        recovered.run_deliveries_until_idle()
        assert len(sink.received) == 2
        keys = set(recovered.store.projection(recovered)["subscriptions"])
        assert keys == {f"wse:v2004_08:{handle.sub_id}"}
