"""Pinned failure behaviour of every outbound send site under the direct
(no ``DeliveryPolicy``) pipeline.

One scenario per send site makes the consumer unreachable and publishes
(or expires) once.  Each pins what a failed send leaves behind:

* the consumer-bound wire bytes (uninstrumented run, message ids restarted
  so the bytes are reproducible), as ``(address, length, sha256 prefix)``;
* WSE ``ended_subscriptions`` codes and WSN destroyed subscription keys;
* the component's ``delivery_failures`` as ``(family, stage, kind, sink)``;
* the ``delivery.failed_total`` label sets and counts;
* the lineage books (instrumented run): how many obligations opened and
  how each one closed (``failed`` for every send that carried one).

A WSN batched flush must end *every* subscription it carried.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import pytest

from repro.delivery.policy import BatchingPolicy
from repro.obs.instrument import Instrumentation
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wsa.headers import reset_message_counter
from repro.wse import DeliveryMode, EventSink, EventSource, WseSubscriber
from repro.wsn import NotificationConsumer, NotificationProducer, WsnSubscriber
from repro.xmlkit import parse_xml

SINK = "http://pin-sink"


def _event():
    return parse_xml('<e:V xmlns:e="urn:pin"><e:n>1</e:n></e:V>')


@dataclass
class Outcome:
    wire: list = field(default_factory=list)
    ended: list = field(default_factory=list)
    destroyed: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    failed_total: dict = field(default_factory=dict)
    books: dict = field(default_factory=dict)


def _wse(
    network, *, mode=DeliveryMode.PUSH, end_to=False, batch_size=10, subscriptions=1
):
    source = EventSource(network, "http://pin-src", wrapped_batch_size=batch_size)
    sink = EventSink(network, SINK)
    for _ in range(subscriptions):
        WseSubscriber(network).subscribe(
            source.epr(),
            notify_to=sink.epr(),
            mode=mode,
            end_to=sink.epr() if end_to else None,
        )
    sink.close()
    source.publish(_event())
    return source


def wse_push(network):
    return _wse(network)


def wse_push_shared_sink(network):
    # one dead sink must not fast-fail the other subscription's attempt
    return _wse(network, subscriptions=2)


def wse_wrapped_flush(network):
    # a batch of one flushes inside the publish that filled it
    return _wse(network, mode=DeliveryMode.WRAPPED, batch_size=1)


def wse_subscription_end(network):
    return _wse(network, end_to=True)


def _wsn(network, *, use_raw=False, subscriptions=1, batching=None, expire=False):
    producer = NotificationProducer(network, "http://pin-prod", batching=batching)
    producer.pin_destroyed = []
    producer.subscription_listeners.append(
        lambda event, sub: event == "destroyed"
        and producer.pin_destroyed.append(sub.key)
    )
    consumer = NotificationConsumer(network, SINK)
    subscriber = WsnSubscriber(network)
    for _ in range(subscriptions):
        subscriber.subscribe(
            producer.epr(),
            consumer.epr(),
            topic="pin",
            use_raw=use_raw,
            initial_termination="PT10S" if expire else None,
        )
    consumer.close()
    if expire:
        network.clock.advance(20.0)
        producer.sweep()
    else:
        producer.publish(_event(), topic="pin")
    return producer


def wsn_wrapped_notify(network):
    return _wsn(network)


def wsn_raw_notify(network):
    return _wsn(network, use_raw=True)


def wsn_batched_flush(network):
    return _wsn(network, subscriptions=2, batching=BatchingPolicy(window=0.0))


def wsn_termination_notification(network):
    return _wsn(network, expire=True)


def _run(site) -> Outcome:
    outcome = Outcome()
    # uninstrumented: the wire bytes as a consumer would see them
    reset_message_counter()
    network = SimulatedNetwork(VirtualClock())
    network.wire_observers.append(
        lambda obs: obs.address == SINK
        and outcome.wire.append(
            (
                obs.address,
                len(obs.request),
                hashlib.sha256(obs.request).hexdigest()[:16],
            )
        )
    )
    site(network)
    # instrumented: ledger and counters
    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    component = site(network)
    outcome.ended = [
        (sub_id, code.value)
        for sub_id, code in getattr(component, "ended_subscriptions", [])
    ]
    outcome.destroyed = list(getattr(component, "pin_destroyed", []))
    outcome.failures = [
        (f.family, f.stage, f.kind, f.sink) for f in component.delivery_failures
    ]
    outcome.failed_total = instrumentation.metrics.counter_values(
        "delivery.failed_total"
    )
    ledger = instrumentation.ledger
    for lineage_id in ledger.lineages():
        account = ledger.account_of(lineage_id)
        closing = sorted(
            (event.state, event.detail.get("sink"), event.detail.get("reason"))
            for event in ledger.events_of(lineage_id)
            if event.state in ("delivered", "failed", "dead_lettered", "shed")
        )
        outcome.books[lineage_id] = (account.opened, closing)
    return outcome


FAILED = ("failed", SINK, "AddressUnreachable")
WSE_ENDED = [("wse-sub-1", "DeliveryFailure")]
WSN_TERMINATION = (793, "decc360e8ebfaeff")


def _failures(family, *stages):
    return [(family, stage, "AddressUnreachable", SINK) for stage in stages]


def _failed_total(family, **stages):
    return {
        "delivery.failed_total{family=%s,kind=AddressUnreachable,stage=%s}"
        % (family, stage): count
        for stage, count in stages.items()
    }


def _wire(*requests):
    return [(SINK, length, digest) for length, digest in requests]


CASES = [
    pytest.param(
        wse_push,
        Outcome(
            wire=_wire((621, "da41421f00ad7d52")),
            ended=WSE_ENDED,
            failures=_failures("wse", "notify"),
            failed_total=_failed_total("wse", notify=1),
            books={"lin-00000001": (1, [FAILED])},
        ),
        id="wse-push",
    ),
    pytest.param(
        wse_push_shared_sink,
        Outcome(
            wire=_wire((621, "5212d6d36ce0ad31"), (621, "22c2d2f24e19f0d4")),
            ended=WSE_ENDED + [("wse-sub-2", "DeliveryFailure")],
            failures=_failures("wse", "notify", "notify"),
            failed_total=_failed_total("wse", notify=2),
            books={"lin-00000001": (2, [FAILED, FAILED])},
        ),
        id="wse-push-shared-sink",
    ),
    pytest.param(
        wse_wrapped_flush,
        Outcome(
            wire=_wire((777, "b193950f104ee279")),
            ended=WSE_ENDED,
            failures=_failures("wse", "wrapped_notify"),
            failed_total=_failed_total("wse", wrapped_notify=1),
            books={"lin-00000001": (1, [FAILED])},
        ),
        id="wse-wrapped-flush",
    ),
    pytest.param(
        wse_subscription_end,
        Outcome(
            wire=_wire((621, "da41421f00ad7d52"), (1068, "77a5a777152d0f03")),
            ended=WSE_ENDED,
            failures=_failures("wse", "notify", "subscription_end"),
            failed_total=_failed_total("wse", notify=1, subscription_end=1),
            books={"lin-00000001": (1, [FAILED])},
        ),
        id="wse-subscription-end",
    ),
    pytest.param(
        wsn_wrapped_notify,
        Outcome(
            wire=_wire((1206, "b5ad9148d1dcbf76"), WSN_TERMINATION),
            destroyed=["wsn-sub-1"],
            failures=_failures("wsn", "notify", "termination_notification"),
            failed_total=_failed_total("wsn", notify=1, termination_notification=1),
            books={"lin-00000001": (1, [FAILED])},
        ),
        id="wsn-wrapped-notify",
    ),
    pytest.param(
        wsn_raw_notify,
        Outcome(
            wire=_wire((615, "b0c35a7e94639cc7"), WSN_TERMINATION),
            destroyed=["wsn-sub-1"],
            failures=_failures("wsn", "notify", "termination_notification"),
            failed_total=_failed_total("wsn", notify=1, termination_notification=1),
            books={"lin-00000001": (1, [FAILED])},
        ),
        id="wsn-raw-notify",
    ),
    pytest.param(
        wsn_batched_flush,
        Outcome(
            wire=_wire(
                (1714, "54942d702f18f512"),
                (793, "877efed2cd1d2876"),
                (793, "ee663757681cd892"),
            ),
            destroyed=["wsn-sub-1", "wsn-sub-2"],
            failures=_failures(
                "wsn", "notify", "termination_notification", "termination_notification"
            ),
            failed_total=_failed_total("wsn", notify=1, termination_notification=2),
            books={"lin-00000001": (2, [FAILED, FAILED])},
        ),
        id="wsn-batched-flush",
    ),
    pytest.param(
        wsn_termination_notification,
        Outcome(
            wire=_wire((784, "83101b1aedc3f1c8")),
            destroyed=["wsn-sub-1"],
            failures=_failures("wsn", "termination_notification"),
            failed_total=_failed_total("wsn", termination_notification=1),
            # control traffic opens no obligation
            books={},
        ),
        id="wsn-termination-notification",
    ),
]


@pytest.mark.parametrize("site, expected", CASES)
def test_direct_failure_behaviour_is_pinned(site, expected):
    assert _run(site) == expected
