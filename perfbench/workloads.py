"""The three workloads: set-up, the closed-loop window, settling and checks.

Load model: one single-threaded client with one request in flight.  A publish
(or a front-door ``Notify``) returns only after every push was accepted at its
consumer or handed to the retry pipeline, so the next request waits for it.
Consumers are raw byte sinks registered on the simulated network: they answer
a fixed ``202`` and only record the bytes, so no consumer-side XML parsing is
billed to the broker.  Speed comes from wall-clock time only, never from the
virtual clock (``calibrate.py`` says how it is adjusted for a shared host).
"""

from __future__ import annotations

import gc
import random
import shutil
import tempfile
from pathlib import Path

from perfbench import inputs as gen
from perfbench.calibrate import net_time, timed_at_reference_speed
from perfbench.oracle import DECODE_ERRORS, SUB_REF_NS, Oracle, decode_pull, decode_push
from perfbench.inputs import (
    EV_NS,
    WSE01,
    WSE08,
    WSE08_WRAPPED,
    WSN10,
    WSN12,
    WSN13,
    SubscriptionDef,
)

from repro.delivery.policy import BatchingPolicy, DeliveryPolicy
from repro.filters.compilecache import clear_caches
from repro.messenger.broker import WsMessenger
from repro.soap.fault import SoapFault
from repro.store.core import BrokerStore
from repro.store.log import FileEventLog
from repro.store.recovery import recover_broker
from repro.transport import SimulatedNetwork, VirtualClock
from repro.transport.network import PUBLIC_ZONE, MessageLost
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import reset_message_counter
from repro.wse.model import DeliveryMode
from repro.wse.subscriber import WseSubscriber
from repro.wse.versions import WseVersion
from repro.wsn.subscriber import WsnSubscriber
from repro.wsn.versions import WsnVersion
from repro.xmlkit import parse_xml
from repro.xmlkit.element import text_element
from repro.xmlkit.names import Namespaces, QName
from repro.xmlkit.template import TEMPLATE_STATS
from repro.xmlkit.writer import WRITER_STATS

BROKER = "http://broker.perfbench"
#: leases far beyond any run, so no subscription expires mid-window
FAR = "2030-01-01T00:00:00Z"
FIREWALL_ZONE = "firewalled"
ACK = b"HTTP/1.1 202 Accepted\r\nContent-Type: text/xml; charset=utf-8\r\nContent-Length: 0\r\n\r\n"
NS = {"ev": EV_NS}
WSN_VERSIONS = {WSN10: WsnVersion.V1_0, WSN12: WsnVersion.V1_2, WSN13: WsnVersion.V1_3}
WSNT13 = "http://docs.oasis-open.org/wsn/b-2"
WSA = "http://www.w3.org/2005/08/addressing"
SOAP11 = "http://schemas.xmlsoap.org/soap/envelope/"

#: workload sizes; ``tiny`` is for the benchmark's own tests
SCALES = {
    "full": {
        "fanout-wide": dict(subscriptions=10_000, sinks=250),
        "mediation-mixed": dict(subscriptions=1_000, sinks=36),
        "durable-churn": dict(subscriptions=1_000, sinks=80),
    },
    "tiny": {
        "fanout-wide": dict(subscriptions=120, sinks=12, roots=3, groups=3, leaves=3),
        "mediation-mixed": dict(subscriptions=60, sinks=6),
        "durable-churn": dict(subscriptions=60, sinks=10),
    },
}


def http_post(url: str, action: str, soap_body: str, message_id: str) -> bytes:
    """A SOAP 1.1 request with WS-Addressing 2005/08 headers, framed by hand."""
    envelope = (
        '<?xml version="1.0" encoding="utf-8"?>'
        f'<s11:Envelope xmlns:s11="{SOAP11}" xmlns:wsa="{WSA}"><s11:Header>'
        f"<wsa:To>{url}</wsa:To><wsa:Action>{action}</wsa:Action>"
        f"<wsa:MessageID>{message_id}</wsa:MessageID></s11:Header>"
        f"<s11:Body>{soap_body}</s11:Body></s11:Envelope>"
    ).encode("utf-8")
    path = url.split("://", 1)[1].partition("/")
    head = (
        f"POST /{path[2]} HTTP/1.1\r\nHost: {path[0]}\r\n"
        "Content-Type: text/xml; charset=utf-8\r\n"
        f"Content-Length: {len(envelope)}\r\nSOAPAction: \"{action}\"\r\n\r\n"
    )
    return head.encode("ascii") + envelope


def http_status(raw: bytes) -> int:
    return int(raw.split(b" ", 2)[1])


class Sinks:
    """Raw consumers: a fixed 202 and a byte log, nothing else."""

    def __init__(self, network, addresses, firewalled=()) -> None:
        self.log: list[bytes] = []
        #: consumer-bound request bytes the loss model dropped in flight
        self.lost_bytes = 0
        for address in addresses:
            zone = FIREWALL_ZONE if address in firewalled else PUBLIC_ZONE
            network.register(address, self.accept, zone=zone)

    def accept(self, wire: bytes) -> bytes:
        self.log.append(wire)
        return ACK


class Env:
    """One built broker plus its clients, sinks and oracle."""

    def __init__(self, inputs, seed: int, workdir: Path) -> None:
        self.inputs = inputs
        self.seed = seed
        self.network = SimulatedNetwork(VirtualClock())
        if inputs.firewalled:
            self.network.add_zone(FIREWALL_ZONE, blocks_inbound=True)
        self.oracle = Oracle(inputs.firewalled)
        self.sinks = Sinks(self.network, inputs.sinks, inputs.firewalled)
        self.handles: dict[str, tuple] = {}
        self.live_tags: list[str] = []
        self._live_index: dict[str, int] = {}
        self.faults = 0
        self.pulled: list[tuple[str, bytes]] = []
        self.push_requests = 0
        self.push_bytes = 0
        self.pull_bytes = 0
        #: consumer requests that carried more than one notification
        self.batched_requests = 0
        self._clients: dict[object, object] = {}
        self.tracer = None

    # --- set-up: ``build`` makes the broker, then every initial subscription is
    # --- a front-door SOAP Subscribe made through the library's clients --------------

    def subscribe_all(self, subs) -> None:
        for sub in subs:
            self.subscribe(sub)

    def subscribe(self, sub: SubscriptionDef) -> None:
        epr = self.broker.epr()
        if sub.dialect in (WSE01, WSE08, WSE08_WRAPPED):
            version = WseVersion.V2004_01 if sub.dialect == WSE01 else WseVersion.V2004_08
            client = self._client(WseSubscriber, version)
            notify_to = EndpointReference(sub.sink).with_parameter(
                text_element(QName(SUB_REF_NS, "Sub"), sub.tag)
            )
            mode = DeliveryMode.WRAPPED if sub.dialect == WSE08_WRAPPED else DeliveryMode.PUSH
            handle = client.subscribe(
                epr, notify_to=notify_to, mode=mode, expires=FAR,
                filter=sub.xpath(), filter_namespaces=NS,
            )
            self.oracle.subscribed(sub)
        else:
            version = WSN_VERSIONS[sub.dialect]
            client = self._client(WsnSubscriber, version)
            kwargs = {}
            if sub.xpath() is not None:
                kwargs = dict(message_content=sub.xpath(), namespaces=NS)
            handle = client.subscribe(
                epr, EndpointReference(sub.sink),
                topic=sub.topic.expression,
                topic_dialect=(
                    Namespaces.DIALECT_TOPIC_FULL if sub.topic.is_wildcard
                    else Namespaces.DIALECT_TOPIC_CONCRETE
                ),
                initial_termination=FAR, **kwargs,
            )
            self.oracle.subscribed(sub, handle.sub_id)
        self.handles[sub.tag] = (client, handle)
        self._live_index[sub.tag] = len(self.live_tags)
        self.live_tags.append(sub.tag)

    def _client(self, cls, version):
        client = self._clients.get(version)
        if client is None:
            client = self._clients[version] = cls(self.network, version=version)
        return client

    def pick_live(self, pick: float, renewable=None) -> str:
        tags = self.live_tags
        if renewable is None:
            return tags[int(pick * len(tags))]
        start = int(pick * len(tags))
        for i in range(len(tags)):
            tag = tags[(start + i) % len(tags)]
            if renewable(tag):
                return tag
        raise LookupError("no renewable subscription")

    def drop_live(self, tag: str) -> None:
        tags = self.live_tags
        i = self._live_index.pop(tag)
        last = tags.pop()
        if last != tag:
            tags[i] = last
            self._live_index[last] = i

    def renewable(self, tag: str) -> bool:
        return self.oracle.known[tag].dialect not in (WSN10, WSN12)

    # --- timed requests ---------------------------------------------------------------

    def timed(self, kind: str, fn, *args) -> tuple[float, float]:
        """(net, wall) seconds of one closed-loop request; a root span when
        tracing.  See :func:`perfbench.calibrate.net_time`."""
        tracer = self.tracer
        if tracer is not None and tracer.active:
            _, wall, net = net_time(tracer.span, "op." + kind, fn, *args)
        else:
            _, wall, net = net_time(fn, *args)
        return net, wall

    def control(self, fn, *args):
        try:
            return self.timed("control", fn, *args)
        except SoapFault:  # a fault returned to a client counts as a failure
            self.faults += 1
            return None

    def renew(self, op):
        tag = self.pick_live(op.pick, self.renewable)
        client, handle = self.handles[tag]
        return self.control(client.renew, handle, FAR)

    def payload(self, event):
        return parse_xml(event.xml())

    # --- decoding (always outside the timed sections) -----------------------------------

    def decode(self) -> None:
        oracle = self.oracle
        log, self.sinks.log = self.sinks.log, []
        self.push_requests += len(log)
        for wire in log:
            self.push_bytes += len(wire)
            try:
                deliveries = decode_push(wire)
            except DECODE_ERRORS as exc:
                oracle.verdict.undecodable += 1
                oracle.verdict.note(f"undecodable consumer request: {exc}")
                continue
            if len(deliveries) > 1:
                self.batched_requests += 1
            oracle.settle(deliveries)
        pulled, self.pulled = self.pulled, []
        for sink, raw in pulled:
            self.pull_bytes += len(raw)
            try:
                oracle.settle(decode_pull(sink, raw))
            except DECODE_ERRORS as exc:
                oracle.verdict.undecodable += 1
                oracle.verdict.note(f"undecodable drain reply: {exc}")

    def consumer_bytes(self) -> int:
        return self.push_bytes + self.sinks.lost_bytes + self.pull_bytes

    def settle(self) -> None:
        self.broker.flush()
        self.broker.run_deliveries_until_idle()

    def delivery_stats(self):
        manager = self.broker.delivery_manager
        return manager.stats if manager is not None else None

    def close(self) -> None:
        self.broker.close()


class FanoutEnv(Env):
    """``fanout-wide``: WSN 1.3 topic subscriptions, in-process publishes,
    per-sink batching on."""

    def build(self) -> None:
        self.broker = WsMessenger(
            self.network, BROKER, batching=BatchingPolicy(window=0.0, max_batch=100)
        )

    def execute(self, op):
        if op.kind == "renew":
            return "control", self.renew(op)
        payload = self.payload(op.event)
        self.oracle.published(op.event)
        return "publish", self.timed("publish", self._publish, payload, op.event.topic)

    def _publish(self, payload, topic) -> None:
        self.broker.publish(payload, topic=topic)


class MediationEnv(Env):
    """``mediation-mixed``: five spec versions on one front door; events enter
    as serialized WSN 1.3 ``Notify`` requests."""

    #: wrapped-mode WSE queues are flushed every this many publishes, inside
    #: that publish's timed request
    FLUSH_EVERY = 16

    def build(self) -> None:
        self.broker = WsMessenger(self.network, BROKER)
        self._published = 0

    def notify_request(self, event) -> bytes:
        body = (
            f'<wsnt:Notify xmlns:wsnt="{WSNT13}"><wsnt:NotificationMessage>'
            f'<wsnt:Topic Dialect="{Namespaces.DIALECT_TOPIC_CONCRETE}">{event.topic}'
            f"</wsnt:Topic><wsnt:Message>{event.xml()}</wsnt:Message>"
            "</wsnt:NotificationMessage></wsnt:Notify>"
        )
        return http_post(BROKER, f"{WSNT13}/Notify", body, f"urn:perfbench:notify:{event.seq}")

    def execute(self, op):
        if op.kind == "renew":
            return "control", self.renew(op)
        wire = self.notify_request(op.event)
        self.oracle.published(op.event)
        self._published += 1
        flush = self._published % self.FLUSH_EVERY == 0
        return "publish", self.timed("publish", self._notify, wire, flush)

    def _notify(self, wire: bytes, flush: bool) -> None:
        raw = self.network.send_request(BROKER, wire)
        if flush:
            self.broker.flush()
        if http_status(raw) != 202:
            self.faults += 1


class ChurnEnv(Env):
    """``durable-churn``: a store-backed broker over a file log with retries,
    seeded consumer loss, firewalled pull-drained sinks and subscription
    churn on the publish path."""

    POLICY = DeliveryPolicy(max_attempts=12, base_backoff=0.05, max_backoff=2.0)
    LOSS_RATE = 0.05

    def __init__(self, inputs, seed: int, workdir: Path) -> None:
        super().__init__(inputs, seed, workdir)
        self.log_path = workdir / "events.jsonl"
        if self.log_path.exists():
            self.log_path.unlink()
        consumers = frozenset(inputs.sinks)
        loss_rng = random.Random(f"durable-churn/loss/{seed}")
        sinks = self.sinks

        def lose(address: str, payload: bytes) -> None:
            if address in consumers and loss_rng.random() < self.LOSS_RATE:
                sinks.lost_bytes += len(payload)
                raise MessageLost(address)

        self.network.observers.append(lose)
        self._drains = 0

    def build(self) -> None:
        self.log = FileEventLog(self.log_path)
        self.broker = WsMessenger(
            self.network, BROKER, store=BrokerStore(self.log),
            delivery=self.POLICY, delivery_seed=self.seed,
        )

    def execute(self, op):
        kind = op.kind
        if kind == "publish":
            payload = self.payload(op.event)
            self.oracle.published(op.event)
            return "publish", self.timed("publish", self._publish, payload, op.event.topic)
        if kind == "renew":
            return "control", self.renew(op)
        if kind == "subscribe":
            return "control", self.control(self.subscribe, op.subscription)
        if kind == "unsubscribe":
            if len(self.live_tags) < 2:
                return "control", None
            tag = self.pick_live(op.pick)
            client, handle = self.handles[tag]
            timing = self.control(client.unsubscribe, handle)
            self.oracle.unsubscribed(tag)
            self.drop_live(tag)
            return "control", timing
        # drain: a firewalled consumer pulls its parked backlog
        boxes = self.broker.message_boxes
        firewalled = sorted(self.inputs.firewalled)
        start = int(op.pick * len(firewalled))
        for i in range(len(firewalled)):
            sink = firewalled[(start + i) % len(firewalled)]
            box = boxes.get(sink)
            if box is not None:
                return "control", self.drain(sink, box.address)
        return "control", None

    def _publish(self, payload, topic) -> None:
        self.broker.publish(payload, topic=topic)
        self.broker.pump_deliveries()

    def drain(self, sink: str, box_address: str) -> tuple[float, float]:
        self._drains += 1
        wire = http_post(
            box_address, f"{WSNT13}/GetMessages",
            f'<wsnt:GetMessages xmlns:wsnt="{WSNT13}"/>',
            f"urn:perfbench:drain:{self._drains}",
        )
        holder = []

        def pull():
            holder.append(
                self.network.send_request(box_address, wire, from_zone=FIREWALL_ZONE)
            )

        tracer = self.tracer
        if tracer is not None and tracer.active:
            timing = self.timed("control", tracer.span, "delivery.pull", pull)
        else:
            timing = self.timed("control", pull)
        raw = holder[0]
        if http_status(raw) != 200:
            self.faults += 1
        else:
            self.pulled.append((sink, raw))
        return timing

    def settle(self) -> None:
        super().settle()
        # every firewalled consumer drains until its box is empty
        boxes = self.broker.message_boxes
        for sink in sorted(self.inputs.firewalled):
            box = boxes.get(sink)
            while box is not None and len(box):
                self.drain(sink, box.address)

    def crash_and_recover(self) -> dict:
        """Crash after the window, rebuild from the log, check the fixpoint."""
        before = self.broker.store.projection()
        records = len(self.log)
        log_bytes = self.log_path.stat().st_size
        self.log.close()
        self.broker.close()
        delivered_before = len(self.sinks.log)
        gc.collect()
        (self.log, self.broker), wall, recovery_s = timed_at_reference_speed(self._recover)
        after = self.broker.store.projection()
        return {
            "recovery_s": recovery_s,
            "wall_recovery_s": wall,
            "records": records,
            "log_bytes": log_bytes,
            "fixpoint": before == after,
            "resent": len(self.sinks.log) - delivered_before,
            "recovered_subscriptions": len(after["subscriptions"]),
            "expected_subscriptions": len(self.live_tags),
        }

    def _recover(self):
        log = FileEventLog(self.log_path)
        broker = recover_broker(
            self.network, BROKER, log, delivery=self.POLICY, delivery_seed=self.seed
        )
        return log, broker

    def close(self) -> None:
        self.log.close()
        super().close()


WORKLOADS = {
    "fanout-wide": (gen.fanout_wide, FanoutEnv),
    "mediation-mixed": (gen.mediation_mixed, MediationEnv),
    "durable-churn": (gen.durable_churn, ChurnEnv),
}


def reset_process_state() -> None:
    """Make each set-up start cold and reproducible: message ids, compiled
    filter caches and the template/writer counters are process-wide."""
    reset_message_counter()
    clear_caches()
    TEMPLATE_STATS.reset()
    WRITER_STATS.reset()


def scratch_dir(root: Path) -> Path:
    """A private directory for the run's files, inside the checkout."""
    base = root / ".perfbench-tmp"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()  # the shared parent goes once the last run is done
    except OSError:
        pass
