"""The delivery oracle: what every consumer must receive, checked from bytes.

Expectations come from the generated inputs alone: at each publish the oracle
asks every subscription that is live on the client side whether it admits the
event (:meth:`SubscriptionDef.admits`, plain Python) and books one expected
delivery per match.  Captured consumer bytes are decoded with the standard
library's ElementTree, never with the program's parser, and every decoded
notification settles one booking.  A delivery nobody booked is a duplicate
(or stray), a booking never settled is missing, and a notification in another
shape than the subscription's spec calls for is a wrong-dialect delivery.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from perfbench.inputs import (
    EV_NS,
    WSE01,
    WSE08,
    WSE08_WRAPPED,
    WSN10,
    WSN12,
    WSN13,
    WSN13_PULL,
    Event,
    SubscriptionDef,
)

SOAP_NS = "http://schemas.xmlsoap.org/soap/envelope/"
WSA_2003 = "http://schemas.xmlsoap.org/ws/2003/03/addressing"
WSA_2004 = "http://schemas.xmlsoap.org/ws/2004/08/addressing"
WSE_2004_08 = "http://schemas.xmlsoap.org/ws/2004/08/eventing"
WSNT = {
    "http://www.ibm.com/xmlns/stdwip/web-services/WS-BaseNotification": WSN10,
    "http://docs.oasis-open.org/wsn/2004/06/wsn-WS-BaseNotification-1.2-draft-01.xsd": WSN12,
    "http://docs.oasis-open.org/wsn/b-2": WSN13,
}
WSNT13 = "http://docs.oasis-open.org/wsn/b-2"
#: the header a WSE consumer's reference parameter is echoed in
SUB_REF_NS = "urn:perfbench:ref"
SUB_REF = f"{{{SUB_REF_NS}}}Sub"
#: where the broker puts the topic for WSE consumers
WSE_TOPIC = "{http://repro.invalid/mediation}Topic"
RESOURCE_ID = "{http://repro.invalid/wsrf}ResourceID"


@dataclass
class Delivery:
    """One decoded notification."""

    key: tuple  # ("tag", tag) | ("wsn", dialect, resource id) | ("pull", sink)
    dialect: str
    seq: int
    zone: str
    level: int
    topic: Optional[str]


class DecodeError(ValueError):
    pass


#: what decoding malformed consumer bytes can raise
DECODE_ERRORS = (ValueError, ET.ParseError)


def _split_http(wire: bytes) -> tuple[dict, bytes]:
    head, sep, body = wire.partition(b"\r\n\r\n")
    if not sep:
        raise DecodeError("no HTTP head")
    headers = {}
    for line in head.decode("ascii").split("\r\n")[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if int(headers.get("content-length", len(body))) != len(body):
        raise DecodeError("Content-Length mismatch")
    return headers, body


def _payload(elem) -> tuple[int, str, int]:
    if elem.tag != f"{{{EV_NS}}}Reading":
        raise DecodeError(f"unexpected payload {elem.tag}")
    seq = elem.findtext(f"{{{EV_NS}}}seq")
    zone = elem.findtext(f"{{{EV_NS}}}zone")
    level = elem.findtext(f"{{{EV_NS}}}level")
    if seq is None or zone is None or level is None:
        raise DecodeError("incomplete payload")
    return int(seq), zone, int(level)


def _soap_parts(body: bytes):
    root = ET.fromstring(body)
    if root.tag != f"{{{SOAP_NS}}}Envelope":
        raise DecodeError(f"not a SOAP 1.1 envelope: {root.tag}")
    header = root.find(f"{{{SOAP_NS}}}Header")
    soap_body = root.find(f"{{{SOAP_NS}}}Body")
    if soap_body is None or len(soap_body) == 0:
        raise DecodeError("empty SOAP body")
    return (list(header) if header is not None else []), soap_body[0]


def _wsn_messages(container, ns: str, dialect: str, key_of) -> list[Delivery]:
    out = []
    for message in container.findall(f"{{{ns}}}NotificationMessage"):
        wrapper = message.find(f"{{{ns}}}Message")
        if wrapper is None or len(wrapper) == 0:
            raise DecodeError("NotificationMessage without payload")
        seq, zone, level = _payload(wrapper[0])
        topic = message.findtext(f"{{{ns}}}Topic")
        out.append(
            Delivery(key_of(message), dialect, seq, zone, level,
                     topic.strip() if topic is not None else None)
        )
    return out


def decode_push(wire: bytes) -> list[Delivery]:
    """Decode one request a consumer received into its notifications."""
    _, body = _split_http(wire)
    headers, first = _soap_parts(body)
    ns, _, local = first.tag[1:].partition("}")
    if ns in WSNT and local == "Notify":
        dialect = WSNT[ns]

        def key_of(message):
            rid = message.find(f"{{{ns}}}SubscriptionReference//{RESOURCE_ID}")
            return ("wsn", dialect, rid.text if rid is not None else None)

        return _wsn_messages(first, ns, dialect, key_of)
    by_tag = {h.tag: (h.text or "") for h in headers}
    tag = by_tag.get(SUB_REF)
    if tag is None:
        raise DecodeError("WS-Eventing notification without echoed reference")
    if ns == WSE_2004_08 and local == "Notifications":
        return [
            Delivery(("tag", tag), WSE08_WRAPPED, *_payload(child), None)
            for child in first
        ]
    if f"{{{WSA_2003}}}To" in by_tag:
        dialect = WSE01
    elif f"{{{WSA_2004}}}To" in by_tag:
        dialect = WSE08
    else:
        dialect = "unknown"
    return [Delivery(("tag", tag), dialect, *_payload(first), by_tag.get(WSE_TOPIC))]


def decode_pull(sink: str, raw_response: bytes) -> list[Delivery]:
    """Decode a GetMessages response drained by a firewalled consumer."""
    _, body = _split_http(raw_response)
    _, first = _soap_parts(body)
    if first.tag != f"{{{WSNT13}}}GetMessagesResponse":
        raise DecodeError(f"unexpected drain reply {first.tag}")
    return _wsn_messages(first, WSNT13, WSN13_PULL, lambda _m: ("pull", sink))


@dataclass
class Verdict:
    expected: int = 0
    delivered: int = 0
    missing: int = 0
    duplicates: int = 0
    wrong_dialect: int = 0
    wrong_content: int = 0
    undecodable: int = 0
    examples: list = field(default_factory=list)

    @property
    def failures(self) -> int:
        return (self.missing + self.duplicates + self.wrong_dialect
                + self.wrong_content + self.undecodable)

    def note(self, text: str) -> None:
        if len(self.examples) < 5:
            self.examples.append(text)


class Oracle:
    """Books expected deliveries and settles them against decoded bytes."""

    def __init__(self, firewalled: frozenset) -> None:
        self.firewalled = firewalled
        #: every subscription ever granted, by client tag
        self.known: dict[str, SubscriptionDef] = {}
        # live subscriptions, bucketed so a publish only asks the ones that
        # can admit it: exact topic, zone-constrained, and everything else
        self._by_topic: dict[str, dict[str, SubscriptionDef]] = {}
        self._by_zone: dict[str, dict[str, SubscriptionDef]] = {}
        self._scan: dict[str, SubscriptionDef] = {}
        #: broker-issued WSN identity -> client tag
        self.wsn_ids: dict[tuple, str] = {}
        self.events: dict[int, Event] = {}
        #: (key, seq) -> deliveries still owed (negative = over-delivered)
        self.owed: Counter = Counter()
        self.verdict = Verdict()

    # --- client-side view ----------------------------------------------------------

    def _bucket(self, sub: SubscriptionDef) -> dict:
        if sub.topic is not None and not sub.topic.is_wildcard:
            return self._by_topic.setdefault(sub.topic.expression, {})
        if sub.topic is None and sub.zone is not None:
            return self._by_zone.setdefault(sub.zone, {})
        return self._scan

    def subscribed(self, sub: SubscriptionDef, wsn_id: Optional[str] = None) -> None:
        self.known[sub.tag] = sub
        self._bucket(sub)[sub.tag] = sub
        if wsn_id is not None:
            self.wsn_ids[(sub.dialect, wsn_id)] = sub.tag

    def unsubscribed(self, tag: str) -> None:
        self._bucket(self.known[tag]).pop(tag, None)

    def _key(self, sub: SubscriptionDef) -> tuple:
        if sub.sink in self.firewalled:
            return ("pull", sub.sink)
        return ("tag", sub.tag)

    def published(self, event: Event) -> int:
        """Book the deliveries ``event`` owes; returns how many."""
        self.events[event.seq] = event
        booked = 0
        for bucket in (
            self._by_topic.get(event.topic, {}),
            self._by_zone.get(event.zone, {}),
            self._scan,
        ):
            for sub in bucket.values():
                if sub.admits(event):
                    self.owed[(self._key(sub), event.seq)] += 1
                    booked += 1
        self.verdict.expected += booked
        return booked

    # --- settlement ----------------------------------------------------------------

    def settle(self, deliveries: list[Delivery]) -> None:
        verdict = self.verdict
        owed = self.owed
        for d in deliveries:
            verdict.delivered += 1
            key = d.key
            if key[0] == "wsn":
                tag = self.wsn_ids.get((key[1], key[2]))
                if tag is None:
                    verdict.duplicates += 1
                    verdict.note(f"delivery for unknown subscription {key}")
                    continue
                key = ("tag", tag)
            if key[0] == "tag":
                sub = self.known.get(key[1])
                expected_dialect = sub.dialect if sub is not None else None
            else:
                expected_dialect = WSN13_PULL
            if d.dialect != expected_dialect:
                verdict.wrong_dialect += 1
                verdict.note(f"{key} got {d.dialect}, expected {expected_dialect}")
            event = self.events.get(d.seq)
            if event is None or (d.zone, d.level) != (event.zone, event.level) or (
                d.topic is not None and d.topic != event.topic
            ):
                verdict.wrong_content += 1
                verdict.note(f"{key} seq {d.seq}: content differs from the event")
            slot = (key, d.seq)
            left = owed[slot] - 1
            if left < 0:
                verdict.duplicates += 1
                verdict.note(f"{key} seq {d.seq}: delivered more often than owed")
                left = 0
            if left == 0:
                del owed[slot]
            else:
                owed[slot] = left

    def finish(self) -> Verdict:
        """Count every booking still unsettled as missing."""
        for (key, seq), n in self.owed.items():
            if n > 0:
                self.verdict.missing += n
                self.verdict.note(f"{key} seq {seq}: {n} missing")
        self.owed.clear()
        return self.verdict
