"""Per-(sink, shape) envelope byte-templates for WSN Notify fan-out.

The PR 3 fast path serializes one frozen payload per publish, but still
builds and walks a full SOAP envelope tree per subscriber.  This module
removes that walk: for every (subscriber EPR, notification shape) pair the
producer compiles the complete Notify envelope **once** — with unique
sentinel strings in the per-send text positions — and every later send is a
``str.join`` over the cached segments (:class:`repro.xmlkit.template.
ByteTemplate`).

The envelope template has two slots, in document order:

* ``message_id`` — the ``wsa:MessageID`` text, minted fresh per attempt;
* ``messages`` — the run of ``NotificationMessage`` elements.

Lineage is *not* a slot: instrumented sends carry trace context as an HTTP
request header (see :mod:`repro.obs.propagation`), so the rendered envelope
bytes — and therefore the compiled templates — are identical with and
without instrumentation, and both modes share one cache entry per shape.

The ``messages`` slot is filled by a second, nested template compiled from a
single ``NotificationMessage`` chunk, with three slots of its own, in
document order: ``sub_id`` (the ``wsrf:ResourceID`` text inside the
SubscriptionReference), ``topic`` (the ``wsnt:Topic`` text, when the message
has a topic) and ``payload`` (the frozen payload's spliced text under the
envelope's exact prefix assignment).  Rendering *n* chunks into the slot is
what lets delivery batching coalesce *n* notifications to one sink into one
wire request while staying byte-identical to
:func:`repro.wsn.messages.build_notify` output.

Cache key and eviction: the sink half of the key is a structural signature
of the consumer EPR (recomputed per send, so an EPR change can never reuse a
stale entry), the shape half is ``(topic is None, dialect, payload namespace
order)``.  The topic itself is a slot, not part of the key: it is escaped
text that declares no namespace and moves no prefix, so it cannot change the
envelope's structure; only its absence does (a topic-less message has no
``Topic`` element).  The working set is therefore sinks x dialects x payload
shapes, however many topics are published.  Entries are LRU-capped, dropped
when the last subscription referencing their sink goes away (unsubscribe,
lease-expiry sweep, delivery failure), and wiped wholesale by
:meth:`NotifyTemplateCache.clear` on recovery replay.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.soap.codec import envelope_root
from repro.soap.envelope import SoapEnvelope, SoapVersion
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import MessageHeaders, apply_headers
from repro.wsn.messages import NotificationMessage, build_notify
from repro.wsn.versions import WsnVersion
from repro.wsrf.resource import RESOURCE_ID
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.template import TEMPLATE_STATS, ByteTemplate, TemplateSlotError
from repro.xmlkit.writer import (
    _escape_text,
    frozen_namespace_order,
    frozen_splice_text,
    serialize_subtree,
    serialize_with_allocator,
)

#: slot sentinels: URN-shaped so they are escape-invariant (no ``&<>\r``) and
#: can never collide with XML structure; a *payload* that happens to contain
#: one is caught by the exactly-once check and falls back to the tree path
MESSAGE_ID_SENTINEL = "urn:x-repro-template-slot:message-id"
SUB_ID_SENTINEL = "urn:x-repro-template-slot:subscription-id"
TOPIC_SENTINEL = "urn:x-repro-template-slot:topic"


def _fold(elem: XElem):
    """Structural identity of an element (name, attrs in wire order, children).

    Deliberately *not* ``EndpointReference.to_element`` + serialize: that
    mutates the EPR (property folding) and a serialize would count as a tree
    walk on the very path whose tree walks we are eliminating.
    """
    return (
        elem.name,
        tuple(elem.attrs.items()),
        tuple(
            _fold(child) if isinstance(child, XElem) else child
            for child in elem.children
        ),
    )


def sink_signature(epr: EndpointReference):
    """Hashable identity of a consumer EPR (address + echoed reference
    parameters/properties).  Computed per send — an EPR that changes under a
    subscription simply keys a different cache slot."""
    return (
        epr.address,
        tuple(_fold(e) for e in epr.reference_parameters),
        tuple(_fold(e) for e in epr.reference_properties),
    )


class CompiledNotify:
    """One compiled envelope: outer template + per-message chunk template."""

    __slots__ = ("envelope", "chunk", "payload_mapping")

    def __init__(
        self,
        envelope: ByteTemplate,
        chunk: ByteTemplate,
        payload_mapping: tuple[str, ...],
    ) -> None:
        self.envelope = envelope
        self.chunk = chunk
        self.payload_mapping = payload_mapping

    def render(
        self,
        message_id: str,
        topic: Optional[str],
        entries: list[tuple[str, XElem]],
    ) -> str:
        """Render the full envelope for ``entries`` = [(sub_key, payload)...],
        every message carrying ``topic`` (``None``: the template has no topic
        slot, as compiled)."""
        chunk = self.chunk
        mapping = self.payload_mapping
        topic_text = None if topic is None else _escape_text(topic)
        chunks = [
            chunk.render(
                {
                    "sub_id": _escape_text(sub_key),
                    "topic": topic_text,
                    "payload": frozen_splice_text(payload, mapping),
                }
            )
            for sub_key, payload in entries
        ]
        return self.envelope.render(
            {
                "message_id": _escape_text(message_id),
                "messages": "".join(chunks),
            }
        )


class NotifyTemplateCache:
    """LRU cache of :class:`CompiledNotify` keyed on (sink, shape)."""

    def __init__(
        self,
        version: WsnVersion,
        producer_address: str,
        manager_address: str,
        *,
        capacity: int = 512,
    ) -> None:
        self.version = version
        self.producer_address = producer_address
        self.manager_address = manager_address
        self.capacity = capacity
        self._templates: "OrderedDict[tuple, CompiledNotify]" = OrderedDict()
        #: keys whose compilation failed (sentinel collision): don't retry
        self._rejected: set[tuple] = set()
        #: eviction bookkeeping: sink signature <-> subscription keys
        self._by_sink: dict[tuple, set[tuple]] = {}
        self._sink_refs: dict[tuple, set[str]] = {}
        self._sub_sinks: dict[str, set[tuple]] = {}

    # --- lookup -----------------------------------------------------------

    def lookup(
        self,
        consumer: EndpointReference,
        topic: Optional[str],
        topic_dialect: str,
        payload: XElem,
        *,
        sub_keys: list[str],
    ) -> tuple[Optional[CompiledNotify], str]:
        """The compiled template for this sink and shape plus an outcome tag
        (``"hit"``, ``"miss"`` = compiled fresh, ``"fallback"`` = cannot be
        templated: unfrozen payload or sentinel collision — the caller then
        takes the tree path)."""
        if not payload.frozen:
            TEMPLATE_STATS.fallbacks += 1
            return None, "fallback"
        sig = sink_signature(consumer)
        topicless = topic is None
        key = (sig, topicless, topic_dialect, frozen_namespace_order(payload))
        self._note_refs(sig, key, sub_keys)
        compiled = self._templates.get(key)
        if compiled is not None:
            self._templates.move_to_end(key)
            TEMPLATE_STATS.hits += 1
            return compiled, "hit"
        if key in self._rejected:
            TEMPLATE_STATS.fallbacks += 1
            return None, "fallback"
        try:
            compiled = self._compile(consumer, topicless, topic_dialect, payload)
        except TemplateSlotError:
            self._rejected.add(key)
            if len(self._rejected) > self.capacity:
                self._rejected.clear()
            TEMPLATE_STATS.fallbacks += 1
            return None, "fallback"
        TEMPLATE_STATS.misses += 1
        self._templates[key] = compiled
        if len(self._templates) > self.capacity:
            old_key, _ = self._templates.popitem(last=False)
            self._by_sink.get(old_key[0], set()).discard(old_key)
        return compiled, "miss"

    def _compile(
        self,
        consumer: EndpointReference,
        topicless: bool,
        topic_dialect: str,
        payload: XElem,
    ) -> CompiledNotify:
        """Build the sentinel envelope exactly the way the tree path does
        (same header order, same EPR shapes), serialize it once, and split."""
        version = self.version
        envelope = SoapEnvelope(SoapVersion.V11)
        headers = MessageHeaders(
            to=consumer.address,
            action=version.action("Notify"),
            message_id=MESSAGE_ID_SENTINEL,
        )
        headers.echoed = [
            e.copy()
            for e in (*consumer.reference_parameters, *consumer.reference_properties)
        ]
        apply_headers(envelope, headers, version.wsa_version)
        sub_reference = EndpointReference(self.manager_address).with_parameter(
            text_element(RESOURCE_ID, SUB_ID_SENTINEL)
        )
        item = NotificationMessage(
            payload,
            topic=None if topicless else TOPIC_SENTINEL,
            topic_dialect=topic_dialect,
            subscription_reference=sub_reference,
            producer_reference=EndpointReference(self.producer_address),
        )
        body = build_notify(version, [item])
        envelope.add_body(body)
        text, allocator = serialize_with_allocator(envelope_root(envelope))

        ns_order = frozen_namespace_order(payload)
        payload_mapping = tuple(allocator.prefix_for(uri) for uri in ns_order)
        payload_text = frozen_splice_text(payload, payload_mapping)
        chunk_elem = next(body.elements())
        chunk_text = serialize_subtree(chunk_elem, allocator)
        slots = [("sub_id", SUB_ID_SENTINEL)]
        if not topicless:
            slots.append(("topic", TOPIC_SENTINEL))
        slots.append(("payload", payload_text))
        chunk = ByteTemplate.compile(chunk_text, slots)
        outer = ByteTemplate.compile(
            text,
            [("message_id", MESSAGE_ID_SENTINEL), ("messages", chunk_text)],
        )
        return CompiledNotify(outer, chunk, payload_mapping)

    # --- eviction ---------------------------------------------------------

    def _note_refs(self, sig: tuple, key: tuple, sub_keys: list[str]) -> None:
        self._by_sink.setdefault(sig, set()).add(key)
        refs = self._sink_refs.setdefault(sig, set())
        for sub_key in sub_keys:
            refs.add(sub_key)
            self._sub_sinks.setdefault(sub_key, set()).add(sig)

    def note_removed(self, sub_key: str) -> None:
        """A subscription ended (unsubscribe, expiry sweep, delivery failure,
        replayed removal): drop every template whose sink no other live
        subscription references."""
        for sig in self._sub_sinks.pop(sub_key, ()):  # noqa: B020
            refs = self._sink_refs.get(sig)
            if refs is None:
                continue
            refs.discard(sub_key)
            if refs:
                continue
            del self._sink_refs[sig]
            for key in self._by_sink.pop(sig, ()):
                self._templates.pop(key, None)

    def clear(self) -> None:
        """Drop everything (crash-recovery replay rebuilds the world)."""
        self._templates.clear()
        self._rejected.clear()
        self._by_sink.clear()
        self._sink_refs.clear()
        self._sub_sinks.clear()

    def __len__(self) -> int:
        return len(self._templates)
