"""Seeded input generation for the three workloads.

Everything here is plain Python over ``random.Random(seed)``: subscription
definitions, topic mixes, thresholds, payload fields and the operation stream.
The broker never sees this module; it only receives the generated inputs (as
Subscribe calls, publishes and front-door requests made by the workloads).
Each subscription carries the data the oracle needs to decide, without the
library's topic matcher or XPath engine, whether an event matches it.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Optional

EV_NS = "urn:perfbench:ev"
ZONES = tuple(f"z{i}" for i in range(10))

# dialect tags: how a consumer of each subscription kind must receive events
WSE01 = "wse-2004-01-push"
WSE08 = "wse-2004-08-push"
WSE08_WRAPPED = "wse-2004-08-wrapped"
WSN10 = "wsn-1.0"
WSN12 = "wsn-1.2"
WSN13 = "wsn-1.3"
WSN13_PULL = "wsn-1.3-pull"


@dataclass(frozen=True)
class Event:
    seq: int
    topic: str
    zone: str
    level: int

    def xml(self) -> str:
        return (
            f'<ev:Reading xmlns:ev="{EV_NS}"><ev:seq>{self.seq}</ev:seq>'
            f"<ev:zone>{self.zone}</ev:zone><ev:level>{self.level}</ev:level>"
            "</ev:Reading>"
        )


@dataclass(frozen=True)
class TopicPattern:
    """A topic constraint in oracle form.

    ``parts`` holds one entry per level; ``"*"`` stands for any one name.
    ``subtree`` means the pattern also admits every descendant topic (the
    Full dialect's trailing ``//.``).
    """

    parts: tuple[str, ...]
    subtree: bool = False

    def admits(self, topic: str) -> bool:
        levels = topic.split("/")
        if self.subtree:
            if len(levels) < len(self.parts):
                return False
        elif len(levels) != len(self.parts):
            return False
        return all(p == "*" or p == lv for p, lv in zip(self.parts, levels))

    @property
    def expression(self) -> str:
        text = "/".join(self.parts)
        return text + "//." if self.subtree else text

    @property
    def is_wildcard(self) -> bool:
        return self.subtree or "*" in self.parts


@dataclass(frozen=True)
class SubscriptionDef:
    """One subscription as the client asks for it."""

    tag: str
    dialect: str
    sink: str
    topic: Optional[TopicPattern] = None
    #: content constraint: the event's zone must equal this (None = any)
    zone: Optional[str] = None
    #: content constraint: the event's level must exceed this (None = any)
    min_level: Optional[int] = None

    def admits(self, event: Event) -> bool:
        if self.topic is not None and not self.topic.admits(event.topic):
            return False
        if self.zone is not None and event.zone != self.zone:
            return False
        if self.min_level is not None and not event.level > self.min_level:
            return False
        return True

    def xpath(self) -> Optional[str]:
        """The XPath 1.0 expression sent to the broker for the content part."""
        tests = []
        if self.zone is not None:
            tests.append(f"ev:zone='{self.zone}'")
        if self.min_level is not None:
            tests.append(f"ev:level > {self.min_level}")
        if not tests:
            return None
        return f"/ev:Reading[{' and '.join(tests)}]"


@dataclass(frozen=True)
class Op:
    """One closed-loop request: a publish or a control operation."""

    kind: str  # publish | renew | subscribe | unsubscribe | drain
    event: Optional[Event] = None
    subscription: Optional[SubscriptionDef] = None
    #: for renew/unsubscribe/drain: a draw in [0, 1) that picks the target
    #: among whatever is live when the op runs
    pick: float = 0.0


class Zipf:
    """Zipf-skewed choice over ``items`` (rank order shuffled by the seed)."""

    def __init__(self, items, exponent: float, rng: random.Random) -> None:
        self.items = list(items)
        rng.shuffle(self.items)
        weights = [1.0 / (rank**exponent) for rank in range(1, len(self.items) + 1)]
        self.cumulative = list(itertools.accumulate(weights))

    def draw(self, rng: random.Random) -> str:
        x = rng.random() * self.cumulative[-1]
        return self.items[bisect.bisect_right(self.cumulative, x)]


class Cycle:
    """Draws that use every item once per round, in a fresh seeded order.

    Subscriptions take their topic, zone and sink from cycles, so every topic
    (and sink) has the same number of subscribers whatever the seed: the seed
    changes which topics are hot, not how wide a publish fans out.  Each round
    is reshuffled, so two cycles do not keep pairing the same items.
    """

    def __init__(self, items, rng: random.Random) -> None:
        self.items = list(items)
        self.rng = random.Random(rng.random())
        self._next = len(self.items)

    def take(self):
        if self._next == len(self.items):
            self.rng.shuffle(self.items)
            self._next = 0
        item = self.items[self._next]
        self._next += 1
        return item


def _shares(count: int, mix, rng: random.Random) -> list:
    """Exactly ``round(share * count)`` of each kind, in seeded order."""
    kinds = [kind for kind, share in mix for _ in range(round(share * count))]
    kinds = (kinds + [mix[-1][0]] * count)[:count]
    rng.shuffle(kinds)
    return kinds


def _event_stream(rng: random.Random, topics: Zipf) -> Iterator[Event]:
    for seq in itertools.count(1):
        yield Event(seq, topics.draw(rng), rng.choice(ZONES), rng.randrange(100))


@dataclass
class Inputs:
    """Everything a workload's run is made from."""

    sinks: list[str]
    subscriptions: list[SubscriptionDef]
    ops: Iterator[Op]
    #: consumers behind an inbound-blocking firewall (drained by pull)
    firewalled: frozenset = frozenset()


#: share of the requests of fanout-wide and mediation-mixed that are lease
#: renewals.  Renewals are there only so ``control_p99_us`` has ten samples
#: beyond its p99, i.e. 1,000 control samples in a window.  A 24 s window holds
#: about 5,000 publishes (4.5 ms fanout-wide, 4.4 ms mediation-mixed) next to
#: renewals of 0.75 ms, so a share of 0.18 (0.22 renewals per publish) gives
#: about 1,100 renewals for 3-4% of the window's time; the window is extended
#: when it falls short (``runner.TAIL_SAMPLES``).
RENEW_SHARE = 0.18


def _publishes_and_renewals(workload: str, seed: int, topics: Zipf) -> Iterator[Op]:
    op_rng = random.Random(f"{workload}/ops/{seed}")
    events = _event_stream(op_rng, topics)
    while True:
        if op_rng.random() < RENEW_SHARE:
            yield Op("renew", pick=op_rng.random())
        else:
            yield Op("publish", event=next(events))


# --- fanout-wide ---------------------------------------------------------------------

#: share of fanout-wide subscriptions that are Full-dialect wildcards
WILDCARD_SHARE = 0.02


def fanout_wide(seed: int, *, subscriptions: int, sinks: int, roots: int = 10,
                groups: int = 10, leaves: int = 10) -> Inputs:
    rng = random.Random(f"fanout-wide/{seed}")
    sink_addrs = [f"http://consumer-{i}.fanout" for i in range(sinks)]
    topics = [
        f"r{a}/g{b}/t{c}"
        for a in range(roots) for b in range(groups) for c in range(leaves)
    ]
    wildcards = round(subscriptions * WILDCARD_SHARE)
    concrete = Cycle(topics, rng)
    sink_cycle = Cycle(sink_addrs, rng)
    subs = []
    for i in range(subscriptions):
        sink = sink_cycle.take()
        if i < wildcards:
            # kinds and roots in rotation, so each root carries the same mix
            a, b, c = i // 3 % roots, rng.randrange(groups), rng.randrange(leaves)
            pattern = (
                TopicPattern((f"r{a}", "*", f"t{c}")),
                TopicPattern((f"r{a}", f"g{b}", "*")),
                TopicPattern((f"r{a}",), subtree=True),
            )[i % 3]
        else:
            pattern = TopicPattern(tuple(concrete.take().split("/")))
        subs.append(SubscriptionDef(f"f{i}", WSN13, sink, topic=pattern))
    rng.shuffle(subs)
    mix = Zipf(topics, 1.0, rng)
    return Inputs(sink_addrs, subs, _publishes_and_renewals("fanout-wide", seed, mix))


# --- mediation-mixed -----------------------------------------------------------------

#: subscription kinds of the mediation mix with their shares
MEDIATION_MIX = (
    (WSE01, 0.03),
    (WSE08, 0.03),
    (WSE08_WRAPPED, 0.03),
    (WSN10, 0.22),
    (WSN12, 0.22),
    (WSN13, 0.47),
)


#: mediation-mixed topics are ``site<s>/dev<d>``
SITES = 10
DEVICES = 8


def mediation_mixed(seed: int, *, subscriptions: int, sinks: int) -> Inputs:
    rng = random.Random(f"mediation-mixed/{seed}")
    sink_addrs = [f"http://consumer-{i}.mediation" for i in range(sinks)]
    topics = [f"site{s}/dev{d}" for s in range(SITES) for d in range(DEVICES)]
    topic_cycle = Cycle(topics, rng)
    zone_cycle = Cycle(ZONES, rng)
    sink_cycle = Cycle(sink_addrs, rng)
    wse_levels = Cycle(range(30, 90), rng)
    wsn_levels = Cycle(range(20, 80), rng)
    subs = []
    for i, dialect in enumerate(_shares(subscriptions, MEDIATION_MIX, rng)):
        sink = sink_cycle.take()
        if dialect in (WSE01, WSE08, WSE08_WRAPPED):
            # WS-Eventing has no topics: an XPath filter on the payload
            sub = SubscriptionDef(
                f"m{i}", dialect, sink,
                zone=zone_cycle.take(), min_level=wse_levels.take(),
            )
        elif dialect == WSN13:
            sub = SubscriptionDef(
                f"m{i}", dialect, sink,
                topic=TopicPattern(tuple(topic_cycle.take().split("/"))),
                min_level=wsn_levels.take(),
            )
        else:
            sub = SubscriptionDef(
                f"m{i}", dialect, sink,
                topic=TopicPattern(tuple(topic_cycle.take().split("/"))),
            )
        subs.append(sub)
    mix = Zipf(topics, 1.0, rng)
    return Inputs(sink_addrs, subs, _publishes_and_renewals("mediation-mixed", seed, mix))


# --- durable-churn -------------------------------------------------------------------


#: op mix of the churn stream (publishes dominate; the rest are control)
CHURN_MIX = (
    ("publish", 0.5),
    ("subscribe", 0.1),
    ("renew", 0.12),
    ("unsubscribe", 0.1),
    ("drain", 0.18),
)


#: share of durable-churn sinks behind the inbound-blocking firewall
FIREWALLED_SHARE = 0.1
#: durable-churn topics are ``fleet/unit<t>``
CHURN_TOPICS = 150
#: share of durable-churn subscriptions made through WS-Eventing 08/2004
WSE_SHARE = 0.04


def durable_churn(seed: int, *, subscriptions: int, sinks: int) -> Inputs:
    rng = random.Random(f"durable-churn/{seed}")
    sink_addrs = [f"http://consumer-{i}.churn" for i in range(sinks)]
    firewalled = set(rng.sample(sink_addrs, max(1, int(sinks * FIREWALLED_SHARE))))
    topic_names = [f"fleet/unit{t}" for t in range(CHURN_TOPICS)]
    counter = itertools.count()
    topic_cycle = Cycle(topic_names, rng)
    zone_cycle = Cycle(ZONES, rng)
    kind_cycle = Cycle(_shares(100, ((WSE08, WSE_SHARE), (WSN13, 1 - WSE_SHARE)), rng), rng)
    sink_cycle = Cycle(sink_addrs, rng)
    levels = Cycle(range(50, 95), rng)

    def new_sub() -> SubscriptionDef:
        tag = f"c{next(counter)}"
        sink = sink_cycle.take()
        if kind_cycle.take() == WSN13:
            return SubscriptionDef(
                tag, WSN13, sink,
                topic=TopicPattern(tuple(topic_cycle.take().split("/"))),
            )
        return SubscriptionDef(
            tag, WSE08, sink, zone=zone_cycle.take(), min_level=levels.take()
        )

    subs = [new_sub() for _ in range(subscriptions)]
    mix = Zipf(topic_names, 0.8, rng)
    kinds = [kind for kind, _ in CHURN_MIX]
    weights = [share for _, share in CHURN_MIX]

    def ops() -> Iterator[Op]:
        op_rng = random.Random(f"durable-churn/ops/{seed}")
        events = _event_stream(op_rng, mix)
        while True:
            kind = op_rng.choices(kinds, weights)[0]
            if kind == "publish":
                yield Op("publish", event=next(events))
            elif kind == "subscribe":
                yield Op("subscribe", subscription=new_sub())
            else:
                yield Op(kind, pick=op_rng.random())

    return Inputs(sink_addrs, subs, ops(), frozenset(firewalled))
