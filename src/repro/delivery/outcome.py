"""Delivery-outcome reporting: no failure is ever invisible.

Before this subsystem existed, the WSE source and WSN producer swallowed
push failures in bare ``except (NetworkError, SoapFault): pass`` blocks —
exactly the silent drop the paper's "reliable" broker claim forbids.  Under
the direct delivery policy every failed send now produces a
:class:`DeliveryFailure` record on the owning component's
``delivery_failures`` list and bumps the ``delivery.failed_total`` obs
counter once, labelled with the send site's stage; a reliable policy counts
each failed attempt (``stage=attempt``) and dead-letters what it gives up
on.  The record is deliberately tiny: components keep it even in
uninstrumented runs, so tests and operators can always answer "what did we
fail to deliver, to whom, and why".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class DeliveryFailure:
    """One failed outbound send, recorded where it happened."""

    #: virtual-clock time of the failure
    at: float
    #: protocol family label ("wse"/"wsn")
    family: str
    #: which pipeline stage failed ("notify", "subscription_end",
    #: "termination_notification", ...)
    stage: str
    #: target address
    sink: str
    #: ``type(exc).__name__`` — stable across runs, unlike stringified args
    kind: str
    detail: str = ""


def record_failure(
    failures: list[DeliveryFailure],
    instrumentation,
    *,
    at: float,
    family: str,
    stage: str,
    sink: str,
    error: Exception,
) -> DeliveryFailure:
    """Append a failure record and count it; returns the record."""
    failure = DeliveryFailure(
        at=at,
        family=family,
        stage=stage,
        sink=sink,
        kind=type(error).__name__,
        detail=str(error),
    )
    failures.append(failure)
    instrumentation.count(
        "delivery.failed_total", family=family, stage=stage, kind=failure.kind
    )
    return failure


def failure_counts(failures: list[DeliveryFailure]) -> dict[str, int]:
    """Aggregate records by ``family/stage/kind`` (deterministic order)."""
    counts: dict[str, int] = {}
    for failure in failures:
        key = f"{failure.family}/{failure.stage}/{failure.kind}"
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))
