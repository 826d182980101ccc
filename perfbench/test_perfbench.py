"""Self-tests of the benchmark (run with ``python3 -m pytest perfbench -q``).

They run the workloads at ``tiny`` scale with a fixed operation count, so
they are deterministic and take a few seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.runner import run  # noqa: E402
from perfbench.workloads import ACK  # noqa: E402

OPS = 300


def _counts(result: dict) -> dict:
    report = result["report"]
    counts = {
        "consumer_requests": report["consumer_requests"],
        "consumer_bytes": report["consumer_bytes"],
        "delivered": report["delivered"],
        "expected": report["expected"],
        "template_misses": report["template_misses"],
    }
    if "recovery" in report:
        counts["log_records"] = report["recovery"]["records"]
        counts["log_bytes"] = report["recovery"]["log_bytes"]
    return counts


@pytest.mark.parametrize("workload", ["fanout-wide", "mediation-mixed", "durable-churn"])
def test_same_seed_same_exact_counts(workload, tmp_path):
    first = run(workload, 7, 1e9, False, root=tmp_path, scale="tiny", max_ops=OPS)
    second = run(workload, 7, 1e9, False, root=tmp_path, scale="tiny", max_ops=OPS)
    assert _counts(first) == _counts(second)
    assert first["report"]["delivered"] > 0


@pytest.mark.parametrize("workload", ["fanout-wide", "mediation-mixed"])
def test_oracle_catches_a_silently_dropped_delivery(workload, tmp_path):
    def drop_first_delivery(env):
        accept = env.sinks.accept
        dropped = []

        def lossy(wire: bytes) -> bytes:
            if not dropped:  # acknowledge, but never record, the first one
                dropped.append(wire)
                return ACK
            return accept(wire)

        for address in env.inputs.sinks:
            env.network.register(address, lossy)

    result = run(workload, 7, 1e9, False, root=tmp_path, scale="tiny", max_ops=OPS,
                 after_setup=drop_first_delivery)
    assert not result["correct"]
    assert result["report"]["missing"] >= 1
    assert result["failed"] >= 1


@pytest.mark.xfail(
    strict=True,
    reason="recover_broker does not re-mint a message box that was fully drained "
    "before the crash, so box addresses shift and store.projection differs",
)
def test_durable_churn_reaches_the_projection_fixpoint(tmp_path):
    result = run("durable-churn", 7, 1e9, False, root=tmp_path, scale="tiny", max_ops=OPS)
    assert result["report"]["recovery"]["fixpoint"]


@pytest.mark.parametrize("workload", ["fanout-wide", "mediation-mixed"])
def test_traced_run_reports_every_per_layer_metric(workload, tmp_path):
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    result = run(workload, 7, 1e9, True, root=tmp_path, scale="tiny", max_ops=OPS)
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(names)
    # both kinds of block ran: the ratio compares two non-empty halves
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert metrics["trace.spans"]["value"] > 0
    assert result["correct"]


def test_durable_churn_traced_run_adds_delivery_and_store_layers(tmp_path):
    names = json.loads((ROOT / "perfbench" / "layers.json").read_text())["per_layer"]
    result = run("durable-churn", 7, 1e9, True, root=tmp_path, scale="tiny", max_ops=OPS)
    assert sorted(result["metrics"]) == sorted(names)
