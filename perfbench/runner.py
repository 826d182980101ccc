"""One benchmark run: set up, measure, settle, check, and compute metrics."""

from __future__ import annotations

import gc
import itertools
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from perfbench.calibrate import SpeedProbe, net_time
from perfbench.tracing import Tracer
from perfbench.workloads import (
    SCALES,
    WORKLOADS,
    ChurnEnv,
    Env,
    remove_dir,
    reset_process_state,
    scratch_dir,
)

from repro.filters.compilecache import FILTER_COMPILE_STATS
from repro.xmlkit.template import TEMPLATE_STATS
from repro.xmlkit.writer import WRITER_STATS

#: set-ups per run; ``setup_s`` is their median
SETUPS = 3
#: captured consumer bytes are decoded (outside the timed requests) this often
DECODE_EVERY = 200
#: the reference task is timed between requests this often (see calibrate.py)
CALIBRATE_EVERY = 5
#: set-up Subscribes are timed in chunks of this many, the reference between
SETUP_CHUNK = 50
#: a window lasts until it holds this many publish and control samples, so
#: each p99 has at least ten samples beyond it
TAIL_SAMPLES = 1000
#: request time (s) of one block of the traced run; blocks alternate between
#: untraced and traced
TRACE_BLOCK_S = 0.5


@dataclass
class Window:
    """What one timed window did.  ``*_s`` are request times net of
    preemption at the reference speed (see calibrate.py); ``raw_*`` are the
    unadjusted wall times."""

    publish_s: list = field(default_factory=list)
    control_s: list = field(default_factory=list)
    raw_publish_s: list = field(default_factory=list)
    raw_control_s: list = field(default_factory=list)
    #: unadjusted wall time of the timed requests
    raw_elapsed: float = 0.0
    #: request time net of preemption, before and after scaling
    net_elapsed: float = 0.0
    elapsed: float = 0.0
    ops: int = 0
    notifications: int = 0
    consumer_requests: int = 0
    consumer_bytes: int = 0
    batched_requests: int = 0

    @property
    def publishes(self) -> int:
        return len(self.publish_s)

    @property
    def notify_per_s(self) -> float:
        return self.notifications / self.elapsed if self.elapsed else 0.0

    @property
    def speed_factor(self) -> float:
        """Reference speed / machine speed over the window."""
        return self.elapsed / self.net_elapsed if self.net_elapsed else 1.0

    def absorb(self, other: "Window") -> None:
        for name in ("publish_s", "control_s", "raw_publish_s", "raw_control_s"):
            getattr(self, name).extend(getattr(other, name))
        for name in ("raw_elapsed", "net_elapsed", "elapsed", "ops", "notifications",
                     "consumer_requests", "consumer_bytes", "batched_requests"):
            setattr(self, name, getattr(self, name) + getattr(other, name))


def measure(env: Env, ops, seconds: float, max_ops: Optional[int], *,
            first_op: int = 0, tail_samples: int = TAIL_SAMPLES) -> Window:
    """Closed loop: the next request is issued when the previous one returns.
    Only the requests themselves are timed; decoding runs between them.  The
    window ends after ``seconds`` of request time at the reference speed, so
    a run does the same work whether the machine is fast or slow just then,
    but not before it holds ``tail_samples`` publish samples and (if the
    workload issues any) control samples."""
    env.decode()
    oracle = env.oracle
    delivered0 = oracle.verdict.delivered
    requests0, bytes0 = env.push_requests, env.consumer_bytes()
    batched0 = env.batched_requests
    win = Window()
    probe = SpeedProbe()
    positions = {"publish": [], "control": []}
    nets = {"publish": [], "control": []}
    done = 0
    tracer = env.tracer
    probe.sample(done)
    budget = 0.0

    def short() -> bool:
        return (len(nets["publish"]) < tail_samples
                or 0 < len(nets["control"]) < tail_samples)

    while (budget < seconds or short()) and (max_ops is None or done < max_ops):
        op = next(ops)
        if tracer is not None:
            tracer.publish_id = first_op + done
        kind, timing = env.execute(op)
        done += 1
        if timing is not None:
            net, wall = timing
            win.raw_elapsed += wall
            budget += net * probe.recent_factor()
            nets[kind].append(net)
            (win.raw_publish_s if kind == "publish" else win.raw_control_s).append(wall)
            positions[kind].append(done)
        if done % CALIBRATE_EVERY == 0:
            probe.sample(done)
        if done % DECODE_EVERY == 0:
            env.decode()
    probe.sample(done)
    env.decode()
    win.publish_s = [
        net * f for net, f in zip(nets["publish"], probe.factors(positions["publish"]))
    ]
    win.control_s = [
        net * f for net, f in zip(nets["control"], probe.factors(positions["control"]))
    ]
    win.elapsed = sum(win.publish_s) + sum(win.control_s)
    win.net_elapsed = sum(nets["publish"]) + sum(nets["control"])
    win.ops = done
    win.notifications = oracle.verdict.delivered - delivered0
    win.consumer_requests = env.push_requests - requests0
    win.consumer_bytes = env.consumer_bytes() - bytes0
    win.batched_requests = env.batched_requests - batched0
    return win


def timed_setup(env: Env) -> tuple[float, float]:
    """Build the broker and make every initial subscription.  Returns (wall,
    adjusted) seconds, adjusted like request times in :func:`measure`."""
    subs = env.inputs.subscriptions
    steps = [(env.build,)] + [
        (env.subscribe_all, subs[i:i + SETUP_CHUNK])
        for i in range(0, len(subs), SETUP_CHUNK)
    ]
    probe = SpeedProbe()
    walls, nets = [], []
    for position, (fn, *args) in enumerate(steps):
        probe.sample(position)
        _, wall, net = net_time(fn, *args)
        walls.append(wall)
        nets.append(net)
    probe.sample(len(steps))
    factors = probe.factors(list(range(len(steps))))
    return sum(walls), sum(net * f for net, f in zip(nets, factors))


def quantile(samples: list, q: float) -> float:
    """The ``q`` quantile (inclusive method, linear interpolation)."""
    if len(samples) < 2:
        return samples[0] if samples else float("nan")
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


class GcProbe:
    """Collector pause time and full collections, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.gen2 = 0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            if info.get("generation") == 2:
                self.gen2 += 1


def install_tracing(tracer: Tracer, env: Env) -> None:
    """Wrap the public entry points of each layer the per-layer table names."""
    import repro.messenger.broker as messenger_broker
    import repro.messenger.mediation as mediation
    import repro.soap.codec as codec
    import repro.transport.endpoint as endpoint
    import repro.wsn.messages as wsn_messages
    import repro.wsn.templates as templates
    from repro.delivery.manager import DeliveryManager
    from repro.filters.base import AcceptAllFilter, AndFilter
    from repro.filters.content import MessageContentFilter
    from repro.filters.producer import ProducerPropertiesFilter
    from repro.filters.topics import TopicFilter, TopicSubscriptionIndex
    from repro.messenger.broker import WsMessenger
    from repro.transport.network import SimulatedNetwork
    from repro.wse.source import EventSource
    from repro.wsn.producer import NotificationProducer
    from repro.xmlkit.xpath import XPath

    count = tracer.count
    tracer.patch(
        TopicSubscriptionIndex, "candidates", "filters.candidates",
        on_result=lambda keys: count("filters.candidates", len(keys)),
    )
    for cls in (TopicFilter, MessageContentFilter, AndFilter, AcceptAllFilter,
                ProducerPropertiesFilter):
        tracer.patch_raw(cls, "matches", tracer.counting_filter(cls.matches))
    tracer.patch(XPath, "matches", "filters.xpath")
    on_matched = lambda matched: count("filters.matched", matched)  # noqa: E731
    tracer.patch(NotificationProducer, "publish", "wsn.publish", on_result=on_matched)
    tracer.patch(EventSource, "publish", "wse.publish", on_result=on_matched)
    tracer.patch(templates.NotifyTemplateCache, "lookup", "wsn.render.lookup")
    tracer.patch(templates.CompiledNotify, "render", "wsn.render.join")
    tracer.patch(wsn_messages, "build_notify", "wsn.render.tree")
    for source in env.broker.wse_sources.values():
        tracer.patch(source._client, "call", "wse.render")
    tracer.patch(codec, "serialize_xml", "xmlkit.serialize")
    tracer.patch(templates, "serialize_with_allocator", "xmlkit.serialize")
    tracer.patch(endpoint, "parse_envelope", "soap.parse")
    tracer.patch(endpoint, "serialize_envelope", "soap.serialize")
    tracer.patch(messenger_broker, "detect_spec", "messenger.detect")
    tracer.patch(mediation, "neutral_from_wsn_notify", "messenger.mediate")
    tracer.patch(WsMessenger, "publish", "messenger.publish")
    tracer.patch(WsMessenger, "pump_deliveries", "delivery.pump")
    for name in ("build_request", "parse_request", "parse_response"):
        tracer.patch(endpoint, name, "transport.framing")
    tracer.patch(SimulatedNetwork, "send_request", "transport.send")
    # handler spans keep the receiving side out of transport.send's self time
    for registration in env.network._registrations.values():
        tracer.patch(registration, "handler", "transport.handler")
    tracer.patch(DeliveryManager, "submit", "delivery.submit")
    if isinstance(env, ChurnEnv):
        tracer.patch(env.log, "append", "store.append")


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced: Window, untraced: Window, deltas: dict,
                  setup_s: float, subscriptions: int, gc_probe: GcProbe,
                  recovery: Optional[dict]) -> tuple[dict, list]:
    """The per-layer metrics, and the names of those the workload never reached."""
    self_times = tracer.self_times()
    none = (0.0, 0, 0.0)
    # span times are scaled to the reference speed like the end-to-end ones
    scale = traced.speed_factor

    def total(*names):
        return scale * sum(self_times.get(n, none)[0] for n in names)

    def calls(*names):
        return sum(self_times.get(n, none)[1] for n in names)

    def per_call_us(*names):
        return _per(total(*names), calls(*names)) * 1e6

    pubs = traced.publishes
    notes = traced.notifications
    counts = tracer.counts
    templates = deltas["template_hits"] + deltas["template_misses"] + deltas["template_fallbacks"]
    compiles = FILTER_COMPILE_STATS.hits + FILTER_COMPILE_STATS.misses
    delivery = deltas.get("delivery", {})
    store = deltas.get("store", {})
    metrics = {
        "filters.topic_match_us": (_per(total("filters.candidates"), pubs) * 1e6, "us"),
        "filters.candidates": (_per(counts.get("filters.candidates", 0), pubs), "count"),
        "filters.evals": (_per(counts.get("filters.evals", 0), pubs), "count"),
        "filters.useful_ratio": (
            _per(counts.get("filters.matched", 0), counts.get("filters.evals", 0)), "ratio"),
        "filters.xpath_eval_us": (per_call_us("filters.xpath"), "us"),
        "filters.xpath_evals": (_per(calls("filters.xpath"), pubs), "count"),
        "filters.compile_hit_ratio": (_per(FILTER_COMPILE_STATS.hits, compiles), "ratio"),
        "wsn.render_us": (
            _per(total("wsn.render.lookup", "wsn.render.join", "wsn.render.tree"),
                 calls("wsn.render.lookup") or calls("wsn.render.tree")) * 1e6, "us"),
        "wsn.template_hit_ratio": (_per(deltas["template_hits"], templates), "ratio"),
        "wsn.template_compiles": (_per(deltas["template_misses"], pubs), "count"),
        "wse.render_us": (per_call_us("wse.render"), "us"),
        "xmlkit.tree_serializations": (_per(deltas["tree_serializations"], notes), "count"),
        "xmlkit.serialize_us": (per_call_us("xmlkit.serialize"), "us"),
        "soap.parse_us": (per_call_us("soap.parse"), "us"),
        "soap.serialize_us": (per_call_us("soap.serialize"), "us"),
        "messenger.detect_us": (per_call_us("messenger.detect"), "us"),
        "messenger.mediate_us": (per_call_us("messenger.mediate"), "us"),
        "messenger.publish_self_us": (per_call_us("messenger.publish"), "us"),
        "transport.requests_per_notify": (_per(traced.consumer_requests, notes), "ratio"),
        "transport.bytes_per_request": (
            _per(traced.consumer_bytes, traced.consumer_requests), "B"),
        "transport.framing_us": (per_call_us("transport.framing"), "us"),
        "transport.send_us": (per_call_us("transport.send"), "us"),
        "delivery.batched_ratio": (
            _per(traced.batched_requests, traced.consumer_requests), "ratio"),
        "setup.subscribe_us": (_per(setup_s, subscriptions) * 1e6, "us"),
        "runtime.gc_ms": (
            _per(gc_probe.seconds * untraced.speed_factor * 1e3, untraced.publishes) * 1000,
            "ms"),
        "runtime.gc_gen2": (_per(gc_probe.gen2, untraced.publishes) * 1000, "count"),
        "trace.overhead_ratio": (_per(untraced.notify_per_s, traced.notify_per_s), "ratio"),
        "trace.spans": (float(len(tracer.start)), "count"),
    }
    # a workload without a delivery manager or a store has no such layer: its
    # metrics are left out, not reported as zero
    if delivery:
        metrics.update({
            "delivery.attempts_per_notify": (
                _per(delivery.get("attempts", 0), delivery.get("delivered", 0)), "ratio"),
            "delivery.retries": (_per(delivery.get("retries", 0), pubs), "count"),
            "delivery.parked": (_per(delivery.get("parked", 0), pubs), "count"),
            "delivery.dead_lettered": (_per(delivery.get("dead_lettered", 0), pubs), "count"),
            "delivery.submit_us": (per_call_us("delivery.submit"), "us"),
            "delivery.pump_us": (_per(total("delivery.pump"), pubs) * 1e6, "us"),
            # a drain is one GetMessages exchange: inclusive time, not self time
            "delivery.pull_us": (
                _per(scale * self_times.get("delivery.pull", none)[2], calls("delivery.pull"))
                * 1e6,
                "us"),
        })
    if recovery is not None:
        metrics.update({
            "store.records_per_publish": (_per(store.get("appends", 0), pubs), "count"),
            "store.bytes_per_publish": (_per(store.get("bytes", 0), pubs), "B"),
            "store.append_us": (per_call_us("store.append"), "us"),
            "store.replay_records_per_s": (
                _per(recovery["records"], recovery["recovery_s"]), "1/s"),
            "store.recovery_s": (recovery["recovery_s"], "s"),
        })
    # metrics of a layer the workload never entered print as n/a (JSON keeps 0)
    spans = {
        "filters.xpath_eval_us": "filters.xpath", "wsn.render_us": "wsn.render.lookup",
        "wse.render_us": "wse.render", "messenger.detect_us": "messenger.detect",
        "messenger.mediate_us": "messenger.mediate", "delivery.submit_us": "delivery.submit",
        "delivery.pump_us": "delivery.pump", "delivery.pull_us": "delivery.pull",
    }
    absent = {metric for metric, span in spans.items() if metric in metrics and not calls(span)}
    values = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return values, sorted(absent)


def end_to_end(win: Window, setup_s: float, raw: bool = False) -> dict:
    publish = win.raw_publish_s if raw else win.publish_s
    control = win.raw_control_s if raw else win.control_s
    elapsed = win.raw_elapsed if raw else win.elapsed
    values = {
        "setup_s": (setup_s, "s"),
        "notify_per_s": (win.notifications / elapsed, "1/s"),
        "publish_p50_us": (quantile(publish, 0.50) * 1e6, "us"),
        "publish_p99_us": (quantile(publish, 0.99) * 1e6, "us"),
        "control_p50_us": (quantile(control, 0.50) * 1e6, "us"),
        "control_p99_us": (quantile(control, 0.99) * 1e6, "us"),
        "wire_bytes_per_notify": (win.consumer_bytes / win.notifications, "B"),
        "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _snapshot(env: Env) -> dict:
    snap = {
        "template_hits": TEMPLATE_STATS.hits,
        "template_misses": TEMPLATE_STATS.misses,
        "template_fallbacks": TEMPLATE_STATS.fallbacks,
        "tree_serializations": WRITER_STATS.tree_serializations,
    }
    stats = env.delivery_stats()
    if stats is not None:
        snap["delivery"] = stats.snapshot()
    if isinstance(env, ChurnEnv):
        snap["store"] = {
            "appends": env.broker.store.stats.appends,
            "bytes": env.log_path.stat().st_size,
        }
    return snap


def _delta(after: dict, before: dict) -> dict:
    out = {}
    for key, value in after.items():
        out[key] = _delta(value, before[key]) if isinstance(value, dict) else value - before[key]
    return out


def set_up(name: str, inputs, seed: int, workdir: Path):
    """Build the broker and its subscriptions ``SETUPS`` times, each from a
    cold process state; returns the last env and the adjusted and wall times."""
    env = None
    adjusted, walls = [], []
    for _ in range(SETUPS):
        if env is not None:
            env.close()
            env = None
            gc.collect()
        reset_process_state()
        FILTER_COMPILE_STATS.reset()
        env = WORKLOADS[name][1](inputs, seed, workdir)
        wall, adjusted_s = timed_setup(env)
        walls.append(wall)
        adjusted.append(adjusted_s)
    return env, adjusted, walls


def _add(total: dict, part: dict) -> dict:
    out = dict(total)
    for key, value in part.items():
        out[key] = _add(total.get(key, {}), value) if isinstance(value, dict) \
            else total.get(key, 0) + value
    return out


def traced_windows(env: Env, ops, seconds: float, max_ops: Optional[int]):
    """Blocks of ``TRACE_BLOCK_S``, alternately untraced (collector probed)
    and traced (span wrappers installed), so that drift of the workload's
    state over the window (a growing log, churned subscriptions) falls on
    both sides of ``trace.overhead_ratio`` alike."""
    gc_probe = GcProbe()
    tracer = Tracer()
    untraced, traced = Window(), Window()
    deltas: dict = {}
    # an op-limited run (the self-tests) spreads its ops over several blocks
    block_ops = None if max_ops is None else max(1, max_ops // 4)
    gc.collect()
    for block in itertools.count():
        done = untraced.ops + traced.ops
        if (block >= 2 and untraced.elapsed + traced.elapsed >= seconds) or (
                max_ops is not None and done >= max_ops):
            break
        left = None if max_ops is None else min(block_ops, max_ops - done)
        if block % 2 == 0:
            gc.callbacks.append(gc_probe)
            try:
                win = measure(env, ops, TRACE_BLOCK_S, left, first_op=done, tail_samples=0)
            finally:
                gc.callbacks.remove(gc_probe)
            untraced.absorb(win)
            continue
        install_tracing(tracer, env)
        env.tracer = tracer
        before = _snapshot(env)
        tracer.active = True
        try:
            win = measure(env, ops, TRACE_BLOCK_S, left, first_op=done, tail_samples=0)
        finally:
            tracer.active = False
            tracer.unpatch()
            env.tracer = None
        deltas = _add(deltas, _delta(_snapshot(env), before))
        traced.absorb(win)
    return untraced, traced, tracer, gc_probe, deltas


def run(name: str, seed: int, seconds: float, trace: bool, *, root: Path,
        scale: str = "full", max_ops: Optional[int] = None,
        after_setup: Optional[Callable[[Env], None]] = None,
        trace_out: Optional[Path] = None) -> dict:
    """Run one workload; returns the result object the command prints."""
    sizes = SCALES[scale][name]
    inputs = WORKLOADS[name][0](seed, **sizes)
    workdir = scratch_dir(root)
    env = None
    try:
        env, setup_times, raw_setups = set_up(name, inputs, seed, workdir)
        if after_setup is not None:
            after_setup(env)
        setup_s = statistics.median(setup_times)
        if trace:
            untraced, traced, tracer, gc_probe, deltas = traced_windows(
                env, inputs.ops, seconds, max_ops
            )
            windows = [untraced, traced]
        else:
            gc.collect()
            windows = [measure(env, inputs.ops, seconds, max_ops)]
        env.settle()
        env.decode()
        verdict = env.oracle.finish()
        stats = env.delivery_stats()
        dead = stats.dead_lettered if stats is not None else 0
        recovery = None
        recovery_failures = 0
        if isinstance(env, ChurnEnv):
            recovery = env.crash_and_recover()
            recovery_failures = (
                (0 if recovery["fixpoint"] else 1)
                + recovery["resent"]
                + abs(recovery["recovered_subscriptions"] - recovery["expected_subscriptions"])
            )
        publishes = sum(w.publishes for w in windows)
        controls = sum(len(w.control_s) for w in windows)
        # error_rate: faults returned to clients, dead letters
        # and the oracle's findings; the recovery checks count in ``failed``
        errors = verdict.failures + env.faults + dead
        attempted = publishes + controls + verdict.expected + (1 if recovery else 0)
        failed = errors + recovery_failures
        head = windows[0]
        report = {
            "workload": name, "seed": seed, "scale": scale,
            "subscriptions": sizes["subscriptions"],
            "setups_s": setup_times, "wall_setups_s": raw_setups,
            "publishes": publishes, "control_ops": controls,
            "publish_samples": head.publishes, "control_samples": len(head.control_s),
            "expected": verdict.expected, "delivered": verdict.delivered,
            "missing": verdict.missing, "duplicates": verdict.duplicates,
            "wrong_dialect": verdict.wrong_dialect, "wrong_content": verdict.wrong_content,
            "undecodable": verdict.undecodable, "faults": env.faults,
            "dead_lettered": dead, "error_rate": errors / attempted,
            "recovery_checks_failed": recovery_failures,
            "problems": verdict.examples,
            "consumer_requests": env.push_requests, "consumer_bytes": env.consumer_bytes(),
            "template_misses": TEMPLATE_STATS.misses,
        }
        if recovery is not None:
            report["recovery"] = recovery
        if trace:
            metrics, report["not_applicable"] = layer_metrics(
                tracer, traced, untraced, deltas, setup_s, sizes["subscriptions"],
                gc_probe, recovery,
            )
            if trace_out is not None:
                tracer.write(trace_out)
        else:
            metrics = end_to_end(head, setup_s)
            report["unadjusted"] = {
                metric: round(entry["value"], 3)
                for metric, entry in end_to_end(
                    head, statistics.median(raw_setups), raw=True
                ).items()
            }
            report["speed_factor"] = head.speed_factor
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
            "report": report,
        }
    finally:
        if env is not None:
            env.close()
        remove_dir(workdir)
