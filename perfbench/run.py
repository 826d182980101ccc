"""The repository benchmark: one command, three workloads, oracle-checked.

    python3 perfbench/run.py --workload fanout-wide --seed 1 --seconds 24 --trace 0

Run from the repository root.  Workloads: ``fanout-wide`` and
``mediation-mixed`` (``BENCHMARK.json`` says why each was chosen), and
``durable-churn``, which ``BENCHMARK.json`` leaves out: on the current program
its recovery check fails on every seed (``recover_broker`` does not re-mint a
message box that was drained empty before the crash), so it exits 1 until the
store is fixed.

A run generates its inputs from ``--seed``, sets the broker up three times
(``setup_s`` is the median), then drives one closed loop -- one client, one
request in flight -- for ``--seconds`` of request time (at the reference
speed, see below).  Every metric is
printed by name with its unit; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics (see
``layers.json``) with ``--trace 1``.  The traced run alternates half-second
blocks without and with span wrappers installed, so ``trace.overhead_ratio``
compares the two; end-to-end numbers come only from untraced runs.

Gated times are not raw wall times: they are wall times net of preemption by
other processes, stated at a reference machine speed (``calibrate.py``); the
raw wall times are printed on the ``# unadjusted`` line.

The exit status is 0 only when the delivery oracle (and, for
``durable-churn``, the recovery checks) found nothing wrong.  The benchmark's
own tests: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("fanout-wide", "mediation-mixed", "durable-churn")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.runner import run

    result = run(
        args.workload, args.seed, args.seconds, bool(args.trace), root=ROOT,
        trace_out=ROOT / ".perfbench-out" / f"{args.workload}.spans" if args.trace else None,
    )
    report = result.pop("report")
    for key, value in report.items():
        print(f"# {key}: {value}")
    notes = {
        "publish_p50_us": f"n={report['publish_samples']}",
        "publish_p99_us": f"n={report['publish_samples']}",
        "control_p50_us": f"n={report['control_samples']}",
        "control_p99_us": f"n={report['control_samples']}",
    }
    absent = set(report.get("not_applicable", ()))
    for name, metric in result["metrics"].items():
        if name in absent:
            print(f"{name} n/a")
        else:
            print(f"{name} {metric['value']:.6g} {metric['unit']} {notes.get(name, '')}".rstrip())
    if not args.trace:
        # end-to-end figures outside the gated set: zero on a correct run, or
        # defined for one workload only
        print(f"error_rate {report['error_rate']:.6g} ratio "
              f"({result['attempted']} attempted)")
        recovery = report.get("recovery")
        print(f"recovery_s {recovery['recovery_s']:.6g} s" if recovery
              else "recovery_s n/a (no store)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
