"""Timing on a shared machine: net of preemption, at a reference speed.

The times the benchmark gates on are not raw wall-clock times.  Two kinds of
interference from other tenants of a shared machine are removed from them;
everything the program itself does, blocking included, stays in.  The raw
wall times are printed beside them (the ``# unadjusted`` line).

* Preemption.  :func:`net_time` measures a call's wall time and the thread's
  CPU time.  If the thread made no voluntary context switch during the call
  (it never blocked, e.g. on I/O), the difference between the two is time the
  scheduler gave to other processes while the call was runnable, and the call
  is charged its CPU time.  A call that blocked is charged its full wall time.
* Speed drift.  On a shared 2-vCPU host the speed of one core changes by up
  to a factor of two within seconds (neighbours contend for the core, its
  caches and its clock), and raw wall times of one workload spread by more
  than some bounds over ten runs (see ``baseline.json``).  A fixed reference
  task, unrelated to the program (dict/str work and standard-library XML
  parsing), is timed between requests, and each request's time is scaled by
  ``NOMINAL_S / local reference time``: it is stated at the reference speed.

The program never runs the reference task, but the two share a process.  So
that the program's state does not leak into the reference time, the task runs
with the cyclic collector off (a larger program heap would otherwise make its
collections slower) and is timed only after an untimed warm-up run (a larger
program working set would otherwise leave it colder caches).
"""

from __future__ import annotations

import bisect
import gc
import resource
import statistics
import time
import xml.etree.ElementTree as ET

#: the reference task's wall time at the reference speed (seconds)
NOMINAL_S = 200e-6
_XML = (
    b'<a xmlns="urn:perfbench:ref"><b k="1">text</b>'
    b"<c><d>1</d><d>2</d><d>3</d></c></a>"
)


def reference_task() -> int:
    counts: dict[str, int] = {}
    parts = []
    for i in range(300):
        key = f"k{i % 37}"
        counts[key] = counts.get(key, 0) + i
        parts.append(key)
    size = len("".join(parts))
    for _ in range(5):
        size += len(ET.fromstring(_XML))
    return size + len(counts)


def net_time(fn, *args):
    """Call ``fn``; return (result, wall seconds, net seconds)."""
    switches = resource.getrusage(resource.RUSAGE_THREAD).ru_nvcsw
    cpu = time.thread_time()
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    cpu = time.thread_time() - cpu
    blocked = resource.getrusage(resource.RUSAGE_THREAD).ru_nvcsw != switches
    return result, wall, wall if blocked else min(wall, cpu)


class SpeedProbe:
    """Reference-task timings, each tagged with a position in the op stream."""

    #: reference samples on each side of an op that set its local speed
    NEIGHBOURS = 6

    def __init__(self) -> None:
        self.positions: list[int] = []
        self.seconds: list[float] = []

    def sample(self, position: int, repeats: int = 2) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            reference_task()
            for _ in range(repeats):
                self.seconds.append(net_time(reference_task)[2])
                self.positions.append(position)
        finally:
            if collecting:
                gc.enable()

    def factor(self) -> float:
        """Scale for everything sampled so far (one speed for the span)."""
        return NOMINAL_S / statistics.median(self.seconds)

    def recent_factor(self) -> float:
        """Scale from the latest samples only (for decisions made online)."""
        return NOMINAL_S / statistics.median(self.seconds[-2 * self.NEIGHBOURS:])

    def factors(self, positions: list[int]) -> list[float]:
        """A local scale for each op position (neighbouring samples only)."""
        out = []
        k = self.NEIGHBOURS
        for position in positions:
            i = bisect.bisect_left(self.positions, position)
            local = self.seconds[max(0, i - k): i + k]
            out.append(NOMINAL_S / statistics.median(local))
        return out


def timed_at_reference_speed(fn, *args, repeats: int = 5):
    """Run ``fn`` once; return (result, wall seconds, adjusted seconds), the
    speed taken from reference samples right before and after it."""
    probe = SpeedProbe()
    probe.sample(0, repeats)
    result, wall, net = net_time(fn, *args)
    probe.sample(1, repeats)
    return result, wall, net * probe.factor()
