"""The repo benchmark: seven pinned workloads measured from outside.

See ``bench/README.md``; run with ``python3 -m bench``.
"""

from __future__ import annotations

import heapq
import statistics
import time
from collections import Counter

#: Wall of one ``calibrate()`` call on the 2-core reference box at its
#: usual speed, so that a normalised second is about a second there.
CALIBRATION_REF_S = 0.025


class _Node:
    __slots__ = ("hits", "link")

    def __init__(self) -> None:
        self.hits = 0
        self.link = None

    def hit(self) -> None:
        self.hits += 1


def calibrate(steps: int = 40_000) -> float:
    """Wall of a fixed pure-Python kernel shaped like the simulator's hot
    loop: a tuple heap, method calls on slotted objects, a dict of
    counters and a steady trickle of allocations.

    It imports nothing from ``repro`` and never changes, so its time
    moves with the host's speed alone.
    """
    start = time.perf_counter()
    push, pop = heapq.heappush, heapq.heappop
    nodes = [_Node() for _ in range(512)]
    heap: list = []
    table: dict = {}
    now = 0
    for i in range(steps):
        push(heap, (now + (i * 7919) % 1000, i, nodes[i & 511]))
        if len(heap) > 64:
            now, _seq, node = pop(heap)
            node.hit()
            table[now & 1023] = table.get(now & 1023, 0) + 1
            if i & 7 == 0:
                node.link = _Node()
    return time.perf_counter() - start


class HostSpeed:
    """How much slower than the reference the host ran a timed section.

    The shared box this benchmark runs on changes speed by up to 1.5x
    for seconds to minutes at a time, with no steal time to show for it.
    Every timed section is therefore bracketed by calibration readings
    (the one after a section is the one before the next), and its wall is
    divided by ``slowdown()``: the mean of the two readings over
    ``CALIBRATION_REF_S``.

    A reading is the median of ``samples`` ``calibrate()`` calls.  One is
    enough beside in-process work; the harness, which wakes up with cold
    caches after each subprocess, takes three.
    """

    def __init__(self, samples: int = 1) -> None:
        self.samples = samples
        for _ in range(3):      # the kernel's own first-call costs
            calibrate()
        self.last = self._reading()

    def _reading(self) -> float:
        return statistics.median(calibrate() for _ in range(self.samples))

    def slowdown(self) -> float:
        before, self.last = self.last, self._reading()
        return (before + self.last) / 2 / CALIBRATION_REF_S


class Budget:
    """How many repetitions one run makes.

    At least ``min_reps`` (two are needed to see that the exact counters
    repeat), then as many as end inside ``--seconds``.  When a traced
    repetition follows (about 3.5x slower under cProfile) the untraced
    ones get 40 % of the time.
    """

    def __init__(self, seconds: float, trace: bool) -> None:
        self.seconds = seconds * (0.4 if trace else 1.0)
        self.min_reps = 2 if trace else 3
        self.start = time.perf_counter()

    def spent(self, walls: list[float]) -> bool:
        """True when another repetition of typical length would overrun."""
        elapsed = time.perf_counter() - self.start
        return (len(walls) >= self.min_reps
                and elapsed + statistics.median(walls) > self.seconds)


def fabric_counters(registry_counters: dict[str, int]) -> dict[str, int]:
    """Per-layer names from a ``MetricsRegistry`` counter snapshot.

    The registry names one counter per instance (``switch.sw3.trimmed``,
    ``switch.sw4.trimmed``); a layer metric is their sum.  The child reads
    the snapshot off a live registry, the harness off the ``metrics`` block
    of a sweep's cache entries.
    """
    summed: Counter = Counter()
    for name, value in registry_counters.items():
        parts = name.split(".")
        summed[f"{parts[0]}.{parts[-1]}"] += value
    return {
        "net.switch.forwarded": summed["switch.forwarded"],
        "net.switch.trimmed": summed["switch.trimmed"],
        "net.switch.dropped": (summed["switch.dropped_congestion"]
                               + summed["switch.dropped_forced"]
                               + summed["switch.dropped_buffer"]),
        "net.switch.ecn_marked": summed["switch.ecn_marked"],
        "net.pfc.pause_frames": summed["pfc.pause_frames"],
        "net.link.dropped_loss": summed["link.dropped_loss"],
        "rnic.coarse_timeouts": summed["rnic.coarse_timeouts"],
        "rnic.ho_turned": summed["rnic.ho_turned"],
    }
