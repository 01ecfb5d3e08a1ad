"""Host-speed calibration: end-to-end timings in reference seconds.

The benchmark runs on shared hosts whose speed drifts by 20-45% within
minutes, with no CPU steal reported: the same program stretch takes
longer because the physical core, its caches and memory bandwidth are
shared, so CPU time drifts as much as wall time.  A median over one run
cannot remove a drift that lasts longer than the run.

So the benchmark samples a fixed reference kernel that lives in this
file and never calls the program, and reports timings in "reference
seconds": measured seconds divided by the host's slowdown, the time the
work would take on a host as fast as the one ``REFERENCE_S`` was frozen
on.  A slowdown is the mean time of the sampled calls over
``REFERENCE_S``; the host's speed swings by up to 2x within a second,
and the program feels the mean.  A program change that makes a stretch
X% faster makes its reference seconds X% smaller, because the reference
does not change with the program.  Each run's notes keep the
slowdowns, so the measured times can be recovered.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import List

#: seconds of one :func:`reference_kernel` call at the faster end of
#: what it took on the host that introduced the benchmark (2 shared
#: cores, Python 3.11: 0.009-0.019 s within one second).  The
#: ``service-mix`` rates were frozen at this speed.  Frozen: later
#: commits are measured against the same constant.
REFERENCE_S = 0.012
#: fewest reference kernel calls in one sample
SAMPLE_CALLS = 5
#: reference time spent per second of timed work, so that a long
#: stretch gets a long sample
SAMPLE_SHARE = 0.05


class _Node:
    __slots__ = ("key", "weight", "links")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight
        self.links: List[int] = []


def reference_kernel() -> float:
    """A fixed mix of what the program's Python layers do: small objects
    and attribute access, dicts keyed by tuples, sorting, a heap, and
    float arithmetic.  Deterministic; about 10 ms on a quiet core."""
    nodes = [_Node(k, (k * 7919 % 1009) / 17.0) for k in range(1000)]
    for node in nodes:
        node.links = [(node.key * 31 + j * 17) % 1000 for j in range(4)]
    volume = {}
    for node in nodes:
        for other in node.links:
            edge = (min(node.key, other), max(node.key, other))
            volume[edge] = volume.get(edge, 0.0) + node.weight
    order = sorted(volume.items(), key=lambda item: (-item[1], item[0]))
    heap = [(0.0, g) for g in range(8)]
    placed = {}
    for (a, b), weight in order:
        load, gpu = heapq.heappop(heap)
        placed[a] = placed.get(a, gpu)
        heapq.heappush(heap, (load + weight * 1.0001, gpu))
    total = 0.0
    for node in nodes:
        total += sum(volume.get((min(node.key, o), max(node.key, o)), 0.0)
                     for o in node.links) / (1.0 + node.weight)
    return total + len(placed)


class HostSpeed:
    """The reference samples of one run or window."""

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        #: slowdown of each sample, for the notes and for pacing
        self.samples: List[float] = []
        self._last: List[tuple] = []  # (seconds, calls) of the last two

    def sample(self, calls: int = SAMPLE_CALLS) -> float:
        """Time ``calls`` reference kernel calls now; returns their
        slowdown."""
        start = time.perf_counter()
        for _ in range(calls):
            reference_kernel()
        seconds = time.perf_counter() - start
        self.calls += calls
        self.seconds += seconds
        self.samples.append(seconds / (calls * REFERENCE_S))
        self._last = self._last[-1:] + [(seconds, calls)]
        return self.samples[-1]

    def sample_after(self, work_s: float) -> float:
        """Sample in proportion to a stretch of ``work_s`` seconds."""
        calls = max(SAMPLE_CALLS, math.ceil(SAMPLE_SHARE * work_s / REFERENCE_S))
        return self.sample(calls)

    def bracket(self) -> float:
        """The slowdown over the stretch between the last two samples:
        their calls' mean time over ``REFERENCE_S``."""
        seconds = sum(s for s, _ in self._last)
        calls = sum(c for _, c in self._last)
        return seconds / (calls * REFERENCE_S)

    def recent(self, count: int) -> float:
        """Mean slowdown of the last ``count`` samples (1.0 if none)."""
        last = self.samples[-count:]
        return sum(last) / len(last) if last else 1.0

    def slowdown(self) -> float:
        """The run's slowdown: every sampled call's time over
        ``REFERENCE_S``."""
        return self.seconds / (self.calls * REFERENCE_S) if self.calls else 1.0

    def note(self) -> str:
        if not self.samples:
            return "host slowdown: no samples"
        return (
            f"host slowdown vs reference: {self.slowdown():.3f} over "
            f"{self.calls} calls in {len(self.samples)} samples (range "
            f"{min(self.samples):.3f}-{max(self.samples):.3f})"
        )
