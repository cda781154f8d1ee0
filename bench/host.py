"""Host speed probe, so that timings are put at one reference host speed.

The benchmark is meant for shared hosts. On them other tenants' load on the
same cores, caches and memory changes the speed of everything in a run, by
up to 1.7x, within seconds and in phases that last minutes, so two runs of
the same code minutes apart can differ by more than any change worth
measuring.

A probe times a fixed, stdlib-only reference unit of pure-Python work (tree
building, attribute and dict access, string formatting, sorting, nested
loops: the same kinds of work as the pipeline) between the benchmark's
measured steps, never inside one. A step's time is scaled by
``REFERENCE_UNIT_S`` over the median unit time around that step: the time
the step would have taken on a host that runs one unit in
``REFERENCE_UNIT_S``. The unit's code is part of the benchmark, not of the
program, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Nominal time of one unit. Any constant would do; this one is close to the
#: unit's time on the 2-vCPU Intel Xeon (family 6, model 207) KVM guest the
#: benchmark was built on, so scaled times read close to raw ones there.
REFERENCE_UNIT_S = 0.0013

#: Share of the time since the last probe that a probe spends on units, the
#: most units in one probe, and the smallest gap between two probes.
DUTY = 0.08
MAX_UNITS = 40
MIN_GAP_S = 0.02
#: A step is scaled by the median of the units timed from ``WINDOW_S`` before
#: it to ``WINDOW_S`` after it, or of the nearest ``MIN_UNITS`` units if
#: there are fewer.
WINDOW_S = 0.25
MIN_UNITS = 9

_WORDS = ("NP", "VP", "S", "PP", "SBAR", "DT", "NN", "NNP", "PRP", "VBD",
          "IN", "JJ")


class _Node:
    __slots__ = ("label", "kids", "depth")

    def __init__(self, label: str, depth: int):
        self.label, self.kids, self.depth = label, [], depth


def unit() -> int:
    """One unit of reference work; the same work on every call."""
    x = 12345
    nodes = [_Node("ROOT", 0)]
    for _ in range(600):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        parent = nodes[x % len(nodes)]
        node = _Node(_WORDS[x % len(_WORDS)], parent.depth + 1)
        parent.kids.append(node)
        nodes.append(node)
    counts: dict[tuple[str, int], int] = {}
    stack = [nodes[0]]
    while stack:
        node = stack.pop()
        key = (node.label, node.depth % 4)
        counts[key] = counts.get(key, 0) + 1
        stack.extend(node.kids)
    tokens = " ".join(f"({n.label} {n.depth})" for n in nodes).split()
    order = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    pairs = 0
    for i, a in enumerate(nodes[:120]):
        for b in nodes[:i]:
            if a.label == b.label and a.depth >= b.depth:
                pairs += 1
    return pairs + len(tokens) + len(order)


class Probe:
    """Times reference units between measured steps and scales step times.

    Call ``tick()`` between steps; it spends about ``DUTY`` of the time
    since the previous probe on units. ``run(n)`` times ``n`` units at once.
    ``scale(start, end)`` is the factor for a step that ran from ``start``
    to ``end`` (``perf_counter`` seconds).
    """

    def __init__(self, warm_units: int = 150):
        self.at: list[float] = []  # midpoint of each timed unit, increasing
        self.unit_s: list[float] = []
        for _ in range(warm_units):  # first calls warm caches; not recorded
            unit()
        self.last = time.perf_counter()

    def run(self, units: int) -> None:
        clock = time.perf_counter
        for _ in range(units):
            start = clock()
            unit()
            end = clock()
            self.at.append((start + end) / 2)
            self.unit_s.append(end - start)
        self.last = clock()

    def tick(self) -> None:
        gap = time.perf_counter() - self.last
        if gap >= MIN_GAP_S:
            self.run(max(1, min(MAX_UNITS, round(gap * DUTY / REFERENCE_UNIT_S))))

    def unit_time(self, start: float, end: float) -> float:
        """Median unit time around the interval [start, end]."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        while hi - lo < MIN_UNITS and (lo > 0 or hi < len(self.at)):
            if lo > 0:
                lo -= 1
            if hi < len(self.at):
                hi += 1
        return statistics.median(self.unit_s[lo:hi])

    def scale(self, start: float, end: float) -> float:
        return REFERENCE_UNIT_S / self.unit_time(start, end)

    def __str__(self) -> str:
        median = statistics.median(self.unit_s)
        q1, _, q3 = statistics.quantiles(self.unit_s, n=4)
        return (f"{len(self.unit_s)} probe units, median {median * 1e3:.4f} ms "
                f"(IQR {(q3 - q1) * 1e3:.4f} ms): {REFERENCE_UNIT_S / median:.3f}x "
                f"the reference speed")
