"""Host-speed correction for the benchmark's timings.

The host this benchmark was tuned on (2 vCPUs, Intel Xeon at 2.0 GHz, shared
with other tenants) runs the interpreter at two speeds about 1.5x apart. It
switches between them many times a second, and the share of time spent in
the slow one drifts over phases that last up to a minute, so a whole run can
land in a slow phase and no run length averages the swings out.

A timed step is therefore measured together with the host's speed: a fixed
pure-Python probe (breadth-first searches over a small seeded graph, the
same dict, set and deque work the package does) runs just before and just
after the step and, from a timer signal, every INTERVAL_S while it runs. The
step is reported in reference seconds,

    reference seconds = (wall seconds - probe seconds inside the step)
                        * REFERENCE_S / mean probe seconds

where REFERENCE_S is about the probe's time on the tuning host when quiet.
A change to the package moves the wall seconds and leaves the probe alone,
so reference seconds compare commits as wall seconds would on a quiet host.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from collections import deque
from typing import Callable, Dict, List, Tuple

REFERENCE_S = 0.0009
INTERVAL_S = 0.025
_VERTICES = 400
_DEGREE = 8
_SOURCES = 3


class Speedometer:
    """Measures steps in reference seconds; see the module docstring."""

    def __init__(self) -> None:
        rng = random.Random(5)
        adj: Dict[int, List[int]] = {v: [] for v in range(_VERTICES)}
        for _ in range(_VERTICES * _DEGREE // 2):
            a, b = rng.randrange(_VERTICES), rng.randrange(_VERTICES)
            adj[a].append(b)
            adj[b].append(a)
        self._adj = adj
        self._samples: List[float] = []
        self._sampling = False
        self.factors: List[float] = []   # REFERENCE_S / mean probe, per step

    def _search(self, source: int) -> None:
        adj = self._adj
        dist = {source: 0}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            d = dist[v] + 1
            for u in adj[v]:
                if u not in dist:
                    dist[u] = d
                    queue.append(u)

    def probe(self) -> float:
        """Seconds the probe takes right now.

        One untimed search first pulls the probe's graph back into the
        caches, which the step may have evicted, so the time reflects the
        host's speed and not the step's memory footprint.
        """
        self._search(0)
        start = time.perf_counter()
        for source in range(1, _SOURCES + 1):
            self._search(source)
        return time.perf_counter() - start

    def _on_timer(self, signum, frame) -> None:
        if not self._sampling:   # a late signal must not nest a probe
            self._sampling = True
            try:
                self._samples.append(self.probe())
            finally:
                self._sampling = False

    def measure(self, fn: Callable, *args) -> Tuple[object, float, float]:
        """fn(*args), with the step's wall and reference seconds."""
        before = self.probe()
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        inside = self._samples
        wall -= sum(inside)
        factor = REFERENCE_S / statistics.mean([before, self.probe(), *inside])
        self.factors.append(factor)
        return out, wall, wall * factor
