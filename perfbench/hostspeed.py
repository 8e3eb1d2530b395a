"""Host-speed probe: a fixed reference job timed between requests.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 1.8x within a minute (other tenants' load, not this program): one
pass over the ``tight_mix`` pool took from 1.7 s to 2.75 s with no change
in code or inputs. Raw wall times therefore spread between runs by more
than any useful regression bound.

So every timing the benchmark reports is *scaled to the reference host
speed*: the bench times :meth:`HostSpeed.probe`, a fixed job that uses
none of the program's code (a pure-Python Dijkstra, a few numpy sorts and
one small scipy HiGHS LP, the same mix of interpreter, array and LP work
the solver does), right around each measured interval, and multiplies the
interval by ``REFERENCE_S / probe time``. A program change moves a scaled
time exactly as it moves the raw one; a host slowdown moves the probe and
the interval together and cancels. On 20 passes over ``tight_mix`` on a
2-vCPU Xeon VM, the spread (IQR / median) of pass time fell from 0.156
raw to 0.016 scaled.

``REFERENCE_S`` is a fixed constant, the probe's time on a quiet 2-vCPU
Xeon VM; it sets the unit only and is never re-measured.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

import numpy as np
from scipy.optimize import linprog

#: The probe's time, in seconds, on the reference host. Fixed; never tuned.
REFERENCE_S = 3.0e-3

_N, _M = 150, 900


class HostSpeed:
    """Times the reference job; keeps every probe time."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        tails = rng.integers(0, _N, _M).tolist()
        heads = rng.integers(0, _N, _M).tolist()
        weights = rng.integers(1, 50, _M).tolist()
        self._adj: list[list[tuple[int, int]]] = [[] for _ in range(_N)]
        for a, b, w in zip(tails, heads, weights):
            self._adj[a].append((b, w))
        self._vec = rng.random(4000)
        self._a = rng.random((12, 20))
        self._b = self._a.sum(axis=1)
        self._c = rng.random(20) - 0.3
        self.probes: list[float] = []  # probe durations, seconds
        self._job()  # first call pays imports and allocations

    def _dijkstra(self, src: int) -> int:
        adj = self._adj
        dist = {src: 0}
        pq = [(0, src)]
        while pq:
            d, u = heapq.heappop(pq)
            if d > dist[u]:
                continue
            for v, w in adj[u]:
                nd = d + w
                if nd < dist.get(v, 1 << 60):
                    dist[v] = nd
                    heapq.heappush(pq, (nd, v))
        return len(dist)

    def _job(self) -> None:
        for src in range(3):
            self._dijkstra(src)
        for _ in range(10):
            order = np.argsort(self._vec)
            np.cumsum(self._vec[order])
        res = linprog(self._c, A_ub=self._a, b_ub=self._b, bounds=(0, 1), method="highs")
        if res.status != 0:
            raise RuntimeError(f"host-speed probe LP failed: {res.message}")

    def probe(self) -> float:
        """Time one reference job (garbage collection held off) and record it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._job()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.probes.append(t1 - t0)
        return t1 - t0

    @staticmethod
    def scale(seconds: float, probe_s: float) -> float:
        """``seconds`` measured while the probe took ``probe_s``, at reference speed."""
        return seconds * REFERENCE_S / probe_s

    def recent_slowdown(self, count: int = 5) -> float:
        """Median of the last ``count`` probes over the reference: what a
        deadline in reference seconds is multiplied by."""
        return statistics.median(self.probes[-count:]) / REFERENCE_S

    def slowdown(self) -> float:
        """Median probe time over the reference: 1.0 on a quiet reference host."""
        return statistics.median(self.probes) / REFERENCE_S


class ScaledClock:
    """Accumulates wall time at reference speed, probing at every lap.

    Each lap's interval is scaled by the mean of the probes that bracket
    it, so a long stretch of work (a set-up) is split into laps short
    enough that the host speed is roughly constant within each.
    """

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self.total_s = 0.0
        self._probe = speed.probe()
        self._t = time.perf_counter()

    def lap(self) -> None:
        now = time.perf_counter()
        probe = self.speed.probe()
        self.total_s += self.speed.scale(now - self._t, (self._probe + probe) / 2)
        self._probe = probe
        self._t = time.perf_counter()
