"""Host-speed reference for normalizing the benchmark's times.

The benchmark runs on shared machines whose speed drifts by a fifth or
more over a minute, far more than the changes it has to resolve.  A
fixed reference task, timed between solves, drifts with it.  Each time
is scaled by ``NOMINAL_S`` over the reference time measured around it,
so a time reads as seconds on a host where the reference takes
``NOMINAL_S``.

The task uses only the standard library, never flowlab, so a change to
flowlab cannot move it.  It mixes the operations flowlab's kernels
spend their time on: exact ``Fraction`` relaxation over a list of small
objects, and an integer dynamic program like Karp's.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

# Median reference time on the 2-CPU Intel Xeon host the bounds in
# BENCHMARK.json were tuned on (Python 3.11.7).
NOMINAL_S = 0.010


class _Arc:
    __slots__ = ("tail", "head", "cost")

    def __init__(self, tail, head, cost):
        self.tail, self.head, self.cost = tail, head, cost


def _graph(nodes=40, arcs=160, seed=1):
    rng = random.Random(seed)
    out = []
    for _ in range(arcs):
        tail, head = rng.sample(range(nodes), 2)
        cost = Fraction(rng.getrandbits(32), 2**32) + Fraction(rng.randint(1, 9), 16)
        out.append(_Arc(tail, head, cost))
    return nodes, out


def _task(graph, rounds=18):
    nodes, arcs = graph
    dist = [None] * nodes
    dist[0] = Fraction(0)
    for _ in range(rounds):
        for e in arcs:
            d = dist[e.tail]
            if d is None:
                continue
            candidate = d + e.cost
            if dist[e.head] is None or candidate < dist[e.head]:
                dist[e.head] = candidate
    scaled = [e.cost.numerator * (2**36 // e.cost.denominator) for e in arcs]
    row = [0] * nodes
    for _ in range(4 * rounds):
        new = [None] * nodes
        for idx, e in enumerate(arcs):
            candidate = row[e.tail] + scaled[idx]
            if new[e.head] is None or candidate < new[e.head]:
                new[e.head] = candidate
        row = [0 if v is None else v for v in new]
    return dist, row


class Speed:
    """Reference times in the order they were taken."""

    def __init__(self):
        self._graph = _graph()
        self.samples: list[float] = []

    def measure(self) -> int:
        """Time the reference task once; returns the sample's index."""
        started = perf_counter()
        _task(self._graph)
        self.samples.append(perf_counter() - started)
        return len(self.samples) - 1

    def scale(self, seconds: float, before: int) -> float:
        """``seconds`` measured after sample ``before`` and before the
        next one, at nominal host speed."""
        around = self.samples[before : before + 2]
        return seconds * NOMINAL_S / (sum(around) / len(around))

    def run_factor(self) -> float:
        """Nominal over the run's median reference time."""
        return NOMINAL_S / statistics.median(self.samples)
