"""Successive shortest-path solver.

Routes a demand from a source to a sink by repeatedly augmenting along
a cheapest residual path.  Path costs never decrease from one step to
the next, and when the underlying network has no negative-cost cycle
the finished flow is a minimum-cost way to ship the demand.

Ties between equally cheap paths are broken toward the
lexicographically smallest node sequence, so runs are deterministic
and can be compared step by step against other algorithms.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from heapq import heappop, heappush
from math import gcd
from typing import Optional

from .core import (
    FlowLabError,
    FlowNetwork,
    InfeasibleError,
    IterationCapExceeded,
    Trace,
    _ResidualArcs,
    _bellman_ford,
    _scaled,
    concentrate_budgets,
    default_iteration_cap,
    rational,
)
from .mincycle import _FLOAT_EXACT

__all__ = [
    "NegativeCycleError",
    "SspStep",
    "SspTrace",
    "ssp_solve",
    "concentrate_budgets",
    "zero_budget_copy",
]


class NegativeCycleError(FlowLabError):
    """A negative-cost residual cycle was met while looking for paths."""


@dataclass(frozen=True)
class SspStep:
    path: tuple[int, ...]
    cost: Fraction
    amount: Fraction


class SspTrace(Trace):
    """A shortest-path run; its records are ``(arcs, amount)``: the
    path's residual arc ids and the amount pushed, in the flow scale."""

    def path_costs(self) -> list[Fraction]:
        return [s.cost for s in self.steps]

    @staticmethod
    def _line(s: SspStep) -> str:
        return "path %s amount %s" % (" ".join(map(str, s.path)), s.amount)


def ssp_solve(
    net: FlowNetwork,
    source: int,
    sink: int,
    demand,
    *,
    iteration_cap: Optional[int] = None,
) -> SspTrace:
    """Ship ``demand`` units from source to sink along successive
    cheapest residual paths.

    The network's own budgets must all be zero; use
    ``concentrate_budgets`` first when they are not.  Each step records
    the node sequence, its per-unit cost, and the amount pushed, which
    is the path bottleneck or the remaining demand, whichever is
    smaller.  Runs out of paths before the demand is met raises
    ``InfeasibleError``.

    The run is exactly the ``Fraction`` loop of ``residual`` and
    ``cheapest_path`` that ``tests/reference.py`` holds, step for step.
    It is carried out on integers: costs are scaled once by their common
    denominator, flows by that of the capacities and the demand, and the
    residual network is kept as paired arcs whose room each augmentation
    updates in place.  They start as a copy of the start's arcs at zero
    flow; on a widening from ``concentrate_budgets`` those are the arcs
    that the instance's maximum flow runs on, laid out once per smoothed
    instance; a demand whose denominator their flow scale lacks scales
    the copy's rooms up.  Before any path, and whatever the demand, one
    Bellman–Ford from zero labels at every node raises
    ``NegativeCycleError`` on a negative cycle among the arcs with room,
    whether or not it reaches the sink.  Else its labels, shifted to
    zero at the sink, are the node potentials of the first step's
    Dijkstra on non-negative reduced costs, and each step's labels those
    of the next (Edmonds and Karp, 1972; Johnson, 1977), over lists of
    the arcs with room into each node that each augmentation keeps up to
    date.  Each search stops once the source is settled: the labels are
    exact up to the source's distance and capped beyond it, which keeps
    every path (Ahuja, Magnanti and Orlin, 1993, §9.7).  With no negative
    residual cycle an exact label is the cost of a path of fewer than n
    arcs, at most ``(n - 1) * top`` in magnitude, where ``top`` is the
    largest scaled cost in magnitude.  A capped label is the source's
    label plus the node's offset to the source in the last search that
    settled it, or in the check's shifted labels; that offset is at most
    ``2 * (n - 1) * top``, so every label is at most ``3 * (n - 1) *
    top`` and every sum the searches, the path walk and its ``reaches``
    tests form stays within ``(4 * n - 3) * top``, below ``4 * (n + 1) *
    top``.  While that is below 2**53 they read a float copy of the
    costs, in which each of those sums is an exact integer.  The check's
    labels outgrow the bound only by going round negative cycles whose
    cost dwarfs the rounding, so such a cycle is still found.
    Each step is recorded as integers; ``Fraction`` values are built
    for the final flow, and for the steps when the trace is read.
    """
    demand = rational(demand)
    if demand < 0:
        raise ValueError("demand must be nonnegative")
    if not (0 <= source < net.node_count and 0 <= sink < net.node_count):
        raise ValueError("source and sink must be nodes")
    if source == sink and demand > 0:
        raise ValueError("source and sink coincide")
    if any(b != 0 for b in net.budgets):
        raise ValueError("budgets must be zero; concentrate them into a source and sink first")
    if iteration_cap is None:
        iteration_cap = default_iteration_cap(net.node_count, net.edge_count)
    n = net.node_count
    # a widening's demand is a sum of the budgets, so its denominator
    # divides the arcs' scale; another demand's may not, and then the
    # copy's scale and rooms are raised to the lcm of both
    res = net._start.zero_arcs(net).copy_for(net._costs)
    finer = demand.denominator // gcd(res.flow_scale, demand.denominator)
    if finer > 1:
        res.flow_scale *= finer
        res.room = [None if r is None else r * finer for r in res.room]
    tail, head, cost, room = res.tail, res.head, res.cost, res.room
    if 4 * (n + 1) * max(map(abs, cost), default=0) < _FLOAT_EXACT:
        cost = [float(c) for c in cost]
    # out-arcs by head, then arc id: the order in which ``cheapest_path``
    # tries the tight residual edges leaving a node
    out_arcs: list[list[int]] = [[] for _ in range(n)]
    for a in range(len(tail)):
        out_arcs[tail[a]].append(a)
    for arcs in out_arcs:
        arcs.sort(key=head.__getitem__)
    # the arcs with room at the start, in ascending arc id: the check
    # runs over them reversed, and so, listed by head, does every search
    live = [(a, head[a], tail[a], cost[a]) for a in res.with_room()]
    # from zero at every node the check sees every negative cycle, and
    # its labels meet ``dist[tail] <= dist[head] + cost`` on every arc
    # with room: potentials for the first search, once the sink's is 0
    dist = [0] * n
    if _bellman_ford(n, live, dist, [-1] * n) is not None:
        raise NegativeCycleError("path costs keep dropping; negative residual cycle")
    dist = [d - dist[sink] for d in dist]
    in_arcs: list[list[tuple]] = [[] for _ in range(n)]
    for a, h, t, c in live:
        in_arcs[h].append((a, t, c))

    trace = SspTrace(_step=partial(_step, source, res))
    steps = trace._records

    def reaches(start: int, dist, visited) -> bool:
        # ``_reaches``: a depth-first search over the tight arcs with
        # room that avoids the path so far
        if start == sink:
            return True
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            dv = dist[v]
            for a in out_arcs[v]:
                w = head[a]
                if room[a] == 0 or cost[a] + dist[w] != dv:
                    continue
                if w == sink:
                    return True
                if w not in seen and not visited[w]:
                    seen.add(w)
                    stack.append(w)
        return False

    remaining = _scaled(demand, res.flow_scale)
    nxt = [-1] * n
    while remaining > 0:
        if len(steps) >= iteration_cap:
            trace.termination = "iteration_cap_hit"
            trace.final_flow = res.flow()
            raise IterationCapExceeded(
                "demand not met after %d augmentations" % iteration_cap, trace=trace
            )
        dist = _dijkstra_labels(n, sink, in_arcs, dist, nxt, source)
        if dist[source] is None:
            raise InfeasibleError(
                "no residual path left with %s of %s still to ship"
                % (Fraction(remaining, res.flow_scale), demand)
            )

        # the lexicographically smallest cheapest path, built greedily
        # as in ``cheapest_path``.  While the path so far follows the
        # label arcs from the source, the rest of that chain repeats none
        # of its nodes, so the next label arc needs no ``reaches`` call.
        path = []
        visited = [False] * n
        visited[source] = True
        node = source
        on_chain = True
        while node != sink:
            here = dist[node]
            label_arc = nxt[node] if on_chain else -1
            for a in out_arcs[node]:
                w = head[a]
                if visited[w] or room[a] == 0 or cost[a] + dist[w] != here:
                    continue
                if a == label_arc:
                    break
                if reaches(w, dist, visited):
                    on_chain = False
                    break
            else:
                raise FlowLabError("internal error: cheapest path search got stuck")
            path.append(a)
            visited[w] = True
            node = w

        amount = remaining
        for a in path:
            r = room[a]
            if r is not None and r < amount:
                amount = r
        res.push(path, amount)
        # a path arc may have run out of room, and its reverse, whose room
        # grew by ``amount``, may have had none; a simple path holds no
        # arc together with its reverse
        for a in path:
            if room[a] == 0:
                in_arcs[head[a]].remove((a, tail[a], cost[a]))
            b = a ^ 1
            if room[b] == amount:
                insort(in_arcs[head[b]], (b, tail[b], cost[b]))
        steps.append((path, amount))
        remaining -= amount
    trace.final_flow = res.flow()
    return trace


def _dijkstra_labels(n, sink, in_arcs, pot, nxt, source):
    """Labels for one step, from a reverse Dijkstra on the reduced costs
    ``cost + pot[head] - pot[tail]``, which are non-negative on every
    arc with room.  ``in_arcs[v]`` lists the ``(arc, tail, cost)`` of
    the arcs with room into ``v``, in ascending arc id.  ``pot`` gives
    every node a number: the negative-cycle check's labels do, and so do
    those of every search that settles the source, as each search before
    a path does.  A node's label is written when it is
    settled, and ``nxt[v]`` is the arc that gave ``v`` its label, whose
    head was settled before ``v``.

    Every heap key is at least the key ``d`` being settled, so a tail
    whose reduced cost makes its candidate equal ``d`` is settled at
    once, from a local stack, without going through the heap.  The
    search stops as soon as the source is settled, at key ``d``: every
    label written is the exact distance to the sink, and every node not
    yet settled, whose distance is at least ``d`` above its potential,
    is capped at ``d + pot[v]`` (Ahuja, Magnanti and Orlin, 1993,
    §9.7).  So each label is ``pot[v] + min(dist[v] - pot[v], d)``, the
    reduced costs under the labels stay non-negative, and the source's
    and the sink's labels are exact, so the tight paths from the source
    to the sink are still its cheapest paths.  A source that never
    settles leaves every node that reaches the sink with its exact
    label and every other node with ``None``."""
    labels: list = [None] * n
    reduced: list = [None] * n
    reduced[sink] = 0
    heap = [(0, sink)]
    while heap:
        d, v = heappop(heap)
        if labels[v] is not None:
            continue
        labels[v] = d + pot[v]
        if v == source:
            return _capped(labels, pot, d)
        stack = [v]
        while stack:
            v = stack.pop()
            base = labels[v]
            for a, u, c in in_arcs[v]:
                if labels[u] is not None:
                    continue
                pu = pot[u]
                candidate = base + c - pu
                if candidate == d:
                    labels[u] = d + pu
                    nxt[u] = a
                    if u == source:
                        return _capped(labels, pot, d)
                    stack.append(u)
                    continue
                seen = reduced[u]
                if seen is None or candidate < seen:
                    reduced[u] = candidate
                    nxt[u] = a
                    heappush(heap, (candidate, u))
    return labels


def _capped(labels, pot, d):
    """``labels``, with every missing label set in place to ``d`` above
    the node's potential."""
    for v, label in enumerate(labels):
        if label is None:
            labels[v] = d + pot[v]
    return labels


def _step(source: int, res: _ResidualArcs, record) -> SspStep:
    """The ``SspStep`` of an ``SspTrace`` record, from ``ssp_solve``'s
    arcs, whose heads, costs and scales never change."""
    path, amount = record
    return SspStep(
        path=(source, *map(res.head.__getitem__, path)),
        cost=Fraction(sum(res.cost[a] for a in path), res.cost_scale),
        amount=Fraction(amount, res.flow_scale),
    )


def zero_budget_copy(net: FlowNetwork) -> FlowNetwork:
    """The same network with every budget set to zero.  It shares
    ``net``'s cost layer, which no budget enters, and computes a start
    of its own."""
    copied = replace(net, budgets=(Fraction(0),) * net.node_count)
    copied.__dict__["_costs"] = net._costs
    return copied
