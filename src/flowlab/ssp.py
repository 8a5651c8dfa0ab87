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

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from .core import (
    Flow,
    FlowLabError,
    FlowNetwork,
    InfeasibleError,
    IterationCapExceeded,
    ResidualEdge,
    ResidualNetwork,
    default_iteration_cap,
    rational,
    residual,
)

__all__ = [
    "NegativeCycleError",
    "SspStep",
    "SspTrace",
    "distances_to_sink",
    "cheapest_path",
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


@dataclass
class SspTrace:
    steps: list[SspStep] = field(default_factory=list)
    final_flow: Optional[Flow] = None

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def path_costs(self) -> list[Fraction]:
        return [s.cost for s in self.steps]


def distances_to_sink(r: ResidualNetwork, sink: int) -> list[Optional[Fraction]]:
    """Cheapest residual cost from each node to the sink, None when the
    sink cannot be reached.

    Raises ``NegativeCycleError`` when relaxation still improves after
    node-count rounds, which can only happen on a negative cycle whose
    nodes reach the sink.
    """
    dist: list[Optional[Fraction]] = [None] * r.node_count
    dist[sink] = Fraction(0)
    for round_no in range(r.node_count):
        changed = False
        for e in r.edges:
            d = dist[e.head]
            if d is None:
                continue
            candidate = d + e.cost
            if dist[e.tail] is None or candidate < dist[e.tail]:
                dist[e.tail] = candidate
                changed = True
        if not changed:
            return dist
    raise NegativeCycleError("path costs keep dropping; negative residual cycle")


def _tight_adjacency(r: ResidualNetwork, dist):
    """Outgoing residual edges lying on some cheapest path, keyed by
    tail and sorted by head."""
    adj: list[list[tuple[int, ResidualEdge]]] = [[] for _ in range(r.node_count)]
    for e in r.edges:
        if dist[e.tail] is None or dist[e.head] is None:
            continue
        if e.cost + dist[e.head] == dist[e.tail]:
            adj[e.tail].append((e.head, e))
    for lst in adj:
        lst.sort(key=lambda pair: pair[0])
    return adj


def _reaches(adj, start: int, goal: int, blocked: set[int]) -> bool:
    if start == goal:
        return True
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w, _ in adj[v]:
            if w == goal:
                return True
            if w not in seen and w not in blocked:
                seen.add(w)
                stack.append(w)
    return False


def cheapest_path(
    r: ResidualNetwork, source: int, sink: int
) -> Optional[list[ResidualEdge]]:
    """A cheapest residual path from source to sink, or None.

    Among all cheapest paths the one whose node sequence is
    lexicographically smallest is returned; it is built greedily by
    always stepping to the smallest next node that still has a cheapest
    path onward to the sink through unused nodes.
    """
    dist = distances_to_sink(r, sink)
    if dist[source] is None:
        return None
    adj = _tight_adjacency(r, dist)
    path: list[ResidualEdge] = []
    visited = {source}
    node = source
    while node != sink:
        step = None
        for w, e in adj[node]:
            if w in visited:
                continue
            if _reaches(adj, w, sink, visited):
                step = e
                break
        if step is None:
            raise FlowLabError("internal error: cheapest path search got stuck")
        path.append(step)
        visited.add(step.head)
        node = step.head
    return path


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

    trace = SspTrace()
    values = [Fraction(0)] * net.edge_count
    remaining = demand
    while remaining > 0:
        if len(trace.steps) >= iteration_cap:
            trace.final_flow = Flow(tuple(values))
            raise IterationCapExceeded(
                "demand not met after %d augmentations" % iteration_cap, trace=trace
            )
        r = residual(net, Flow(tuple(values)))
        path = cheapest_path(r, source, sink)
        if path is None:
            trace.final_flow = Flow(tuple(values))
            raise InfeasibleError(
                "no residual path left with %s of %s still to ship" % (remaining, demand)
            )
        bottleneck: Optional[Fraction] = None
        for e in path:
            if e.capacity is not None and (bottleneck is None or e.capacity < bottleneck):
                bottleneck = e.capacity
        amount = remaining if bottleneck is None else min(bottleneck, remaining)
        for e in path:
            if e.forward:
                values[e.edge_id] += amount
            else:
                values[e.edge_id] -= amount
        nodes = (source,) + tuple(e.head for e in path)
        cost = sum((e.cost for e in path), Fraction(0))
        trace.steps.append(SspStep(path=nodes, cost=cost, amount=amount))
        remaining -= amount
    trace.final_flow = Flow(tuple(values))
    return trace


def concentrate_budgets(net: FlowNetwork) -> tuple[FlowNetwork, int, int, Fraction]:
    """Rewrite budgets as a single source-sink demand.

    Returns a widened network with two extra nodes, a cost-free supply
    edge from the new source to every node with positive budget and a
    matching edge into the new sink from every node with negative
    budget, plus the source id, sink id, and total demand.  A flow on
    the original network corresponds to a widened flow that saturates
    all the added edges.
    """
    n = net.node_count
    source, sink = n, n + 1
    arcs = [(e.tail, e.head, e.capacity, e.cost, e.leaving_rank) for e in net.edges]
    labels = list(net.edge_labels) if net.edge_labels else ["" for _ in net.edges]
    for v, b in enumerate(net.budgets):
        if b > 0:
            arcs.append((source, v, b, Fraction(0), 1))
            labels.append("supply")
        elif b < 0:
            arcs.append((v, sink, -b, Fraction(0), 1))
            labels.append("drain")
    names = None
    if net.node_names is not None:
        names = list(net.node_names) + ["super_source", "super_sink"]
    demand = sum((b for b in net.budgets if b > 0), Fraction(0))
    widened = FlowNetwork.from_data(
        n + 2,
        arcs,
        budgets=None,
        node_names=names,
        edge_labels=labels if net.edge_labels else None,
    )
    return widened, source, sink, demand


def zero_budget_copy(net: FlowNetwork) -> FlowNetwork:
    """The same network with every budget set to zero."""
    return replace(net, budgets=(Fraction(0),) * net.node_count)
