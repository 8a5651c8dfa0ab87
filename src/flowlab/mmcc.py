"""Minimum-mean cycle canceling solver.

Starting from any feasible flow, the solver repeatedly cancels a cycle
of minimum mean cost in the residual network, pushing as much as the
cycle allows, until no negative-mean cycle remains.  The full sequence
of canceled cycles is recorded so iteration-count experiments can
inspect exactly what happened.

The loop runs on integers, over paired residual arcs whose room each
cancellation updates in place, and shares its minimum-mean cycle
search with ``mincycle.karp_min_mean``.  Each cancellation is recorded
as integers; ``Fraction`` values are built for the final flow, and for
the trace when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence, Union

from .core import (
    Cycle,
    Flow,
    FlowNetwork,
    IterationCapExceeded,
    SmoothedInstance,
    Trace,
    UnboundedCycleError,
    _ResidualArcs,
    default_iteration_cap,
)
from .mincycle import _MeanSearch

__all__ = [
    "MmccIteration",
    "MmccTrace",
    "default_iteration_cap",
    "falling_mean_violation",
    "initial_feasible_flow",
    "mmcc_solve",
    "shrink_violation",
]


@dataclass(frozen=True)
class MmccIteration:
    """One canceled cycle: the cycle, its mean cost, the amount pushed."""

    cycle: Cycle
    mean_cost: Fraction
    amount: Fraction


class MmccTrace(Trace):
    """A cycle-canceling run; its records are ``(arcs, rooms, amount)``:
    the cycle's residual arc ids, their rooms before the push and the
    amount pushed, both in the flow scale."""

    iteration_count = Trace.step_count

    @property
    def iterations(self) -> list[MmccIteration]:
        return self.steps

    def mean_costs(self) -> list[Fraction]:
        return [it.mean_cost for it in self.steps]

    @staticmethod
    def _line(it: MmccIteration) -> str:
        edges = " ".join("%d%s" % (e.edge_id, "+" if e.forward else "-") for e in it.cycle.edges)
        return "cycle %s amount %s" % (edges, it.amount)


def initial_feasible_flow(net: FlowNetwork) -> Flow:
    """A feasible flow for ``net``, or ``InfeasibleError``.

    Standard transform: a maximum flow on ``concentrate_budgets(net)``
    routes every positive budget from its virtual source and every
    negative budget into its virtual sink; the budgets are satisfiable
    exactly when all virtual arcs saturate.  The flow depends on the
    capacities and budgets only, so it is computed once per network,
    and every realization of one smoothed instance shares the instance
    network's, its ``InfeasibleError`` text included: each call returns
    the same ``Flow`` object.
    """
    return net._start.feasible_flow(net)


def mmcc_solve(
    instance: Union[FlowNetwork, SmoothedInstance],
    costs: Optional[Sequence[Fraction]] = None,
    *,
    iteration_cap: Optional[int] = None,
) -> MmccTrace:
    """Run minimum-mean cycle canceling to optimality.

    A ``SmoothedInstance`` must come with sampled ``costs``; its
    starting flow, when present, is used verbatim; one that breaks
    conservation raises ``InfeasibleError``.  A plain
    ``FlowNetwork`` carries its own costs and gets a computed starting
    flow.  The iteration cap is a safety net only: hitting it raises
    ``IterationCapExceeded`` with the partial trace attached, it never
    silently truncates a run.

    The run is exactly the ``Fraction`` loop of
    ``karp_min_mean(residual(...))`` and ``augment_cycle`` that
    ``tests/reference.py`` holds, cycle for cycle.  It is carried out on
    integers: costs are scaled once by their common denominator, flows
    by that of the capacities and the stored flow, and the residual
    network is kept as paired arcs whose room each cancellation updates
    in place.  The search keeps the arcs with room as its arc set, and
    after each push updates it for the cycle's arcs and their reverses
    only.  A computed start is a copy of the maximum flow's integer
    rooms, in the scale of the capacities and budgets.  That maximum
    flow is ``initial_feasible_flow``'s, computed once per network:
    solves of one smoothed instance, at any costs and by MMCC or
    network simplex, share the instance network's.  On a smoothed
    instance the run is on ``instance.realize(costs)``, whose cost layer
    is checked and scaled once: passing the ``tuple`` just given to
    ``instance.realize`` solves that call's network, which network
    simplex, shortest paths and the certificates read too.
    """
    if isinstance(instance, SmoothedInstance):
        if costs is None:
            raise ValueError("a smoothed instance needs sampled costs")
        net, flow = instance.realize(costs), instance.starting_flow
    else:
        if costs is not None:
            raise ValueError("costs are only accepted for smoothed instances")
        net, flow = instance, None
    res = net._start.arcs_at(net, flow)

    if iteration_cap is None:
        iteration_cap = default_iteration_cap(net.node_count, net.edge_count)

    room = res.room
    search = _MeanSearch(net.node_count, list(zip(res.tail, res.head, res.cost)), res.with_room())

    trace = MmccTrace(_step=partial(_iteration, res))
    iterations = trace._records
    while True:
        # the last search finds no negative cycle, which ends the run,
        # so it need not find the minimum mean
        found = search(negative_only=True)
        if found is None:
            break
        cycle_arcs, mean_num, _ = found
        if mean_num >= 0:
            break
        if len(iterations) >= iteration_cap:
            trace.termination = "iteration_cap_hit"
            trace.final_flow = res.flow()
            raise IterationCapExceeded(
                "no optimum after %d cycle cancellations" % iteration_cap, trace=trace
            )
        # the rooms before the push, which the trace's edges carry
        rooms = [room[a] for a in cycle_arcs]
        bounded = [r for r in rooms if r is not None]
        if not bounded:
            raise UnboundedCycleError("every cycle edge is uncapacitated; cost is unbounded")
        amount = min(bounded)
        res.push(cycle_arcs, amount)
        # a push changes the room of the cycle's arcs and their reverses only
        search.refresh([b for a in cycle_arcs for b in (a, a ^ 1)], room)
        iterations.append((cycle_arcs, rooms, amount))
    trace.final_flow = res.flow()
    return trace


def _iteration(res: _ResidualArcs, record) -> MmccIteration:
    """The ``MmccIteration`` of an ``MmccTrace`` record, from ``mmcc_solve``'s
    arcs, whose tails, heads, costs and scales never change."""
    arcs, rooms, amount = record
    total = sum(res.cost[a] for a in arcs)
    mean = Fraction(total, len(arcs) * res.cost_scale)
    edges = tuple(map(res.residual_edge, arcs, rooms))
    cycle = Cycle(edges=edges, total_cost=Fraction(total, res.cost_scale), mean_cost=mean)
    return MmccIteration(cycle=cycle, mean_cost=mean, amount=Fraction(amount, res.flow_scale))


def falling_mean_violation(mean_costs: Sequence[Fraction]) -> Optional[int]:
    """First index t where mean(t + 1) < mean(t), else None.

    Goldberg and Tarjan's first invariant: under minimum-mean canceling
    the minimum mean never falls from one cancellation to the next.
    """
    for t in range(len(mean_costs) - 1):
        if mean_costs[t + 1] < mean_costs[t]:
            return t
    return None


def shrink_violation(
    mean_costs: Sequence[Fraction], nodes: int, window: int
) -> Optional[int]:
    """First index t where |mean(t + window)| > (1 - 1/nodes) |mean(t)|,
    else None.

    Goldberg and Tarjan's second invariant: with ``nodes`` nodes and
    ``window`` edges, the magnitude of the minimum mean shrinks by a
    factor of at least (1 - 1/n) over every m consecutive cancellations.
    Runs shorter than the window satisfy it vacuously.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    if nodes < 1:
        raise ValueError("nodes must be positive")
    factor = 1 - Fraction(1, nodes)
    for t in range(len(mean_costs) - window):
        if abs(mean_costs[t + window]) > factor * abs(mean_costs[t]):
            return t
    return None
