"""Minimum-mean cycle canceling solver.

Starting from any feasible flow, the solver repeatedly cancels a cycle
of minimum mean cost in the residual network, pushing as much as the
cycle allows, until no negative-mean cycle remains.  The full sequence
of canceled cycles is recorded so iteration-count experiments can
inspect exactly what happened.

The loop runs on integers, over paired residual arcs whose room each
cancellation updates in place, and shares its minimum-mean cycle
search with ``mincycle.karp_min_mean``; ``Fraction`` values are built
only for the trace and the final flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .core import (
    Cycle,
    Flow,
    FlowNetwork,
    InfeasibleError,
    IterationCapExceeded,
    SmoothedInstance,
    Trace,
    UnboundedCycleError,
    _ResidualArcs,
    check_feasible,
    default_iteration_cap,
)
from .maxflow import solve_max_flow
from .mincycle import _MeanSearch
from .ssp import concentrate_budgets

__all__ = [
    "MmccIteration",
    "MmccTrace",
    "default_iteration_cap",
    "falling_mean_violation",
    "initial_feasible_flow",
    "mmcc_solve",
    "halving_violation",
    "shrink_violation",
]


@dataclass(frozen=True)
class MmccIteration:
    """One canceled cycle: the cycle, its mean cost, the amount pushed."""

    cycle: Cycle
    mean_cost: Fraction
    amount: Fraction


class MmccTrace(Trace):
    iteration_count = Trace.step_count

    @property
    def iterations(self) -> list[MmccIteration]:
        return self.steps

    def mean_costs(self) -> list[Fraction]:
        return [it.mean_cost for it in self.steps]


def initial_feasible_flow(net: FlowNetwork) -> Flow:
    """A feasible flow for ``net``, or ``InfeasibleError``.

    Standard transform: a maximum flow on ``concentrate_budgets(net)``
    routes every positive budget from its virtual source and every
    negative budget into its virtual sink; the budgets are satisfiable
    exactly when all virtual arcs saturate.
    """
    wide, source, sink, required = concentrate_budgets(net)
    if required == 0:
        return Flow.zero(net.edge_count)
    value, flow = solve_max_flow(wide, source, sink)
    if value != required:
        raise InfeasibleError(
            "budgets require %s units but only %s can be routed" % (required, value)
        )
    return Flow(flow.values[: net.edge_count])


def _start(instance: SmoothedInstance, net: FlowNetwork) -> Flow:
    """MMCC's and network simplex's start on ``net``, the realization of
    ``instance``: the stored flow, unless it breaks conservation, or
    ``initial_feasible_flow(net)`` when none is stored."""
    flow = instance.starting_flow
    if flow is None:
        return initial_feasible_flow(net)
    bad = check_feasible(net, flow)
    if bad is not None and bad.kind == "conservation":
        raise InfeasibleError("stored starting flow: %s: %s" % (bad.kind, bad.detail))
    return flow


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
    by that of the capacities and the starting flow, and the residual
    network is kept as paired arcs whose room each cancellation updates
    in place.
    """
    if isinstance(instance, SmoothedInstance):
        if costs is None:
            raise ValueError("a smoothed instance needs sampled costs")
        net = instance.realize(costs)
        flow = _start(instance, net)
    else:
        if costs is not None:
            raise ValueError("costs are only accepted for smoothed instances")
        net = instance
        flow = initial_feasible_flow(net)

    if iteration_cap is None:
        iteration_cap = default_iteration_cap(net.node_count, net.edge_count)

    return _mmcc_kernel(net, flow, iteration_cap)


def _mmcc_kernel(net: FlowNetwork, flow: Flow, iteration_cap: int) -> MmccTrace:
    """The cancellation loop of ``mmcc_solve`` on integer-scaled paired arcs."""
    res = _ResidualArcs(net, flow)
    search = _MeanSearch(net.node_count, list(zip(res.tail, res.head, res.cost)))
    cost, room = res.cost, res.room

    trace = MmccTrace()
    iterations = trace.steps
    while True:
        found = search(res.with_room())
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
        bounded = [room[a] for a in cycle_arcs if room[a] is not None]
        if not bounded:
            raise UnboundedCycleError("every cycle edge is uncapacitated; cost is unbounded")
        amount = min(bounded)
        # only the zero-cost 2-cycle holds both arcs of one edge, so no
        # arc's room changes before its own push: build the edges first
        cycle_edges = tuple(res.residual_edge(a) for a in cycle_arcs)
        res.push(cycle_arcs, amount)
        total = sum(cost[a] for a in cycle_arcs)
        mean = Fraction(total, len(cycle_arcs) * res.cost_scale)
        cycle = Cycle(
            edges=cycle_edges, total_cost=Fraction(total, res.cost_scale), mean_cost=mean
        )
        iterations.append(
            MmccIteration(cycle=cycle, mean_cost=mean, amount=Fraction(amount, res.flow_scale))
        )
    trace.final_flow = res.flow()
    trace.termination = "optimal"
    return trace


def halving_violation(
    mean_costs: Sequence[Fraction], window: int
) -> Optional[int]:
    """First index t where |mean(t + window)| > |mean(t)| / 2, else None.

    The magnitude of the minimum mean is supposed to at least halve
    every ``window`` cancellations; runs shorter than the window satisfy
    the property vacuously.  It is ``shrink_violation`` with n = 2.
    """
    return shrink_violation(mean_costs, 2, window)


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
    factor = 1 - Fraction(1, nodes)
    for t in range(len(mean_costs) - window):
        if abs(mean_costs[t + window]) > factor * abs(mean_costs[t]):
            return t
    return None
