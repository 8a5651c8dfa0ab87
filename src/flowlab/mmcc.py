"""Minimum-mean cycle canceling solver.

Starting from any feasible flow, the solver repeatedly cancels a cycle
of minimum mean cost in the residual network, pushing as much as the
cycle allows, until no negative-mean cycle remains.  The full sequence
of canceled cycles is recorded so iteration-count experiments can
inspect exactly what happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .core import (
    Cycle,
    Flow,
    FlowNetwork,
    InfeasibleError,
    IterationCapExceeded,
    SmoothedInstance,
    augment_cycle,
    default_iteration_cap,
    residual,
)
from .maxflow import solve_max_flow
from .mincycle import karp_min_mean

__all__ = [
    "MmccIteration",
    "MmccTrace",
    "default_iteration_cap",
    "initial_feasible_flow",
    "mmcc_solve",
    "halving_violation",
]


@dataclass(frozen=True)
class MmccIteration:
    """One canceled cycle: the cycle, its mean cost, the amount pushed."""

    cycle: Cycle
    mean_cost: Fraction
    amount: Fraction


@dataclass
class MmccTrace:
    iterations: list[MmccIteration] = field(default_factory=list)
    final_flow: Optional[Flow] = None
    termination: str = "optimal"

    @property
    def iteration_count(self) -> int:
        return len(self.iterations)

    def mean_costs(self) -> list[Fraction]:
        return [it.mean_cost for it in self.iterations]


def initial_feasible_flow(net: FlowNetwork) -> Flow:
    """A feasible flow for ``net``, or ``InfeasibleError``.

    Standard transform: route every positive budget from a virtual
    source and every negative budget into a virtual sink with a maximum
    flow; the budgets are satisfiable exactly when all virtual arcs
    saturate.
    """
    n = net.node_count
    source, sink = n, n + 1
    arcs: list[tuple[int, int, Optional[Fraction]]] = [
        (e.tail, e.head, e.capacity) for e in net.edges
    ]
    required = Fraction(0)
    for v, b in enumerate(net.budgets):
        if b > 0:
            arcs.append((source, v, b))
            required += b
        elif b < 0:
            arcs.append((v, sink, -b))
    if required == 0:
        return Flow.zero(net.edge_count)
    value, flows = solve_max_flow(n + 2, arcs, source, sink)
    if value != required:
        raise InfeasibleError(
            "budgets require %s units but only %s can be routed" % (required, value)
        )
    return Flow(tuple(flows[: net.edge_count]))


def mmcc_solve(
    instance: Union[FlowNetwork, SmoothedInstance],
    costs: Optional[Sequence[Fraction]] = None,
    *,
    iteration_cap: Optional[int] = None,
) -> MmccTrace:
    """Run minimum-mean cycle canceling to optimality.

    A ``SmoothedInstance`` must come with sampled ``costs``; its
    starting flow, when present, is used verbatim.  A plain
    ``FlowNetwork`` carries its own costs and gets a computed starting
    flow.  The iteration cap is a safety net only: hitting it raises
    ``IterationCapExceeded`` with the partial trace attached, it never
    silently truncates a run.
    """
    if isinstance(instance, SmoothedInstance):
        if costs is None:
            raise ValueError("a smoothed instance needs sampled costs")
        net = instance.realize(costs)
        flow = instance.starting_flow
        if flow is None:
            flow = initial_feasible_flow(net)
    else:
        if costs is not None:
            raise ValueError("costs are only accepted for smoothed instances")
        net = instance
        flow = initial_feasible_flow(net)

    if iteration_cap is None:
        iteration_cap = default_iteration_cap(net.node_count, net.edge_count)

    trace = MmccTrace()
    while True:
        cycle = karp_min_mean(residual(net, flow))
        if cycle is None or cycle.mean_cost >= 0:
            break
        if len(trace.iterations) >= iteration_cap:
            trace.termination = "iteration_cap_hit"
            trace.final_flow = flow
            raise IterationCapExceeded(
                "no optimum after %d cycle cancellations" % iteration_cap, trace=trace
            )
        flow, amount = augment_cycle(net, flow, cycle)
        trace.iterations.append(
            MmccIteration(cycle=cycle, mean_cost=cycle.mean_cost, amount=amount)
        )
    trace.final_flow = flow
    trace.termination = "optimal"
    return trace


def halving_violation(
    mean_costs: Sequence[Fraction], window: int
) -> Optional[int]:
    """First index t where |mean(t + window)| > |mean(t)| / 2, else None.

    The magnitude of the minimum mean is supposed to at least halve
    every ``window`` cancellations; runs shorter than the window satisfy
    the property vacuously.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    for t in range(len(mean_costs) - window):
        if abs(mean_costs[t + window]) > abs(mean_costs[t]) / 2:
            return t
    return None
