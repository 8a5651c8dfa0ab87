"""Domain types for exact minimum-cost flow computation.

Every numeric quantity is a `fractions.Fraction`.  Capacities may be
unbounded, which is represented by ``None`` rather than a large sentinel
value.  Networks are simple directed graphs without antiparallel edge
pairs; this guarantees that a residual network never contains more than
one edge per ordered node pair, so cycles and paths are fully determined
by their node sequences.
"""

from __future__ import annotations

import warnings
from collections import deque
from copy import copy
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import attrgetter, neg
from typing import Callable, Iterable, Optional, Sequence, Union

__all__ = [
    "FlowLabError",
    "CapacityViolation",
    "EmptyCycleError",
    "UnboundedCycleError",
    "InfeasibleError",
    "IterationCapExceeded",
    "default_iteration_cap",
    "rational",
    "Edge",
    "FlowNetwork",
    "CostInterval",
    "SmoothedInstance",
    "Flow",
    "Trace",
    "ResidualEdge",
    "ResidualNetwork",
    "Cycle",
    "Violation",
    "validate_network",
    "validate_instance",
    "residual",
    "flow_cost",
    "check_feasible",
    "verify_optimality",
]

Capacity = Optional[Fraction]
RationalLike = Union[int, str, Fraction]
_EXACT = (int, Fraction)
_MISSING_NODE = "edge %d references a missing node"


class FlowLabError(Exception):
    """Base class for every error raised by this package."""


class CapacityViolation(FlowLabError):
    """A flow value lies outside [0, capacity] on some edge."""


class EmptyCycleError(FlowLabError):
    """An augmenting cycle with no edges was supplied."""


class UnboundedCycleError(FlowLabError):
    """Every edge of an augmenting cycle has unbounded headroom."""


class InfeasibleError(FlowLabError):
    """No flow satisfies the node budgets under the capacity bounds."""


class IterationCapExceeded(FlowLabError):
    """The safety iteration cap was hit before the solver terminated.

    The partial trace gathered so far is attached as ``trace`` so the
    run can be inspected; it is never silently truncated into a result.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


def default_iteration_cap(node_count: int, edge_count: int) -> int:
    """Safety cap: a generous multiple of the worst-case cycle count.

    It is at least 1, so that a solver on a network without edges gets
    to find out why it cannot finish.
    """
    return max(1, 8 * node_count * edge_count * edge_count + node_count * edge_count)


def rational(value: RationalLike) -> Fraction:
    """Coerce ``value`` to an exact Fraction.

    Floats are rejected: converting one would silently bake binary
    rounding error into what is meant to be exact arithmetic.  Pass a
    string such as ``"1/10"`` instead.  A ``Fraction`` is returned as
    it is.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(
            "refusing to convert float %r; pass an int, Fraction, or string "
            "like '1/10' to keep arithmetic exact" % (value,)
        )
    return Fraction(value)


def _scaled(value: Fraction, scale: int) -> int:
    """``value * scale`` for a ``scale`` that ``value``'s denominator divides."""
    return value.numerator * (scale // value.denominator)


def _flow_scale(capacities: Sequence[Capacity], *groups) -> int:
    """The lcm of the denominators of the bounded ``capacities`` and of
    the numbers in ``groups``, each distinct denominator taken once."""
    dens = {c.denominator for c in capacities if c is not None}
    for group in groups:
        dens.update([x.denominator for x in group])
    return lcm(*dens)


def _scaled_all(values: Sequence[Optional[Fraction]], scale: int) -> list[Optional[int]]:
    """``_scaled`` of every value, ``None`` kept; when ``scale`` is 1
    the numerators are read as they are."""
    if scale == 1:
        return [None if v is None else v.numerator for v in values]
    return [None if v is None else v.numerator * (scale // v.denominator) for v in values]


def _scaled_flow(values: Sequence[int], scale: int) -> Flow:
    """The ``Flow`` of the scaled integers ``values``: one exact
    ``Fraction`` per distinct value, shared by every edge that carries it."""
    shared = {v: Fraction(v, scale) for v in set(values)}
    return Flow(tuple(map(shared.__getitem__, values)))


def _capacity(value) -> Capacity:
    return None if value is None else rational(value)


def _check_endpoints(edges: Sequence, n: int) -> None:
    """``ValueError`` naming the first of ``edges`` with an endpoint
    outside the nodes ``0 .. n - 1``; a negative id does not wrap."""
    nodes = range(n)
    ends = {e.tail for e in edges}
    ends.update([e.head for e in edges])
    if ends.difference(nodes):
        first = next(i for i, e in enumerate(edges) if e.tail not in nodes or e.head not in nodes)
        raise ValueError(_MISSING_NODE % first)


@dataclass(frozen=True)
class Edge:
    """Directed edge with capacity, cost, and a leaving-edge priority.

    ``capacity`` is ``None`` for an uncapacitated edge.  ``leaving_rank``
    is consulted only by the network simplex solver when several edges
    block a pivot simultaneously; lower rank is preferred.
    """

    tail: int
    head: int
    capacity: Capacity
    cost: Fraction
    leaving_rank: int = 1


@dataclass(frozen=True)
class FlowNetwork:
    """Simple digraph with capacities, costs, and node budgets.

    The conservation convention is ``budget(v) + inflow(v) = outflow(v)``,
    so a positive budget marks a supply node and a negative budget a
    demand node.  ``node_names`` and ``edge_labels`` are optional display
    metadata and never take part in equality comparisons.  Building one
    raises ``ValueError`` for an edge endpoint outside the nodes, a
    budget count or, when given, a node name count other than
    ``node_count``, or an edge label count other than the edge count.
    """

    node_count: int
    edges: tuple[Edge, ...]
    budgets: tuple[Fraction, ...]
    node_names: Optional[tuple[str, ...]] = field(default=None, compare=False)
    edge_labels: Optional[tuple[str, ...]] = field(default=None, compare=False)

    def __post_init__(self):
        _check_endpoints(self.edges, self.node_count)
        if len(self.budgets) != self.node_count:
            raise ValueError("expected %d budgets, got %d" % (self.node_count, len(self.budgets)))
        for what, meta, want in (
            ("node names", self.node_names, self.node_count),
            ("edge labels", self.edge_labels, len(self.edges)),
        ):
            if meta is not None and len(meta) != want:
                raise ValueError("expected %d %s, got %d" % (want, what, len(meta)))

    @classmethod
    def from_data(
        cls,
        node_count: int,
        edges: Iterable[tuple],
        budgets: Optional[Sequence[RationalLike]] = None,
        node_names: Optional[Sequence[str]] = None,
        edge_labels: Optional[Sequence[str]] = None,
    ) -> "FlowNetwork":
        """Build a network from plain tuples.

        Each edge tuple is ``(tail, head, capacity, cost)`` with an
        optional fifth ``leaving_rank`` entry.  Numbers may be ints,
        strings, or Fractions; capacity ``None`` means uncapacitated.
        """
        built = []
        for item in edges:
            if len(item) == 4:
                tail, head, cap, cost = item
                rank = 1
            else:
                tail, head, cap, cost, rank = item
            built.append(Edge(tail, head, _capacity(cap), rational(cost), rank))
        if budgets is None:
            budget_tuple = tuple(Fraction(0) for _ in range(node_count))
        else:
            budget_tuple = tuple(rational(b) for b in budgets)
        return cls(
            node_count=node_count,
            edges=tuple(built),
            budgets=budget_tuple,
            node_names=tuple(node_names) if node_names is not None else None,
            edge_labels=tuple(edge_labels) if edge_labels is not None else None,
        )

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def name_of(self, node: int) -> str:
        if self.node_names is not None:
            return self.node_names[node]
        return str(node)

    @cached_property
    def _start(self) -> _Start:
        """The computed start of these capacities and budgets, built on
        first read.  It lives in the instance ``__dict__``, not in a
        field, so ``dataclasses.replace`` leaves it behind: a copy with
        other capacities or budgets computes its own."""
        return _Start(self.budgets)

    @cached_property
    def _costs(self) -> _Costs:
        """The cost layer of these edges' costs, built on first read and
        kept in the instance ``__dict__`` like ``_start``.  A realization
        and the widening that ``concentrate_budgets`` returns get theirs
        from ``_recosted`` instead, and ``zero_budget_copy`` its network's."""
        return _Costs(tuple(map(attrgetter("cost"), self.edges)))


class _Start:
    """A network's computed start, filled by its own methods only.  It
    reads the capacities and budgets, never the costs, so every
    realization of one smoothed instance shares the instance network's
    (``SmoothedInstance.realize``).

    ``scaled`` holds the budgets scaled to integers by their lcm, and
    ``demand`` the supply that the widening ships from
    its source ``n`` to its sink ``n + 1``; ``error`` is the text of the
    ``InfeasibleError`` of budgets that do not sum to zero, else
    ``None``.  The widening ``wide``, the arcs at the maximum flow or
    the text of its ``InfeasibleError`` (``kept``) and their ``flow``
    are built on first use; ``arcs`` is set on a widening's own start
    only.  Errors are kept as text, so no traceback and its frames stay
    alive with the network.
    """

    __slots__ = ("scaled", "demand", "error", "wide", "arcs", "kept", "flow")

    def __init__(self, budgets: Sequence[Fraction]):
        scale = lcm(*{b.denominator for b in budgets})
        self.scaled = scaled = _scaled_all(budgets, scale)
        total = sum(scaled)
        self.error = "budgets sum to %s, not zero" % Fraction(total, scale) if total else None
        self.demand = Fraction(sum(filter((0).__lt__, scaled)), scale)
        self.wide: Optional[FlowNetwork] = None
        self.arcs: Optional[_ResidualArcs] = None
        self.kept: Union[None, _ResidualArcs, str] = None
        self.flow: Optional[Flow] = None

    def widening(self, net: FlowNetwork) -> FlowNetwork:
        """The budgets of ``net``, whose start this is, widened into one
        source and one sink, built once: two extra nodes, a cost-free
        supply edge from the source to every node with positive budget
        and a matching drain edge into the sink from every node with
        negative budget, in node order.  Its first ``m`` edges carry the
        costs of the network it was first built from.  Its own start
        shares its arcs at zero flow, laid out here, so a negative
        capacity raises ``_ResidualArcs``'s ``CapacityViolation``."""
        if self.wide is None:
            n = net.node_count
            edges = list(net.edges)
            labels = list(net.edge_labels) if net.edge_labels else ["" for _ in net.edges]
            for v, (b, x) in enumerate(zip(net.budgets, self.scaled)):
                if x > 0:
                    edges.append(Edge(n, v, b, Fraction(0)))
                    labels.append("supply")
                elif x < 0:
                    edges.append(Edge(v, n + 1, -b, Fraction(0)))
                    labels.append("drain")
            names = None
            if net.node_names is not None:
                names = (*net.node_names, "super_source", "super_sink")
            wide = FlowNetwork(
                n + 2,
                tuple(edges),
                (Fraction(0),) * (n + 2),
                node_names=names,
                edge_labels=tuple(labels) if net.edge_labels else None,
            )
            wide._start.arcs = _ResidualArcs(wide)
            self.wide = wide
        return self.wide

    def zero_arcs(self, net: FlowNetwork) -> _ResidualArcs:
        """The arcs of ``widening(net)`` at zero flow: ``net``'s own, then
        one pair per supply or drain edge, with rooms in the scale of the
        capacities and budgets.  They are shared, so never push on them,
        and carry no costs."""
        return self.widening(net)._start.arcs if self.arcs is None else self.arcs

    def routed(self, net: FlowNetwork) -> _ResidualArcs:
        """The arcs of ``net`` at the maximum flow from the widening's
        source to its sink, run on a copy of ``zero_arcs``, or its
        ``InfeasibleError``; push on ``copy_for`` copies only."""
        if self.error is not None:
            raise InfeasibleError(self.error)
        if self.kept is None:
            zero = self.zero_arcs(net)
            res, n, k = zero.copy_for(None), net.node_count, 2 * net.edge_count
            value = Fraction(_augment(res, n + 2, n, n + 1), res.flow_scale)
            del res.room[k:]
            res.tail, res.head = zero.tail[:k], zero.head[:k]
            if value != self.demand:
                res = "budgets require %s units but only %s can be routed" % (self.demand, value)
            self.kept = res
        if type(self.kept) is str:
            raise InfeasibleError(self.kept)
        return self.kept

    def feasible_flow(self, net: FlowNetwork) -> Flow:
        """The ``Flow`` of ``routed(net)``, built once."""
        res = self.routed(net)
        if self.flow is None:
            self.flow = res.flow()
        return self.flow

    def arcs_at(self, net: FlowNetwork, flow: Optional[Flow]) -> _ResidualArcs:
        """MMCC's and network simplex's start: the arcs of ``net`` at
        ``flow`` with the costs of ``net._costs``, copied from
        ``routed(net)`` when ``flow`` is ``None`` or ``feasible_flow``'s.
        Another flow that breaks conservation raises ``InfeasibleError``,
        and one outside its bounds the arcs' ``CapacityViolation``."""
        if flow is None or flow is self.flow:
            return self.routed(net).copy_for(net._costs)
        bad = check_feasible(net, flow)
        if bad is not None and bad.kind == "conservation":
            raise InfeasibleError("stored starting flow: %s: %s" % (bad.kind, bad.detail))
        # a capacity bound: building the arcs raises at the first bad edge
        return _ResidualArcs(net, flow, layer=net._costs)


def concentrate_budgets(net: FlowNetwork) -> tuple[FlowNetwork, int, int, Fraction]:
    """Rewrite budgets as a single source-sink demand.

    Returns a widened network with two extra nodes, a cost-free supply
    edge from the new source to every node with positive budget and a
    matching edge into the new sink from every node with negative
    budget, plus the source id, sink id, and total demand.  A flow on
    the original network corresponds to a widened flow that saturates
    all the added edges.  Budgets that do not sum to zero raise
    ``InfeasibleError``: no flow meets them, and a negative capacity
    ``CapacityViolation``.  The widening is built once per network, by
    ``net._start``, which every realization of one smoothed instance
    shares with the instance network, and so does the maximum flow of
    the feasible start, which runs on its arcs at zero flow; each call
    only gives it ``net``'s costs.  The result shares the widening's
    start, so ``ssp_solve`` on it builds no arcs of its own.  Its cost
    layer is ``net``'s padded with the zero costs of the added edges, so
    a realization's cost draw is scaled once for its widening too.
    """
    start = net._start
    if start.error is not None:
        raise InfeasibleError(start.error)
    wide, m, n = start.widening(net), net.edge_count, net.node_count
    added = wide.edges[m:]
    # zeros have denominator 1, so the draw's scale and scaled costs hold
    costs, k = net._costs, len(added)
    layer = object.__new__(_Costs)
    layer.values, layer.scale = costs.values + (Fraction(0),) * k, costs.scale
    layer.paired = costs.paired + [0] * (2 * k)
    return _recosted(wide, net.edges + added, layer), n, n + 1, start.demand


class _Costs:
    """One cost draw over a network's edges, checked: the exact
    ``values``, their lcm ``scale`` and ``paired``, the arc costs
    ``[c0, -c0, c1, -c1, …]`` in that scale, all built at once and kept,
    so every solver and certificate of the draw shares them.  Max flow
    reads no layer, and ``FlowNetwork._costs`` builds one only on first
    read, so max flow never scales costs.
    """

    __slots__ = ("values", "scale", "paired")

    def __init__(self, values: tuple[Fraction, ...]):
        self.values = values
        self.scale = scale = lcm(*{c.denominator for c in values})
        forward = _scaled_all(values, scale)
        self.paired = paired = [0] * (2 * len(forward))
        paired[::2] = forward
        paired[1::2] = map(neg, forward)


def _recosted(net: FlowNetwork, edges: tuple[Edge, ...], layer: _Costs) -> FlowNetwork:
    """``net`` with ``edges``, which differ from its own in cost only, and
    their cost layer ``layer``, unchecked and sharing ``net``'s start."""
    copied = object.__new__(FlowNetwork)
    copied.__dict__.update(net.__dict__, edges=edges, _start=net._start, _costs=layer)
    return copied


@dataclass(frozen=True)
class CostInterval:
    """Closed cost range [lo, lo + width] an edge cost may take.

    ``contains``, and so ``SmoothedInstance.realize``, accepts both
    ends; ``sample_costs`` draws only from the half-open grid below
    ``lo + width``.  A zero width is allowed and denotes a degenerate
    interval whose only cost is ``lo``.  The smoothing constraint
    (width at least 1/phi) is a property of a whole instance, checked
    by ``validate_instance``.
    """

    lo: Fraction
    width: Fraction

    def __post_init__(self):
        if self.width < 0:
            raise ValueError("interval width must be nonnegative")

    @property
    def hi(self) -> Fraction:
        return self.lo + self.width

    def contains(self, cost: Fraction) -> bool:
        lo, width = self.lo, self.width
        if not (isinstance(cost, _EXACT) and isinstance(lo, _EXACT) and isinstance(width, _EXACT)):
            return lo <= cost <= lo + width
        # lo = a/b, cost = p/q, width = wn/wd with positive denominators,
        # compared cross-multiplied so that no gcd is taken.
        a, b = lo.numerator, lo.denominator
        p, q = cost.numerator, cost.denominator
        wn, wd = width.numerator, width.denominator
        pb = p * b
        return a * q <= pb and pb * wd <= (a * wd + wn * b) * q


@dataclass(frozen=True)
class Flow:
    """Per-edge flow values, indexed like ``FlowNetwork.edges``."""

    values: tuple[Fraction, ...]

    @classmethod
    def zero(cls, edge_count: int) -> "Flow":
        return cls(tuple(Fraction(0) for _ in range(edge_count)))

    @classmethod
    def from_values(cls, values: Iterable[RationalLike]) -> "Flow":
        return cls(tuple(rational(v) for v in values))

    def __getitem__(self, index: int) -> Fraction:
        return self.values[index]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(eq=False)
class Trace:
    """One solver run: its steps in order, the flow it ended with, and
    ``termination``, ``"optimal"`` or ``"iteration_cap_hit"``.

    A kernel appends to ``_records`` one compact record per step, made
    of integers it already holds, and sets ``_step``, the function that
    turns a record into the step object.  ``steps`` builds a new list of
    step objects on each read and keeps none, so an unread trace holds
    only its records; the counts read the records.  Two traces are equal
    when their steps and public fields are.
    """

    final_flow: Optional[Flow] = None
    termination: str = "optimal"
    _records: list = field(default_factory=list, repr=False, compare=False)
    _step: Optional[Callable] = field(default=None, repr=False, compare=False)

    @property
    def steps(self) -> list:
        return list(map(self._step, self._records))

    @property
    def step_count(self) -> int:
        return len(self._records)

    @property
    def degenerate_count(self) -> int:
        return 0

    @property
    def nondegenerate_count(self) -> int:
        return self.step_count - self.degenerate_count

    def digest(self) -> str:
        """SHA-256, in hex, over one line per step joined by newlines:
        ``cycle 12+ 7- … amount a`` (edge ids, ``+`` along the edge),
        ``pivot e l amount a`` (entering and leaving edge) or
        ``path v … amount a`` (node ids), each subclass's ``_line``.
        The step objects are built for their lines and not kept."""
        # imported here: it takes about 3 ms, which no solve needs
        import hashlib

        lines = map(self._line, map(self._step, self._records))
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.steps == other.steps and all(
            getattr(self, f.name) == getattr(other, f.name) for f in fields(self) if f.compare
        )


@dataclass(frozen=True)
class SmoothedInstance:
    """A flow network whose edge costs are intervals, not fixed numbers.

    ``network`` carries a placeholder cost per edge (the interval lower
    bound); ``realize`` substitutes concrete sampled costs.  When
    ``starting_flow`` is present, solvers use it instead of computing an
    initial feasible flow; feasibility does not depend on the sampled
    costs, so one flow serves every realization.
    """

    network: FlowNetwork
    intervals: tuple[CostInterval, ...]
    phi: Fraction
    starting_flow: Optional[Flow] = None

    def __post_init__(self):
        if len(self.intervals) != self.network.edge_count:
            raise ValueError("one cost interval per edge is required")
        if self.starting_flow is not None and len(self.starting_flow) != self.network.edge_count:
            raise ValueError("one starting flow value per edge is required")

    def realize(self, costs: Sequence[Fraction]) -> FlowNetwork:
        """Return a concrete network using ``costs`` for the edge costs.

        Only the costs differ from ``network``, so the realization shares
        the instance network's computed start: its budget widening, the
        widening's arcs at zero flow and, once some solver or
        ``initial_feasible_flow`` has computed it, its maximum flow.
        Each is computed once per instance, however many cost draws and
        solvers read it.  The realization also carries the draw's cost
        layer: the costs checked once and scaled to integers once, for
        every solver and certificate of the draw.

        The realization of the last ``tuple`` is kept and returned for
        that same object without a second check, so ``realize(costs)``
        followed by ``mmcc_solve(instance, costs)`` checks once.  It is
        looked up by identity: a list can change between calls, and an
        equal tuple can hold a float, which must raise.
        """
        last = self.__dict__.get("_last_costs")
        if last is not None and last[0] is costs:
            return last[1]
        net = self.network
        if len(costs) != net.edge_count:
            raise ValueError("expected %d costs, got %d" % (net.edge_count, len(costs)))
        checked = []
        for edge, interval, cost in zip(net.edges, self.intervals, costs):
            cost = rational(cost)
            if not interval.contains(cost):
                raise ValueError(
                    "cost %s for edge (%d,%d) outside its interval [%s, %s]"
                    % (cost, edge.tail, edge.head, interval.lo, interval.hi)
                )
            checked.append(cost)
        layer = _Costs(tuple(checked))
        # the edges are built by ``Edge``, since a copy of each one's
        # ``__dict__`` makes every later read of it slower
        edges = tuple(
            Edge(e.tail, e.head, e.capacity, c, e.leaving_rank)
            for e, c in zip(net.edges, layer.values)
        )
        realized = _recosted(net, edges, layer)
        if type(costs) is tuple:
            self.__dict__["_last_costs"] = (costs, realized)
        return realized


@dataclass(frozen=True)
class ResidualEdge:
    """Edge of a residual network, tagged with its origin.

    ``edge_id`` indexes the underlying network edge and ``forward`` tells
    whether this residual edge runs along it (spare capacity) or against
    it (cancellable flow).
    """

    tail: int
    head: int
    capacity: Capacity
    cost: Fraction
    edge_id: int
    forward: bool


@dataclass(frozen=True)
class ResidualNetwork:
    """Residual edges over ``node_count`` nodes; building one raises
    ``ValueError`` for an edge endpoint outside the nodes."""

    node_count: int
    edges: tuple[ResidualEdge, ...]

    def __post_init__(self):
        _check_endpoints(self.edges, self.node_count)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class Cycle:
    """Simple directed cycle in a residual network."""

    edges: tuple[ResidualEdge, ...]
    total_cost: Fraction
    mean_cost: Fraction

    @classmethod
    def from_edges(cls, edges: Sequence[ResidualEdge]) -> "Cycle":
        edges = tuple(edges)
        if not edges:
            raise EmptyCycleError("a cycle needs at least one edge")
        nodes = [e.tail for e in edges]
        for here, after in zip(edges, edges[1:] + edges[:1]):
            if here.head != after.tail:
                raise ValueError("edges do not form a closed walk")
        if len(set(nodes)) != len(nodes):
            raise ValueError("cycle revisits a node")
        total = sum((e.cost for e in edges), Fraction(0))
        return cls(edges=edges, total_cost=total, mean_cost=Fraction(total, len(edges)))

    def nodes(self) -> tuple[int, ...]:
        return tuple(e.tail for e in self.edges)

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class Violation:
    """First broken invariant found by a validation pass."""

    kind: str
    detail: str


class _DisjointSets:
    """Union-find over the nodes ``0 .. size - 1`` with path halving."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; ``False`` when they are
        already one set."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _weakly_connected(node_count: int, edges: Sequence[Edge]) -> bool:
    if node_count <= 1:
        return True
    sets = _DisjointSets(node_count)
    for e in edges:
        sets.union(e.tail, e.head)
    roots = {sets.find(v) for v in range(node_count)}
    return len(roots) == 1


def validate_network(net: FlowNetwork) -> Optional[Violation]:
    """Check the structural invariants of ``net``.

    Returns ``None`` when everything holds, otherwise a ``Violation``
    describing the first problem found.  A disconnected network is only
    warned about, since the solvers work per component.
    """
    seen: set[tuple[int, int]] = set()
    for idx, e in enumerate(net.edges):
        if e.tail == e.head:
            return Violation("self_loop", "edge %d is a self loop at node %d" % (idx, e.tail))
        if (e.tail, e.head) in seen:
            return Violation("duplicate_edge", "edge %d duplicates (%d,%d)" % (idx, e.tail, e.head))
        if (e.head, e.tail) in seen:
            return Violation(
                "antiparallel_pair",
                "edge %d (%d,%d) is antiparallel to an earlier edge" % (idx, e.tail, e.head),
            )
        seen.add((e.tail, e.head))
    for idx, e in enumerate(net.edges):
        if e.capacity is not None and e.capacity < 0:
            return Violation("negative_capacity", "edge %d has capacity %s" % (idx, e.capacity))
    total = sum(net.budgets, Fraction(0))
    if total != 0:
        return Violation("budget_imbalance", "budgets sum to %s, not zero" % total)
    if not _weakly_connected(net.node_count, net.edges):
        warnings.warn("network is not weakly connected", stacklevel=2)
    return None


def validate_instance(inst: SmoothedInstance) -> Optional[Violation]:
    """Validate a smoothed instance: network invariants plus smoothing width."""
    bad = validate_network(inst.network)
    if bad is not None:
        return bad
    if inst.phi <= 0:
        return Violation("bad_phi", "phi must be positive, got %s" % inst.phi)
    floor = Fraction(1) / inst.phi
    for idx, interval in enumerate(inst.intervals):
        if interval.width < floor:
            return Violation(
                "interval_too_narrow",
                "edge %d has width %s below 1/phi = %s" % (idx, interval.width, floor),
            )
    if inst.starting_flow is not None:
        return check_feasible(inst.network, inst.starting_flow)
    return None


def _flow_values(net: FlowNetwork, flow: Flow) -> tuple:
    """``flow.values``; ``ValueError`` unless there is one per edge of ``net``."""
    if len(flow) != net.edge_count:
        raise ValueError("flow has %d values for %d edges" % (len(flow), net.edge_count))
    return flow.values


class _ResidualArcs:
    """The residual network of a flow as paired integer arcs.

    Arc ``2e`` runs along edge ``e`` and arc ``2e + 1`` against it, so
    ``a ^ 1`` is the reverse of ``a``.  Room (residual capacity) is
    scaled to integers by ``flow_scale``, the lcm of the capacity and
    flow denominators, and is ``None`` when unbounded.  The arcs are
    built in bulk, list by list, and one scan finds the first edge
    whose flow is outside its capacities, which raises as in
    ``residual``; ``flow`` defaults to zero.  ``layer`` is the cost layer
    the arcs read their costs from, ``net._costs`` for the certificate
    and the solvers, none for max flow; ``cost`` and ``cost_scale`` read
    it through, so the arcs scale no costs of their own.  The flow of
    edge ``e`` is the room of arc ``2e + 1``, and ``residual``, the
    certificate and the MMCC and SSP kernels read the arcs with room in
    ``with_room``'s order, ascending arc id.
    """

    def __init__(
        self, net: FlowNetwork, flow: Optional[Flow] = None, layer: Optional[_Costs] = None
    ):
        edges = net.edges
        m = len(edges)
        caps = [e.capacity for e in edges]
        values = (0,) * m if flow is None else _flow_values(net, flow)
        self.flow_scale = scale = _flow_scale(caps, values)
        x = _scaled_all(values, scale)
        spare = [None if c is None else c - f for c, f in zip(_scaled_all(caps, scale), x)]
        # ``filter`` drops the unbounded rooms and the zeros, neither of
        # which is negative
        if min(x, default=0) < 0 or min(filter(None, spare), default=0) < 0:
            for i, (f, r) in enumerate(zip(x, spare)):
                if f < 0:
                    raise CapacityViolation("edge %d carries negative flow %s" % (i, values[i]))
                if r is not None and r < 0:
                    raise CapacityViolation(
                        "edge %d carries %s above capacity %s" % (i, values[i], caps[i])
                    )
        tails, heads = [e.tail for e in edges], [e.head for e in edges]
        self.tail, self.head = tail, head = [0] * (2 * m), [0] * (2 * m)
        tail[::2] = head[1::2] = tails
        tail[1::2] = head[::2] = heads
        self.room = room = [None] * (2 * m)
        room[::2] = spare
        room[1::2] = x
        self.layer = layer

    @property
    def cost_scale(self) -> int:
        return self.layer.scale

    @property
    def cost(self) -> list[int]:
        return self.layer.paired

    def copy_for(self, layer: Optional[_Costs]) -> _ResidualArcs:
        """These arcs with rooms of their own, to push on, and the costs
        of ``layer``; the tails and heads are shared, and nothing changes
        them."""
        twin = copy(self)
        twin.room = self.room[:]
        twin.layer = layer
        return twin

    def with_room(self) -> list[int]:
        """The arcs with room, in ascending arc id."""
        return [a for a, r in enumerate(self.room) if r != 0]

    def push(self, arcs: Iterable[int], amount: int) -> None:
        """Send the scaled ``amount`` along every arc of ``arcs``."""
        room = self.room
        for a in arcs:
            if room[a] is not None:
                room[a] -= amount
            if room[a ^ 1] is not None:
                room[a ^ 1] += amount

    def flow(self) -> Flow:
        return _scaled_flow(self.room[1::2], self.flow_scale)

    def residual_edge(self, a: int, r: Optional[int]) -> ResidualEdge:
        """The ``ResidualEdge`` of arc ``a`` at the scaled room ``r``."""
        c = self.layer.values[a >> 1]
        return ResidualEdge(
            self.tail[a],
            self.head[a],
            None if r is None else Fraction(r, self.flow_scale),
            -c if a & 1 else c,
            a >> 1,
            not a & 1,
        )


def residual(net: FlowNetwork, flow: Flow) -> ResidualNetwork:
    """Residual network of ``flow``: forward edges with spare capacity,
    backward edges with cancellable flow at negated cost.

    Raises ``CapacityViolation`` if the flow breaks a capacity bound.
    """
    res = _ResidualArcs(net, flow, layer=net._costs)
    room = res.room
    return ResidualNetwork(
        net.node_count, tuple(res.residual_edge(a, room[a]) for a in res.with_room())
    )


def flow_cost(net: FlowNetwork, flow: Flow) -> Fraction:
    """Total cost sum(cost(e) * flow(e)), exact, as one integer dot
    product over the scaled costs of ``net``'s cost layer."""
    layer, values = net._costs, _flow_values(net, flow)
    flow_scale = lcm(*(f.denominator for f in values))
    total = sum(c * _scaled(f, flow_scale) for c, f in zip(layer.paired[::2], values))
    return Fraction(total, layer.scale * flow_scale)


def check_feasible(net: FlowNetwork, flow: Flow) -> Optional[Violation]:
    """Capacity bounds edge by edge, then conservation, on scaled
    integers; ``None`` means feasible."""
    edges, values, budgets = net.edges, _flow_values(net, flow), net.budgets
    caps = [e.capacity for e in edges]
    scale = _flow_scale(caps, values, budgets)
    scaled = _scaled_all(values, scale)
    for idx, (x, cap) in enumerate(zip(scaled, _scaled_all(caps, scale))):
        if x < 0 or (cap is not None and x > cap):
            return Violation("capacity", "edge %d carries %s" % (idx, values[idx]))
    balance = _scaled_all(budgets, scale)
    for e, x in zip(edges, scaled):
        balance[e.tail] -= x
        balance[e.head] += x
    for v, b in enumerate(balance):
        if b:
            return Violation(
                "conservation", "node %s is off by %s" % (net.name_of(v), Fraction(b, scale))
            )
    return None


def _augment(res: _ResidualArcs, node_count: int, source: int, sink: int) -> int:
    """Push along shortest paths of ``res`` from ``source`` to ``sink``
    until none is left, updating its rooms in place; the value shipped,
    in the flow scale."""
    head, room = res.head, res.room
    out: list[list[int]] = [[] for _ in range(node_count)]
    for a, v in enumerate(res.tail):
        out[v].append(a)

    value = 0
    while True:
        parent_arc = [-1] * node_count
        parent_arc[source] = -2
        queue = deque([source])
        while queue and parent_arc[sink] == -1:
            for a in out[queue.popleft()]:
                w = head[a]
                if parent_arc[w] == -1 and room[a] != 0:
                    parent_arc[w] = a
                    queue.append(w)
        if parent_arc[sink] == -1:
            return value
        path = []
        v = sink
        while v != source:
            a = parent_arc[v]
            path.append(a)
            v = head[a ^ 1]
        bottleneck = min((room[a] for a in path if room[a] is not None), default=None)
        if bottleneck is None:
            raise ValueError("augmenting path with unbounded capacity; flow is infinite")
        res.push(path, bottleneck)
        value += bottleneck


def _bellman_ford(n: int, arcs, dist: list, pred: list) -> Optional[int]:
    """Relax the ``(arc, from, to, cost)`` tuples of ``arcs`` in order
    for up to ``n`` rounds; ``pred[v]`` is the arc that last lowered
    ``v``.  Returns ``None`` when the labels settle, else the last node
    lowered in round ``n``."""
    lowered = None
    for _ in range(n):
        lowered = None
        for i, a, b, c in arcs:
            candidate = dist[a] + c
            if candidate < dist[b]:
                dist[b] = candidate
                pred[b] = i
                lowered = b
        if lowered is None:
            break
    return lowered


def verify_optimality(net: FlowNetwork, flow: Flow) -> Optional[Cycle]:
    """Return ``None`` if ``flow`` is minimum-cost, else a witness.

    A feasible flow is optimal exactly when its residual network has no
    negative-cost cycle; the witness returned is such a cycle, found by
    ``_bellman_ford`` from zero labels, as if from a virtual source.

    The residual edges are the arcs of ``_ResidualArcs`` with room, in
    ascending arc id, which is ``residual``'s order; only the witness is
    built as ``ResidualEdge`` values.
    """
    res = _ResidualArcs(net, flow, layer=net._costs)
    n, tail, head, cost = net.node_count, res.tail, res.head, res.cost
    pred = [-1] * n
    arcs = [(a, tail[a], head[a], cost[a]) for a in res.with_room()]
    node = _bellman_ford(n, arcs, [0] * n, pred)
    if node is None:
        return None
    # Still relaxing after n passes: the predecessor chain from the last
    # lowered node must contain a negative cycle.
    for _ in range(n):
        node = tail[pred[node]]
    chain = []
    cursor = node
    while True:
        i = pred[cursor]
        chain.append(i)
        cursor = tail[i]
        if cursor == node:
            break
    witness = Cycle.from_edges([res.residual_edge(i, res.room[i]) for i in reversed(chain)])
    if witness.total_cost >= 0:
        raise FlowLabError("internal error: witness cycle is not negative")
    return witness
