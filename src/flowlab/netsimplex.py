"""Network simplex over explicit spanning-tree structures.

A structure partitions the edges into a spanning tree T and two
off-tree sets L (flow pinned at zero) and U (flow pinned at capacity).
The tree determines the flow and the node potentials; pivots swap one
violating off-tree edge into the tree and record exactly which cycle
was used, so runs can be compared against other algorithms edge by
edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional

from .core import (
    Flow,
    FlowLabError,
    FlowNetwork,
    IterationCapExceeded,
    Trace,
    UnboundedCycleError,
    Violation,
    _DisjointSets,
    _scaled_all,
    _scaled_flow,
    default_iteration_cap,
)

__all__ = [
    "InfeasibleStructureError",
    "SpanningTreeStructure",
    "NsPivot",
    "NsTrace",
    "validate_structure",
    "tree_flow",
    "compute_potentials",
    "ns_solve",
    "basic_structure_from_flow",
]


class InfeasibleStructureError(FlowLabError):
    """The tree structure does not induce a feasible flow."""


@dataclass(frozen=True)
class SpanningTreeStructure:
    """Partition of the edge ids into tree, lower, and upper sets.

    The structure holds no derived data: the flow and the node
    potentials follow from the tree, through ``tree_flow`` and
    ``compute_potentials``.
    """

    tree_edges: frozenset[int]
    lower: frozenset[int]
    upper: frozenset[int]
    root: int = 0


def validate_structure(net: FlowNetwork, s: SpanningTreeStructure) -> Optional[Violation]:
    """Partition and spanning checks; ``None`` when the structure is sound."""
    m = net.edge_count
    ids = set(range(m))
    if s.tree_edges & s.lower or s.tree_edges & s.upper or s.lower & s.upper:
        return Violation("structure_overlap", "tree, lower, and upper sets overlap")
    if (s.tree_edges | s.lower | s.upper) != ids:
        return Violation("structure_incomplete", "some edge belongs to no set")
    if not (0 <= s.root < net.node_count):
        return Violation("bad_root", "root %d is not a node" % s.root)
    if len(s.tree_edges) != net.node_count - 1:
        return Violation(
            "tree_size",
            "tree has %d edges for %d nodes" % (len(s.tree_edges), net.node_count),
        )
    sets = _DisjointSets(net.node_count)
    for idx in s.tree_edges:
        e = net.edges[idx]
        if not sets.union(e.tail, e.head):
            return Violation("tree_cycle", "tree edges contain a cycle")
    for idx in s.upper:
        if net.edges[idx].capacity is None:
            return Violation("uncapacitated_upper", "edge %d in upper set has no capacity" % idx)
    return None


def _hang(n: int, tail, head, tree_edges, root: int):
    """The spanning tree ``tree_edges`` hung from ``root`` in
    breadth-first order: the visit order, and the parent node and
    parent edge of every node, ``-1`` at the root."""
    incident: list[list[int]] = [[] for _ in range(n)]
    for e in tree_edges:
        incident[tail[e]].append(e)
        incident[head[e]].append(e)
    parent = [-1] * n
    parent_edge = [-1] * n
    seen = [False] * n
    seen[root] = True
    order = [root]
    for v in order:
        for e in incident[v]:
            w = head[e] if tail[e] == v else tail[e]
            if not seen[w]:
                seen[w] = True
                parent[w], parent_edge[w] = v, e
                order.append(w)
    return order, parent, parent_edge


def _potentials(order, parent, parent_edge, tail, cost, pot) -> None:
    """Fill ``pot`` down the hung tree so that every tree edge has
    reduced cost zero; the root keeps the value it has."""
    for w in order[1:]:
        v, e = parent[w], parent_edge[w]
        pot[w] = pot[v] - cost[e] if tail[e] == v else pot[v] + cost[e]


def _fill_flow(order, parent, parent_edge, tail, head, cap, budgets, s, values, scale) -> None:
    """Fill ``values`` with ``tree_flow``'s flow down the hung tree, in
    units of ``1 / scale``; lower edges keep the zero they hold, and
    the errors print amounts as ``Fraction``s."""
    # surplus[v]: amount that must still leave v through unresolved edges
    surplus = list(budgets)
    for idx in s.upper:
        values[idx] = c = cap[idx]
        surplus[tail[idx]] -= c
        surplus[head[idx]] += c
    for v in reversed(order[1:]):
        idx = parent_edge[v]
        values[idx] = surplus[v] if tail[idx] == v else -surplus[v]
        surplus[parent[v]] += surplus[v]
    if surplus[s.root] != 0:
        raise InfeasibleStructureError("budgets do not balance through the tree")
    for idx in s.tree_edges:
        f, c = values[idx], cap[idx]
        if f < 0 or (c is not None and f > c):
            raise InfeasibleStructureError(
                "tree edge %d needs flow %s outside [0, %s]"
                % (idx, Fraction(f, scale), None if c is None else Fraction(c, scale))
            )


def _checked_hang(net: FlowNetwork, s: SpanningTreeStructure):
    """The edge tails and heads, and ``_hang`` of the tree; a structure
    that ``validate_structure`` rejects raises ``InfeasibleStructureError``
    with its ``kind: detail``."""
    bad = validate_structure(net, s)
    if bad is not None:
        raise InfeasibleStructureError("%s: %s" % (bad.kind, bad.detail))
    tail = [e.tail for e in net.edges]
    head = [e.head for e in net.edges]
    return tail, head, _hang(net.node_count, tail, head, s.tree_edges, s.root)


def tree_flow(net: FlowNetwork, s: SpanningTreeStructure) -> Flow:
    """The unique flow with lower edges at 0, upper edges at capacity,
    and conservation enforced through the tree.

    Raises ``InfeasibleStructureError`` when ``validate_structure``
    rejects the structure, or a tree edge would have to carry a negative
    amount or exceed its capacity.
    """
    tail, head, hung = _checked_hang(net, s)
    values = [Fraction(0) if idx in s.lower else None for idx in range(net.edge_count)]
    cap = [e.capacity for e in net.edges]
    _fill_flow(*hung, tail, head, cap, net.budgets, s, values, 1)
    return Flow(tuple(values))


def compute_potentials(net: FlowNetwork, s: SpanningTreeStructure) -> tuple[Fraction, ...]:
    """Node potentials making every tree edge's reduced cost zero, with
    the root pinned at zero.

    Raises ``InfeasibleStructureError`` when ``validate_structure``
    rejects the structure.
    """
    tail, _, hung = _checked_hang(net, s)
    pot = [Fraction(0)] * net.node_count
    _potentials(*hung, tail, [e.cost for e in net.edges], pot)
    return tuple(pot)


@dataclass(frozen=True)
class NsPivot:
    entering: int
    leaving: int
    amount: Fraction
    degenerate: bool
    entering_reduced_cost: Fraction
    cycle: tuple[tuple[int, bool], ...]


@dataclass(eq=False)
class NsTrace(Trace):
    """A network simplex run; its records are ``(entering, leaving,
    delta, rc, cycle)``, with the amount ``delta`` in the flow scale and
    the entering reduced cost ``rc`` in the cost scale."""

    final_structure: Optional[SpanningTreeStructure] = None
    pivot_count = Trace.step_count

    @property
    def pivots(self) -> list[NsPivot]:
        return self.steps

    @property
    def degenerate_count(self) -> int:
        return sum(1 for record in self._records if not record[2])

    @staticmethod
    def _line(p: NsPivot) -> str:
        return "pivot %d %d amount %s" % (p.entering, p.leaving, p.amount)


def _pivot(flow_scale: int, cost_scale: int, amounts: dict, record) -> NsPivot:
    """The ``NsPivot`` of an ``NsTrace`` record; ``amounts`` keeps one
    ``Fraction`` per distinct amount."""
    entering, leaving, delta, rc, cycle = record
    amount = amounts.get(delta)
    if amount is None:
        amount = amounts[delta] = Fraction(delta, flow_scale)
    return NsPivot(entering, leaving, amount, delta == 0, Fraction(rc, cost_scale), cycle)


def ns_solve(
    net: FlowNetwork,
    structure: SpanningTreeStructure,
    *,
    iteration_cap: Optional[int] = None,
    strongly_feasible: bool = False,
) -> NsTrace:
    """Pivot until no off-tree edge violates its optimality condition.

    Every pivot is recorded with its cycle, so the sequence of
    augmentations can be replayed or compared.  Hitting the safety cap
    raises ``IterationCapExceeded`` with the partial trace attached.

    The run is exactly the ``Fraction`` loop of ``entering_edge`` and
    ``pivot`` that ``tests/reference.py`` holds, started from the
    tree's flow, with the same options, pivot for pivot.  It is carried
    out on integers: costs by their common denominator, read from the
    network's cost layer, which a realization shares with every solver
    and certificate of its cost draw; flows by that of the capacities
    and budgets, since tree flows are sums of those.  The scaled
    capacities are read from the network's arcs at zero flow, which the
    realizations of one smoothed instance share with its maximum-flow
    start, so they are built once per instance.  The tree is hung once
    and the start flow and potentials filled down it, with
    ``tree_flow``'s errors; each pivot re-hangs one subtree in place
    and shifts its potentials.  Each pivot is recorded as integers;
    ``Fraction`` values are built for the final flow, one per distinct
    value, and for the pivots when the trace is read.
    """
    # the arcs of ``net``'s budget widening at zero flow, the first 2m
    # of them ``net``'s own, with the budgets in the flow scale; read
    # before the structure check, so a negative capacity raises first
    zero = net._start.zero_arcs(net)
    if iteration_cap is None:
        iteration_cap = default_iteration_cap(net.node_count, net.edge_count)
    n, m, root = net.node_count, net.edge_count, structure.root
    tail, head, (order, parent, parent_edge) = _checked_hang(net, structure)
    # edge e's scaled cost and capacity are those of its forward arc 2e
    layer, flow_scale = net._costs, zero.flow_scale
    cost_scale, cost, cap = layer.scale, layer.paired[::2], zero.room[: 2 * m : 2]
    rank = [e.leaving_rank for e in net.edges]
    # 0: tree edge, +1: pinned at zero (lower), -1: pinned at capacity (upper)
    state = [0] * m
    for e in structure.lower:
        state[e] = 1
    for e in structure.upper:
        state[e] = -1

    # the spanning tree hung from the root: parent node, the tree edge to
    # it, depth and children of every node, and the cycle steps that
    # climb from a node to its parent and descend from the parent to it
    depth = [0] * n
    children: list[list[int]] = [[] for _ in range(n)]
    up_step: list[Optional[tuple[int, bool]]] = [None] * n
    down_step: list[Optional[tuple[int, bool]]] = [None] * n
    for w in order[1:]:
        v, e = parent[w], parent_edge[w]
        depth[w] = depth[v] + 1
        up_step[w], down_step[w] = (e, tail[e] == w), (e, head[e] == w)
        children[v].append(w)
    # the start flow and potentials, the root's at zero, are filled
    # down the same hang
    flow = [0] * m
    budgets = _scaled_all(net.budgets, flow_scale)
    _fill_flow(order, parent, parent_edge, tail, head, cap, budgets, structure, flow, flow_scale)
    pot = [0] * n
    _potentials(order, parent, parent_edge, tail, cost, pot)

    trace = NsTrace(_step=partial(_pivot, flow_scale, cost_scale, {}))
    pivots = trace._records

    def close(termination: str) -> NsTrace:
        trace.termination = termination
        trace.final_flow = _scaled_flow(flow, flow_scale)
        # the tree, lower and upper edges in one pass: ``state`` 0, 1, -1
        # picks the list
        parts: tuple[list[int], list[int], list[int]] = ([], [], [])
        for e, where in enumerate(state):
            parts[where].append(e)
        trace.final_structure = SpanningTreeStructure(*map(frozenset, parts), root=root)
        return trace

    mags = ranked = None
    while True:
        # Dantzig pricing: the largest violation, ties to the lowest id;
        # tree edges price at zero and never win
        if mags is None:
            mags = [s * (pot[a] - pot[b] - c) for s, a, b, c in zip(state, tail, head, cost)]
            best = max(mags, default=0)
            entering = -1
        else:
            # after a bound flip only the flipped price changed, to below
            # zero, so Dantzig's next picks are the rest of the price list
            # in descending order, ties to the lowest id (the sort is
            # stable under reverse); sorted on the first flip only, since
            # most re-priced lists never see one.  Every pick is positive
            # and becomes negative, so the scan stops at or before the
            # flipped entry it was sorted with.
            if ranked is None:
                ranked = sorted(range(m), key=mags.__getitem__, reverse=True)
                next_pick = 0
            entering = ranked[next_pick]
            next_pick += 1
            best = mags[entering]
        if best <= 0:
            break
        if len(pivots) >= iteration_cap:
            close("iteration_cap_hit")
            raise IterationCapExceeded("no optimum after %d pivots" % iteration_cap, trace=trace)
        if entering < 0:
            entering = mags.index(best)
        a, b = tail[entering], head[entering]
        rc = cost[entering] - pot[a] + pot[b]
        increase = state[entering] == 1

        # the cycle: the entering edge, then the tree path back to its
        # start (head to tail when it increases, tail to head otherwise),
        # found by climbing both ends to their common ancestor
        first, last = (b, a) if increase else (a, b)
        u, v = first, last
        climb, descent = [], []
        while depth[u] > depth[v]:
            climb.append(up_step[u])
            u = parent[u]
        while depth[v] > depth[u]:
            descent.append(down_step[v])
            v = parent[v]
        while u != v:
            climb.append(up_step[u])
            u = parent[u]
            descent.append(down_step[v])
            v = parent[v]
        descent.reverse()
        cycle = ((entering, increase), *climb, *descent)

        # ratio test in one pass: the least room on the cycle and the
        # positions that block at it; an uncapacitated forward step has
        # no limit
        delta = None
        blocking = []
        for pos, (e, fwd) in enumerate(cycle):
            if fwd:
                room = cap[e]
                if room is None:
                    continue
                room -= flow[e]
            else:
                room = flow[e]
            if delta is None or room < delta:
                delta = room
                blocking = [pos]
            elif room == delta:
                blocking.append(pos)
        if delta is None:
            raise UnboundedCycleError("pivot cycle has unlimited headroom; cost is unbounded")
        if len(blocking) == 1:
            leaving_pos = blocking[0]
        elif strongly_feasible:
            # the last blocker met walking from the apex (the common
            # ancestor, where the descent starts) along the cycle
            apex = (1 + len(climb)) % len(cycle)
            before = [pos for pos in blocking if pos < apex]
            leaving_pos = before[-1] if before else blocking[-1]
        else:
            leaving_pos = min(blocking, key=lambda pos: (rank[cycle[pos][0]], cycle[pos][0]))
        leaving, leaving_fwd = cycle[leaving_pos]

        if delta:
            for e, fwd in cycle:
                if fwd:
                    flow[e] += delta
                else:
                    flow[e] -= delta

        if leaving == entering:
            # bounced straight back out at its other bound; the tree and
            # the potentials stay, so only this edge's price changes
            state[entering] = -state[entering]
            mags[entering] = -best
        else:
            state[entering] = 0
            # a forward-traversed blocker filled up, a backward one drained
            state[leaving] = -1 if leaving_fwd else 1
            # the leaving edge cuts off the subtree of its lower end; the
            # entering end inside it is the one whose climb holds the
            # leaving edge
            cut = tail[leaving] if parent_edge[tail[leaving]] == leaving else head[leaving]
            inner, outer = (first, last) if leaving_pos <= len(climb) else (last, first)
            if inner == a:
                shift = pot[b] + cost[entering] - pot[a]
            else:
                shift = pot[a] - cost[entering] - pot[b]
            # re-hang the cut-off subtree from the entering edge by
            # reversing the parent pointers from inner up to cut
            children[parent[cut]].remove(cut)
            x, above, above_edge = inner, outer, entering
            while True:
                next_x, next_edge = parent[x], parent_edge[x]
                parent[x], parent_edge[x] = above, above_edge
                up_step[x] = (above_edge, tail[above_edge] == x)
                down_step[x] = (above_edge, head[above_edge] == x)
                children[above].append(x)
                if x == cut:
                    break
                children[next_x].remove(x)
                x, above, above_edge = next_x, x, next_edge
            # one walk over the subtree fixes its depths and potentials
            depth[inner] = depth[outer] + 1
            stack = [inner]
            while stack:
                x = stack.pop()
                pot[x] += shift
                below = depth[x] + 1
                for y in children[x]:
                    depth[y] = below
                    stack.append(y)
            mags = ranked = None

        pivots.append((entering, leaving, delta, rc, cycle))
    return close("optimal")


def basic_structure_from_flow(net: FlowNetwork, flow: Flow) -> tuple[SpanningTreeStructure, Flow]:
    """Turn a feasible flow into a tree structure inducing it, rooted
    at node 0.

    Cycles made of edges strictly between their bounds are pushed flat
    (choosing the direction that does not increase cost) until the
    strictly-interior edges form a forest; that forest is extended to a
    spanning tree and the remaining edges land in the lower or upper
    set according to their value.  A flow that breaks conservation
    raises ``InfeasibleError``, and one outside its bounds
    ``CapacityViolation``, as MMCC's start from a stored flow does.

    The pushes run on the flow's residual arcs, in integers.  The flow
    ``initial_feasible_flow(net)`` returns is recognised by identity
    (``_Start.arcs_at``): its arcs are the start's, already checked and
    shared by every realization of one smoothed instance.
    """
    res = net._start.arcs_at(net, flow)
    m, room = net.edge_count, res.room
    pushed = False
    while True:
        # free: some flow, and room below an upper bound or no bound
        free = [e for e in range(m) if room[2 * e + 1] and room[2 * e] != 0]
        cycle = _free_cycle(net, free)
        if cycle is None:
            break
        # the cycle's arcs, pushed the way that does not raise the cost
        arcs = [2 * e if fwd else 2 * e + 1 for e, fwd in cycle]
        cost = res.cost
        total = sum(cost[a] for a in arcs)
        if total > 0:
            arcs = [a ^ 1 for a in arcs]
        bounded = [room[a] for a in arcs if room[a] is not None]
        if not bounded:
            if total:
                raise UnboundedCycleError("free cycle with negative cost and no cap")
            # the other way every arc is backward, with the flow as room
            arcs = [a ^ 1 for a in arcs]
            bounded = [room[a] for a in arcs]
        res.push(arcs, min(bounded))
        pushed = True

    sets = _DisjointSets(net.node_count)
    tree = []
    free_set = set(free)
    for idx in free + [e for e in range(m) if e not in free_set]:
        e = net.edges[idx]
        if sets.union(e.tail, e.head):
            tree.append(idx)
    if len(tree) != net.node_count - 1:
        raise InfeasibleStructureError(
            "network is not weakly connected; no spanning tree exists"
        )
    tree_set = frozenset(tree)
    # off the tree every edge is at a bound: no flow, or no room left
    lower = frozenset(e for e in range(m) if e not in tree_set and not room[2 * e + 1])
    upper = frozenset(range(m)).difference(tree_set, lower)
    return SpanningTreeStructure(tree_set, lower, upper), res.flow() if pushed else flow


def _free_cycle(net, free_ids):
    """Some undirected cycle among the given edges, or None.

    Returned as (edge id, forward) steps forming a directed traversal.
    """
    adj: dict[int, list[tuple[int, int]]] = {}
    for idx in free_ids:
        e = net.edges[idx]
        adj.setdefault(e.tail, []).append((idx, e.head))
        adj.setdefault(e.head, []).append((idx, e.tail))
    # depth-first search with an explicit stack of neighbour iterators,
    # so long interior cycles cannot exhaust the interpreter's recursion
    state: dict[int, int] = {}
    parent: dict[int, Optional[tuple[int, int]]] = {}
    for start in adj:
        if state.get(start, 0) != 0:
            continue
        parent[start] = None
        state[start] = 1
        stack = [(start, iter(adj[start]))]
        while stack:
            v, neighbours = stack[-1]
            for idx, w in neighbours:
                if parent[v] is not None and parent[v][1] == idx:
                    continue
                seen = state.get(w, 0)
                if seen == 1:
                    # back edge closes a cycle through the parent chain
                    steps = [(idx, net.edges[idx].tail == v)]
                    node = v
                    while node != w:
                        prev, pidx = parent[node]
                        steps.append((pidx, net.edges[pidx].head == node))
                        node = prev
                    steps.reverse()
                    return steps
                if seen == 0:
                    parent[w] = (v, idx)
                    state[w] = 1
                    stack.append((w, iter(adj[w])))
                    break
            else:
                state[v] = 2
                stack.pop()
    return None
