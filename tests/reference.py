"""The ``Fraction`` reference loops that the solver kernels replay.

Each flowlab solver runs one integer kernel, and the tests compare it
step for step with a loop here: ``reference_solve`` (``entering_edge``
and ``pivot``), ``reference_ssp`` (``cheapest_path`` over
``residual``), ``reference_mmcc`` (``karp_min_mean`` over ``residual``
and ``augment_cycle``), ``reference_karp``,
``reference_verify_optimality``, ``reference_check_feasible`` and
``reference_basic_structure`` (free cycles pushed flat in ``Fraction``
values).  The other oracles the tests use live here too:
``walk_cost_table`` (Karp's table back in rationals), the exhaustive
``brute_force_min_mean`` over ``enumerate_simple_cycles``, and
``nondegenerate_cycle_paths``, which carves paths out of an NS trace.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from flowlab.core import (
    Cycle,
    EmptyCycleError,
    Flow,
    FlowLabError,
    FlowNetwork,
    InfeasibleError,
    ResidualEdge,
    ResidualNetwork,
    UnboundedCycleError,
    Violation,
    _DisjointSets,
    residual,
    verify_optimality,
)
from flowlab.mincycle import _scaled_arcs, _walk_table, karp_min_mean
from flowlab.mmcc import MmccIteration, initial_feasible_flow
from flowlab.netsimplex import (
    InfeasibleStructureError,
    NsPivot,
    NsTrace,
    SpanningTreeStructure,
    _free_cycle,
    _hang,
    compute_potentials,
    tree_flow,
)
from flowlab.ssp import NegativeCycleError, SspStep


def _tree_adjacency(net: FlowNetwork, tree_edges):
    adj: list[list[tuple[int, int]]] = [[] for _ in range(net.node_count)]
    for idx in tree_edges:
        e = net.edges[idx]
        adj[e.tail].append((idx, e.head))
        adj[e.head].append((idx, e.tail))
    return adj


def reduced_cost(net: FlowNetwork, potentials, edge_id: int) -> Fraction:
    e = net.edges[edge_id]
    return e.cost - potentials[e.tail] + potentials[e.head]


def entering_edge(net: FlowNetwork, s: SpanningTreeStructure) -> Optional[int]:
    """The violating off-tree edge with the largest absolute reduced
    cost, ties to the lowest edge id; ``None`` when the structure is
    optimal.

    Lower edges violate with negative reduced cost, upper edges with
    positive reduced cost.
    """
    pot = compute_potentials(net, s)
    best_id: Optional[int] = None
    best_mag: Optional[Fraction] = None
    for idx in range(net.edge_count):
        if idx in s.lower:
            rc = reduced_cost(net, pot, idx)
            if rc >= 0:
                continue
            mag = -rc
        elif idx in s.upper:
            rc = reduced_cost(net, pot, idx)
            if rc <= 0:
                continue
            mag = rc
        else:
            continue
        if best_mag is None or mag > best_mag:
            best_mag = mag
            best_id = idx
    return best_id


def _tree_path(net: FlowNetwork, adj, start: int, goal: int):
    """Tree path as (edge id, traversed-forward) steps from start to goal."""
    parent: dict[int, Optional[tuple[int, int]]] = {start: None}
    queue = deque([start])
    while queue and goal not in parent:
        v = queue.popleft()
        for idx, w in adj[v]:
            if w not in parent:
                parent[w] = (v, idx)
                queue.append(w)
    if goal not in parent:
        raise InfeasibleStructureError("tree edges do not connect the pivot endpoints")
    steps = []
    node = goal
    while parent[node] is not None:
        prev, idx = parent[node]
        steps.append((idx, net.edges[idx].tail == prev))
        node = prev
    steps.reverse()
    return steps


def pivot(
    net: FlowNetwork,
    s: SpanningTreeStructure,
    entering: int,
    flow: Optional[Flow] = None,
    *,
    strongly_feasible: bool = False,
) -> tuple[NsPivot, SpanningTreeStructure, Flow]:
    """Execute one pivot on ``entering``: the pivot as ``ns_solve``
    records it, the new structure and the new flow.

    The cycle is the entering edge plus the tree path between its
    endpoints, traversed in the direction that increases a lower
    entering edge and decreases an upper one.  The pushed amount is the
    smallest headroom on the cycle; whichever blocking edge the leaving
    rule picks swaps places with the entering edge.

    The default leaving rule takes the blocking edge of minimum
    ``leaving_rank``, ties to the lowest edge id.  With
    ``strongly_feasible`` the rule instead takes the last blocking edge
    met when walking the cycle from its apex (the path node nearest the
    root) along the augmentation direction, which is the classic
    anti-cycling choice and overrides the ranks.
    """
    if flow is None:
        flow = tree_flow(net, s)
    pot = compute_potentials(net, s)
    ent = net.edges[entering]
    rc = ent.cost - pot[ent.tail] + pot[ent.head]
    adj = _tree_adjacency(net, s.tree_edges)
    if entering in s.lower:
        cycle = [(entering, True)] + _tree_path(net, adj, ent.head, ent.tail)
    elif entering in s.upper:
        cycle = [(entering, False)] + _tree_path(net, adj, ent.tail, ent.head)
    else:
        raise ValueError("entering edge %d is already in the tree" % entering)

    rooms: list[Optional[Fraction]] = []
    delta: Optional[Fraction] = None
    for idx, fwd in cycle:
        edge = net.edges[idx]
        if fwd:
            room = None if edge.capacity is None else edge.capacity - flow[idx]
        else:
            room = flow[idx]
        rooms.append(room)
        if room is not None and (delta is None or room < delta):
            delta = room
    if delta is None:
        raise UnboundedCycleError("pivot cycle has unlimited headroom; cost is unbounded")

    blocking = [pos for pos, room in enumerate(rooms) if room == delta]
    if strongly_feasible:
        tails = [e.tail for e in net.edges]
        heads = [e.head for e in net.edges]
        order, parent, _ = _hang(net.node_count, tails, heads, s.tree_edges, s.root)
        depth = [0] * net.node_count
        for v in order[1:]:
            depth[v] = depth[parent[v]] + 1
        starts = [net.edges[idx].tail if fwd else net.edges[idx].head for idx, fwd in cycle]
        apex_pos = min(range(len(cycle)), key=lambda i: depth[starts[i]])
        rotation = list(range(apex_pos, len(cycle))) + list(range(apex_pos))
        blocking_set = set(blocking)
        leaving_pos = [pos for pos in rotation if pos in blocking_set][-1]
    else:
        leaving_pos = min(
            blocking, key=lambda pos: (net.edges[cycle[pos][0]].leaving_rank, cycle[pos][0])
        )
    leaving, leaving_fwd = cycle[leaving_pos]

    if delta != 0:
        new_values = list(flow.values)
        for idx, fwd in cycle:
            if fwd:
                new_values[idx] += delta
            else:
                new_values[idx] -= delta
        new_flow = Flow(tuple(new_values))
    else:
        new_flow = flow

    lower = set(s.lower)
    upper = set(s.upper)
    lower.discard(entering)
    upper.discard(entering)
    if leaving == entering:
        # bounced straight back out at its other bound
        if cycle[0][1]:
            upper.add(entering)
        else:
            lower.add(entering)
        new_structure = SpanningTreeStructure(
            tree_edges=s.tree_edges,
            lower=frozenset(lower),
            upper=frozenset(upper),
            root=s.root,
        )
    else:
        tree = set(s.tree_edges)
        tree.remove(leaving)
        tree.add(entering)
        # a forward-traversed blocker filled up, a backward one drained
        if leaving_fwd:
            upper.add(leaving)
        else:
            lower.add(leaving)
        new_structure = SpanningTreeStructure(
            tree_edges=frozenset(tree),
            lower=frozenset(lower),
            upper=frozenset(upper),
            root=s.root,
        )

    step = NsPivot(
        entering=entering,
        leaving=leaving,
        amount=delta,
        degenerate=(delta == 0),
        entering_reduced_cost=rc,
        cycle=tuple(cycle),
    )
    return step, new_structure, new_flow


def reference_solve(net, structure, limit=None, **options):
    """``ns_solve`` spelled out as a loop of ``entering_edge`` and
    ``pivot``: the pivots, the final flow and the final structure.

    Both steps recompute the potentials from the tree they are given,
    so a replay compares the kernel's incremental update with a full
    recomputation at every pivot."""
    flow = tree_flow(net, structure)
    pivots = []
    while limit is None or len(pivots) < limit:
        entering = entering_edge(net, structure)
        if entering is None:
            break
        step, structure, flow = pivot(net, structure, entering, flow, **options)
        pivots.append(step)
    return pivots, flow, structure


def nondegenerate_cycle_paths(
    net: FlowNetwork, trace: NsTrace, skip_nodes: Iterable[int] = ()
) -> list[tuple[tuple[int, ...], Fraction]]:
    """Directed node paths carved out of the non-degenerate pivot cycles.

    Arcs touching ``skip_nodes`` are dropped; the rest of each cycle
    must chain into a single path, which is returned with the pivot's
    augmentation amount.  With no skipped nodes the "path" is the full
    cycle starting at the entering edge's tail.
    """
    skip = set(skip_nodes)
    out = []
    for p in trace.pivots:
        if p.degenerate:
            continue
        arcs = []
        for idx, fwd in p.cycle:
            e = net.edges[idx]
            a, b = (e.tail, e.head) if fwd else (e.head, e.tail)
            if a in skip or b in skip:
                continue
            arcs.append((a, b))
        if not arcs:
            raise ValueError("pivot cycle vanished entirely after skipping nodes")
        successor = dict(arcs)
        if len(successor) != len(arcs):
            raise ValueError("pivot cycle arcs do not form a simple chain")
        heads = {b for _, b in arcs}
        start_candidates = [a for a, _ in arcs if a not in heads]
        if not start_candidates:
            start = arcs[0][0]  # unbroken cycle
        elif len(start_candidates) == 1:
            start = start_candidates[0]
        else:
            raise ValueError("pivot cycle splits into several chains after skipping nodes")
        path = [start]
        node = start
        for _ in range(len(arcs)):
            node = successor[node]
            path.append(node)
            if node == start:
                break
        if len(path) != len(arcs) + 1:
            raise ValueError("pivot cycle arcs do not chain into one path")
        out.append((tuple(path), p.amount))
    return out


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


def reference_ssp(net, source, sink, demand, limit=None):
    """``ssp_solve`` spelled out as a loop of ``residual`` and
    ``cheapest_path``: the steps and the flow after them.  A negative
    cycle in the residual network of the zero flow raises
    ``NegativeCycleError`` first, whatever the demand."""
    if verify_optimality(net, Flow.zero(net.edge_count)) is not None:
        raise NegativeCycleError("path costs keep dropping; negative residual cycle")
    demand = Fraction(demand)
    values = [Fraction(0)] * net.edge_count
    steps = []
    remaining = demand
    while remaining > 0 and (limit is None or len(steps) < limit):
        path = cheapest_path(residual(net, Flow(tuple(values))), source, sink)
        if path is None:
            raise InfeasibleError(
                "no residual path left with %s of %s still to ship" % (remaining, demand)
            )
        rooms = [e.capacity for e in path if e.capacity is not None]
        amount = min(rooms + [remaining])
        for e in path:
            values[e.edge_id] += amount if e.forward else -amount
        nodes = (source,) + tuple(e.head for e in path)
        cost = sum((e.cost for e in path), Fraction(0))
        steps.append(SspStep(path=nodes, cost=cost, amount=amount))
        remaining -= amount
    return steps, Flow(tuple(values))


class ZeroResidualCapacityError(FlowLabError):
    """A cycle edge has no residual capacity under the current flow."""


def augment_cycle(net: FlowNetwork, flow: Flow, cycle: Cycle) -> tuple[Flow, Fraction]:
    """Push the maximum possible amount around ``cycle``.

    The amount is the minimum residual capacity over the cycle edges,
    recomputed from ``flow`` rather than trusted from the cycle object.
    Returns the new flow and the amount pushed.
    """
    if len(cycle.edges) == 0:
        raise EmptyCycleError("cannot augment along an empty cycle")
    delta: Optional[Fraction] = None
    for re in cycle.edges:
        e = net.edges[re.edge_id]
        f = flow[re.edge_id]
        if re.forward:
            headroom = None if e.capacity is None else e.capacity - f
        else:
            headroom = f
        if headroom is not None and headroom <= 0:
            raise ZeroResidualCapacityError(
                "cycle edge over network edge %d has no residual capacity" % re.edge_id
            )
        if headroom is not None and (delta is None or headroom < delta):
            delta = headroom
    if delta is None:
        raise UnboundedCycleError("every cycle edge is uncapacitated; cost is unbounded")
    values = list(flow.values)
    for re in cycle.edges:
        if re.forward:
            values[re.edge_id] += delta
        else:
            values[re.edge_id] -= delta
    return Flow(tuple(values)), delta


def reference_mmcc(net, flow, limit=None):
    """``mmcc_solve`` spelled out as a loop of ``karp_min_mean`` over
    ``residual`` and ``augment_cycle``: the iterations and the flow
    after them."""
    iterations = []
    while limit is None or len(iterations) < limit:
        cycle = karp_min_mean(residual(net, flow))
        if cycle is None or cycle.mean_cost >= 0:
            break
        flow, amount = augment_cycle(net, flow, cycle)
        iterations.append(MmccIteration(cycle=cycle, mean_cost=cycle.mean_cost, amount=amount))
    return iterations, flow


def reference_run(net):
    return reference_mmcc(net, initial_feasible_flow(net))


def reference_karp(r):
    """Karp's table over ``Fraction`` costs with a predecessor link per
    entry, ties to the lowest residual-edge index and then the lowest
    node: the cycle, or None."""
    n = r.node_count
    if n == 0 or not r.edges:
        return None
    table = [[Fraction(0)] * n]
    preds = [[None] * n]
    for _ in range(n):
        prev, row, pred_row = table[-1], [None] * n, [None] * n
        for e in r.edges:
            if prev[e.tail] is None:
                continue
            candidate = prev[e.tail] + e.cost
            if row[e.head] is None or candidate < row[e.head]:
                row[e.head], pred_row[e.head] = candidate, e
        table.append(row)
        preds.append(pred_row)
    best = best_node = None
    for v in range(n):
        if table[n][v] is None:
            continue
        worst = max(
            (table[n][v] - table[k][v]) / (n - k) for k in range(n) if table[k][v] is not None
        )
        if best is None or worst < best:
            best, best_node = worst, v
    if best_node is None:
        return None
    walk, node = [], best_node
    for k in range(n, 0, -1):
        walk.append(preds[k][node])
        node = walk[-1].tail
    # walk runs backwards from the end; cut at the first repeated node
    seen_at = {best_node: 0}
    for i, e in enumerate(walk):
        if e.tail in seen_at:
            return Cycle.from_edges(walk[seen_at[e.tail]:i + 1][::-1])
        seen_at[e.tail] = i + 1


BRUTE_FORCE_NODE_LIMIT = 12


class GraphTooLargeError(FlowLabError):
    """Brute-force enumeration refused: too many nodes for the guard."""


def walk_cost_table(r: ResidualNetwork):
    """Cheapest-walk table D where D[k][v] is the minimum cost of a
    walk with exactly k edges ending at v, over walks starting anywhere.

    Row 0 is all zeros (the empty walk at each node); unreachable
    entries are ``None``.  The table has node-count + 1 rows, which is
    what the minimum-mean formula needs.  It is the table
    ``karp_min_mean`` computes, with entries divided back by the scale.
    """
    levels = r.node_count
    arcs, scale = _scaled_arcs(r)
    limit = levels * max((abs(c) for _, _, c in arcs), default=0)
    return [
        [None if d > limit else Fraction(d, scale) for d in row]
        for row in _walk_table(r.node_count, arcs, levels, 2 * limit + 1)
    ]


def enumerate_simple_cycles(r: ResidualNetwork) -> Iterator[tuple[ResidualEdge, ...]]:
    """Yield every simple cycle exactly once.

    Each cycle is reported starting at its smallest node; the search
    from a given start only visits larger nodes, the standard trick to
    avoid duplicates.
    """
    out: dict[int, list[ResidualEdge]] = {}
    for e in r.edges:
        out.setdefault(e.tail, []).append(e)

    def extend(start: int, node: int, path: list[ResidualEdge], on_path: set[int]):
        for e in out.get(node, ()):
            w = e.head
            if w == start:
                yield tuple(path + [e])
            elif w > start and w not in on_path:
                on_path.add(w)
                path.append(e)
                yield from extend(start, w, path, on_path)
                path.pop()
                on_path.remove(w)

    for start in range(r.node_count):
        yield from extend(start, start, [], {start})


def brute_force_min_mean(
    r: ResidualNetwork, *, node_limit: int = BRUTE_FORCE_NODE_LIMIT
) -> Optional[Cycle]:
    """Exhaustive minimum-mean cycle, usable as an oracle on small graphs.

    Raises ``GraphTooLargeError`` above ``node_limit`` nodes; callers
    who know their graph is sparse enough may raise the limit.
    """
    if r.node_count > node_limit:
        raise GraphTooLargeError(
            "%d nodes exceeds the brute-force limit of %d" % (r.node_count, node_limit)
        )
    best: Optional[Cycle] = None
    for edges in enumerate_simple_cycles(r):
        cycle = Cycle.from_edges(edges)
        if best is None or cycle.mean_cost < best.mean_cost:
            best = cycle
    return best


def reference_verify_optimality(net, flow):
    """``verify_optimality`` as it was over ``Fraction`` labels on the
    built residual network: the reference for the integer version."""
    r = residual(net, flow)
    n = r.node_count
    if n == 0:
        return None
    dist = [Fraction(0)] * n
    pred: list[Optional[ResidualEdge]] = [None] * n
    touched = None
    for _ in range(n):
        changed = False
        for e in r.edges:
            candidate = dist[e.tail] + e.cost
            if candidate < dist[e.head]:
                dist[e.head] = candidate
                pred[e.head] = e
                changed = True
                touched = e.head
        if not changed:
            return None
    node = touched
    for _ in range(n):
        node = pred[node].tail
    edges = []
    cursor = node
    while True:
        e = pred[cursor]
        edges.append(e)
        cursor = e.tail
        if cursor == node:
            break
    edges.reverse()
    witness = Cycle.from_edges(edges)
    if witness.total_cost >= 0:
        raise FlowLabError("internal error: witness cycle is not negative")
    return witness


def reference_check_feasible(net: FlowNetwork, flow: Flow) -> Optional[Violation]:
    """``check_feasible`` as it was over ``Fraction`` compares and
    balances: the reference for the scaled-integer version."""
    if len(flow) != net.edge_count:
        raise ValueError("flow has %d values for %d edges" % (len(flow), net.edge_count))
    for idx, e in enumerate(net.edges):
        f = flow[idx]
        if f < 0 or (e.capacity is not None and f > e.capacity):
            return Violation("capacity", "edge %d carries %s" % (idx, f))
    balance = list(net.budgets)
    for idx, e in enumerate(net.edges):
        f = flow[idx]
        balance[e.tail] -= f
        balance[e.head] += f
    for v in range(net.node_count):
        if balance[v] != 0:
            return Violation(
                "conservation",
                "node %s is off by %s" % (net.name_of(v), balance[v]),
            )
    return None


def reference_basic_structure(net: FlowNetwork, flow: Flow) -> tuple[SpanningTreeStructure, Flow]:
    """``basic_structure_from_flow`` as it was over ``Fraction`` values:
    free cycles, found by the same ``_free_cycle``, are pushed flat the
    way that does not raise the cost, by the least headroom; the reference
    for the integer version on feasible flows."""
    values = list(flow.values)

    def is_free(idx):
        cap = net.edges[idx].capacity
        return values[idx] > 0 and (cap is None or values[idx] < cap)

    def headroom(cycle):
        delta = None
        for idx, fwd in cycle:
            cap = net.edges[idx].capacity
            room = (None if cap is None else cap - values[idx]) if fwd else values[idx]
            if room is not None and (delta is None or room < delta):
                delta = room
        return delta

    while True:
        cycle = _free_cycle(net, [idx for idx in range(net.edge_count) if is_free(idx)])
        if cycle is None:
            break
        cost = sum(
            (net.edges[idx].cost if fwd else -net.edges[idx].cost for idx, fwd in cycle),
            Fraction(0),
        )
        if cost > 0:
            cycle = [(idx, not fwd) for idx, fwd in cycle]
            cost = -cost
        delta = headroom(cycle)
        if delta is None:
            if cost < 0:
                raise UnboundedCycleError("free cycle with negative cost and no cap")
            cycle = [(idx, not fwd) for idx, fwd in cycle]
            delta = headroom(cycle)
        for idx, fwd in cycle:
            values[idx] += delta if fwd else -delta

    sets = _DisjointSets(net.node_count)
    tree = []
    free_ids = [idx for idx in range(net.edge_count) if is_free(idx)]
    free_set = set(free_ids)
    for idx in free_ids + [i for i in range(net.edge_count) if i not in free_set]:
        e = net.edges[idx]
        if sets.union(e.tail, e.head):
            tree.append(idx)
    if len(tree) != net.node_count - 1:
        raise InfeasibleStructureError("network is not weakly connected; no spanning tree exists")
    tree_set = frozenset(tree)
    lower, upper = set(), set()
    for idx in range(net.edge_count):
        if idx in tree_set:
            continue
        if values[idx] == 0:
            lower.add(idx)
        else:
            cap = net.edges[idx].capacity
            if cap is None or values[idx] != cap:
                raise FlowLabError("internal error: off-tree edge still strictly inside bounds")
            upper.add(idx)
    return SpanningTreeStructure(tree_set, frozenset(lower), frozenset(upper)), Flow(tuple(values))
