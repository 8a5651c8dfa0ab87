"""Minimum-mean cycle search over residual networks.

``karp_min_mean`` runs Karp's dynamic program over walk lengths and is
the production routine.  ``brute_force_min_mean`` enumerates every
simple cycle and exists purely as an oracle for testing; it refuses
graphs above a node limit unless told otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Optional

from .core import Cycle, FlowLabError, ResidualEdge, ResidualNetwork, _scaled

__all__ = [
    "GraphTooLargeError",
    "karp_min_mean",
    "brute_force_min_mean",
    "enumerate_simple_cycles",
    "walk_cost_table",
]

BRUTE_FORCE_NODE_LIMIT = 12


class GraphTooLargeError(FlowLabError):
    """Brute-force enumeration refused: too many nodes for the guard."""


def walk_cost_table(r: ResidualNetwork, levels: Optional[int] = None):
    """Cheapest-walk table D where D[k][v] is the minimum cost of a
    walk with exactly k edges ending at v, over walks starting anywhere.

    Row 0 is all zeros (the empty walk at each node); unreachable
    entries are ``None``.  By default the table has node-count + 1 rows,
    which is what the minimum-mean formula needs.
    """
    n = r.node_count
    if levels is None:
        levels = n
    table = [[Fraction(0)] * n]
    for _ in range(levels):
        prev = table[-1]
        row: list[Optional[Fraction]] = [None] * n
        for e in r.edges:
            base = prev[e.tail]
            if base is None:
                continue
            candidate = base + e.cost
            if row[e.head] is None or candidate < row[e.head]:
                row[e.head] = candidate
        table.append(row)
    return table


def karp_min_mean(r: ResidualNetwork) -> Optional[Cycle]:
    """A cycle of minimum mean cost, or ``None`` if the graph is acyclic.

    The minimum mean equals min over nodes v of max over walk lengths k
    of (D[n][v] - D[k][v]) / (n - k), taken over finite table entries.
    The witness cycle is recovered by walking predecessor links back
    from the minimizing node and cutting at the first repeated node;
    ties in predecessor choice go to the lowest residual-edge index, and
    ties between nodes to the lowest node index.

    Costs are scaled to a common integer denominator internally so the
    inner loops run on machine integers; results are exact Fractions.
    """
    n = r.node_count
    if n == 0 or not r.edges:
        return None
    scale = math.lcm(*(e.cost.denominator for e in r.edges))
    int_costs = [_scaled(e.cost, scale) for e in r.edges]

    table: list[list[Optional[int]]] = [[0] * n]
    preds: list[list[Optional[ResidualEdge]]] = [[None] * n]
    for _ in range(n):
        prev = table[-1]
        row: list[Optional[int]] = [None] * n
        pred_row: list[Optional[ResidualEdge]] = [None] * n
        for idx, e in enumerate(r.edges):
            base = prev[e.tail]
            if base is None:
                continue
            candidate = base + int_costs[idx]
            seen = row[e.head]
            if seen is None or candidate < seen:
                row[e.head] = candidate
                pred_row[e.head] = e
        table.append(row)
        preds.append(pred_row)

    last = table[n]
    best_num = best_den = None
    best_node = None
    for v in range(n):
        final = last[v]
        if final is None:
            continue
        worst_num = worst_den = None
        for k in range(n):
            entry = table[k][v]
            if entry is None:
                continue
            num, den = final - entry, n - k
            if worst_num is None or num * worst_den > worst_num * den:
                worst_num, worst_den = num, den
        if best_num is None or worst_num * best_den < best_num * worst_den:
            best_num, best_den, best_node = worst_num, worst_den, v
    if best_node is None:
        return None
    min_mean = Fraction(best_num, best_den * scale)

    # Recover the length-n walk into the minimizing node, then cut out
    # the first cycle met while scanning it from the end.
    walk_nodes: list[Optional[int]] = [None] * (n + 1)
    walk_edges: list[Optional[ResidualEdge]] = [None] * (n + 1)
    walk_nodes[n] = best_node
    for k in range(n, 0, -1):
        e = preds[k][walk_nodes[k]]
        walk_edges[k] = e
        walk_nodes[k - 1] = e.tail
    seen_at: dict[int, int] = {}
    cycle_edges = None
    for k in range(n, -1, -1):
        node = walk_nodes[k]
        if node in seen_at:
            cycle_edges = [walk_edges[i] for i in range(k + 1, seen_at[node] + 1)]
            break
        seen_at[node] = k
    cycle = Cycle.from_edges(cycle_edges)
    if cycle.mean_cost != min_mean:
        raise FlowLabError(
            "internal error: extracted cycle mean %s differs from minimum %s"
            % (cycle.mean_cost, min_mean)
        )
    return cycle


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
