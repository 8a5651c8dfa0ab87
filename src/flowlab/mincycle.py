"""Minimum-mean cycle search over residual networks.

``karp_min_mean`` runs Karp's dynamic program over walk lengths and is
the production routine.  ``brute_force_min_mean`` enumerates every
simple cycle and exists purely as an oracle for testing; it refuses
graphs above a node limit unless told otherwise.

Karp's table (``_walk_table``), its min-max step and the cycle cut
(``_min_mean_cycle``) are private routines on flat integer arcs.
``karp_min_mean`` and the cycle-canceling solver both search with
``_min_mean_cycle``, and ``walk_cost_table`` is ``_walk_table`` divided
back to rationals, so there is one dynamic program to maintain.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import sub, truediv
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

# integers below this in magnitude are exact as floats, and so are their
# sums and differences while those stay below it too
_FLOAT_EXACT = 2**53


class GraphTooLargeError(FlowLabError):
    """Brute-force enumeration refused: too many nodes for the guard."""


def _walk_table(n: int, arcs, levels: int, far) -> list[list]:
    """Karp's table over arcs ``(tail, head, cost)`` whose costs are
    integers, held as ``int`` or ``float``: row k holds, for each node,
    the least cost of a walk of exactly k arcs ending there, from any
    start.  Row 0 is all zeros, the empty walks.

    Rows start at ``far``.  Every real entry lies within ``levels * top``
    of 0, where ``top`` is the largest cost magnitude, and an entry with
    no walk behind it stays within that distance below ``far``; so with
    ``far > 2 * levels * top`` the two never mix, and an entry above
    ``levels * top`` means there is no walk.
    """
    prev: list = [0] * n
    table = [prev]
    for _ in range(levels):
        row: list = [far] * n
        for t, h, c in arcs:
            candidate = prev[t] + c
            if candidate < row[h]:
                row[h] = candidate
        table.append(row)
        prev = row
    return table


def _min_mean_cycle(n: int, arcs) -> Optional[tuple[list[int], int, int]]:
    """Karp's minimum-mean cycle over integer arcs ``(tail, head, cost)``.

    Returns the positions in ``arcs`` of the cycle's arcs in walk order
    and the minimum mean as a pair (num, den) with den > 0, or ``None``
    when the graph is acyclic.  The minimum mean is min over nodes v of
    max over k < n of (D[n][v] - D[k][v]) / (n - k), over the entries
    with a walk behind them; ties between nodes go to the lowest node.
    The witness is ``_cycle_cut`` of the length-n walk into that node,
    so ties between arcs go to the lowest residual-edge index.
    """
    if n == 0 or not arcs:
        return None
    top = max(abs(c) for _, _, c in arcs)
    limit = n * top
    # A missing entry D[k][v] gives a quotient far below the one at
    # k = 0, which is at least -top, so it never attains a maximum.
    far = 8 * (n + 1) ** 2 * (top + 1)
    if 2 * limit < _FLOAT_EXACT:
        # floats hold every real entry and every difference of two
        # exactly, and add them faster than integers
        table = _walk_table(n, [(t, h, float(c)) for t, h, c in arcs], n, float(far))
    else:
        table = _walk_table(n, arcs, n, far)
    # Division rounds correctly to the nearest float, and rounding keeps
    # order up to ties, so quotients are compared as floats while they
    # fit in one, and exactly only where the floats tie.
    divide = truediv if far.bit_length() < 1000 else Fraction
    last = table[n]
    quotients = [
        list(map(divide, map(sub, last, row), repeat(n - k, n)))
        for k, row in enumerate(table[:n])
    ]
    worst = list(map(max, zip(*quotients)))
    ends = [v for v in range(n) if last[v] <= limit]
    if not ends:
        return None
    least = min(worst[v] for v in ends)
    best_num = best_den = best_node = None
    for v in ends:
        if worst[v] != least:
            continue
        num = den = None
        for k in range(n):
            if quotients[k][v] == least:
                diff = int(last[v] - table[k][v])
                if num is None or diff * den > num * (n - k):
                    num, den = diff, n - k
        if best_node is None or num * best_den < best_num * den:
            best_num, best_den, best_node = num, den, v

    positions = _cycle_cut(n, arcs, table, best_node)
    total = sum(arcs[i][2] for i in positions)
    if total * best_den != best_num * len(positions):
        raise FlowLabError(
            "internal error: extracted cycle mean %s differs from minimum %s"
            % (Fraction(total, len(positions)), Fraction(best_num, best_den))
        )
    return positions, best_num, best_den


def _cycle_cut(n: int, arcs, table, end: int) -> list[int]:
    """The first cycle met reading the length-n walk into ``end`` back
    from its end, as positions in ``arcs`` in walk order.  Each step of
    the walk is the lowest-positioned arc that attains its table entry,
    the one a scan in position order that keeps only strict
    improvements would have recorded."""
    into: list[list[int]] = [[] for _ in range(n)]
    for i, (_, h, _) in enumerate(arcs):
        into[h].append(i)
    # n + 1 nodes on n of them: some node repeats
    node, k = end, n
    seen_at = {end: n}
    steps: list[int] = []
    while True:
        want, prev = table[k][node], table[k - 1]
        for i in into[node]:
            t, _, c = arcs[i]
            if prev[t] + c == want:
                break
        steps.append(i)
        node, k = t, k - 1
        if node in seen_at:
            # steps run backwards from the walk's end, so the cycle is
            # the last ``seen_at[node] - k`` of them, reversed
            return steps[len(steps) - (seen_at[node] - k):][::-1]
        seen_at[node] = k


def _scaled_arcs(r: ResidualNetwork) -> tuple[list[tuple[int, int, int]], int]:
    """The residual edges as integer arcs ``(tail, head, cost)``, with
    costs scaled by their common denominator, and that scale."""
    scale = math.lcm(*(e.cost.denominator for e in r.edges))
    return [(e.tail, e.head, _scaled(e.cost, scale)) for e in r.edges], scale


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


def karp_min_mean(r: ResidualNetwork) -> Optional[Cycle]:
    """A cycle of minimum mean cost, or ``None`` if the graph is acyclic.

    Karp's dynamic program over walk lengths, on costs scaled to a
    common integer denominator; see ``_min_mean_cycle`` for the formula
    and the tie-breaks.  The cycle is made of ``r``'s own edges.
    """
    arcs, _ = _scaled_arcs(r)
    found = _min_mean_cycle(r.node_count, arcs)
    if found is None:
        return None
    positions, _, _ = found
    return Cycle.from_edges([r.edges[i] for i in positions])


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
