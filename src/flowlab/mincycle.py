"""Minimum-mean cycle search over residual networks.

``karp_min_mean`` runs Karp's dynamic program over walk lengths.
Karp's table (``_walk_table``), its min-max step and the cycle cut
(``_min_mean_cycle``) are private routines on flat integer arcs;
``karp_min_mean`` and the cycle-canceling solver both search with
``_min_mean_cycle``, so there is one dynamic program to maintain.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import sub, truediv
from typing import Optional

from .core import Cycle, FlowLabError, ResidualNetwork, _scaled

__all__ = ["karp_min_mean"]

# integers below this in magnitude are exact as floats, and so are their
# sums and differences while those stay below it too
_FLOAT_EXACT = 2**53


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
