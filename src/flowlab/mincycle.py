"""Minimum-mean cycle search over residual networks.

``karp_min_mean`` runs Karp's dynamic program over walk lengths.
Karp's table (``_walk_table``), its min-max step and the cycle cut are
private routines on flat integer arcs, held together by ``_MeanSearch``,
which does the fixed set-up of a search once for a set of arcs and then
searches any subset of them; ``karp_min_mean`` and the cycle-canceling
solver both search with it, so there is one dynamic program to maintain.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import sub, truediv
from typing import Optional, Sequence

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


class _MeanSearch:
    """Karp's minimum-mean cycle over any subset of fixed integer arcs
    ``(tail, head, cost)`` on ``n`` nodes.

    The set-up depends on the arcs only: ``top``, the largest cost
    magnitude, and with it ``limit`` and ``far`` (see ``_walk_table``),
    whether the table is held in floats, the quotients' divisors, and
    the in-arcs of each head.  A bound over all arcs is at least the
    bound over any subset, so floats are chosen only where they are
    exact for every subset, and ``far`` stays above every real entry.
    """

    def __init__(self, n: int, arcs: Sequence[tuple[int, int, int]]):
        self.n, self.arcs = n, arcs
        top = max((abs(c) for _, _, c in arcs), default=0)
        self.limit = n * top
        # A missing entry D[k][v] gives a quotient far below the one at
        # k = 0, which is at least -top, so it never attains a maximum.
        far = 8 * (n + 1) ** 2 * (top + 1)
        # Division rounds correctly to the nearest float, and rounding
        # keeps order up to ties, so quotients are compared as floats
        # while they fit in one, and exactly only where the floats tie.
        self.divide = truediv if far.bit_length() < 1000 else Fraction
        if 2 * self.limit < _FLOAT_EXACT:
            # floats hold every real entry and every difference of two
            # exactly, and add them faster than integers; float divisors
            # give the same correctly rounded quotients
            self.table_arcs = [(t, h, float(c)) for t, h, c in arcs]
            self.far = float(far)
            self.divisors = [float(n - k) for k in range(n)]
        else:
            self.table_arcs, self.far = arcs, far
            self.divisors = [n - k for k in range(n)]
        self.into: list[list[int]] = [[] for _ in range(n)]
        for a, (_, h, _) in enumerate(arcs):
            self.into[h].append(a)

    def __call__(self, present: Sequence[int]) -> Optional[tuple[list[int], int, int]]:
        """The minimum-mean cycle over the arcs ``present``, given in
        ascending order: its arcs in walk order and the minimum mean as
        a pair (num, den) with den > 0, or ``None`` when they are
        acyclic.

        The minimum mean is min over nodes v of max over k < n of
        (D[n][v] - D[k][v]) / (n - k), over the entries with a walk
        behind them; ties between nodes go to the lowest node.  The
        witness is the cycle cut of the length-n walk into that node,
        so ties between arcs go to the lowest arc.
        """
        n = self.n
        if n == 0 or not present:
            return None
        arcs = self.table_arcs
        table = _walk_table(n, [arcs[a] for a in present], n, self.far)
        last = table[n]
        ends = [v for v in range(n) if last[v] <= self.limit]
        if not ends:
            return None
        least, tied = self._least_worst(table, ends)
        best_num = best_den = best_node = None
        for v, column, quotients in tied:
            num = den = None
            end = last[v]
            for k, q in enumerate(quotients):
                if q == least:
                    diff = int(end - column[k])
                    if num is None or diff * den > num * (n - k):
                        num, den = diff, n - k
            if best_node is None or num * best_den < best_num * den:
                best_num, best_den, best_node = num, den, v

        cycle = self._cut(table, best_node, set(present))
        total = sum(self.arcs[a][2] for a in cycle)
        if total * best_den != best_num * len(cycle):
            raise FlowLabError(
                "internal error: extracted cycle mean %s differs from minimum %s"
                % (Fraction(total, len(cycle)), Fraction(best_num, best_den))
            )
        return cycle, best_num, best_den

    def _least_worst(self, table, ends: list[int]):
        """The least, over the nodes ``ends`` in ascending order, of
        ``worst[v]``, the largest of v's quotients, and for each node
        that attains it, in node order, the node, its table column
        ``D[k][v]`` for k < n and its quotients.

        A node whose quotient at one probe k already exceeds the least
        ``worst`` found so far cannot attain it, since ``worst[v]`` is
        at least each of its quotients, and is skipped after that one
        division.  The probe is the k at which the last fully computed
        node that lost attained its maximum.  The test is strict, so a
        node whose ``worst`` ties the least is never skipped.
        """
        n, divide, divisors = self.n, self.divide, self.divisors
        last = table[n]
        columns = list(zip(*table[:n]))
        least = probe = None
        tied: list[tuple[int, tuple, list]] = []
        for v in ends:
            end, column = last[v], columns[v]
            if probe is not None and divide(end - column[probe], divisors[probe]) > least:
                continue
            quotients = list(map(divide, map(sub, repeat(end, n), column), divisors))
            worst = max(quotients)
            if least is None or worst < least:
                least, tied = worst, [(v, column, quotients)]
            elif worst == least:
                tied.append((v, column, quotients))
            else:
                probe = quotients.index(worst)
        return least, tied

    def _cut(self, table, end: int, present: set[int]) -> list[int]:
        """The first cycle met reading the length-n walk into ``end``
        back from its end, as arcs in walk order.  Each step of the walk
        is the lowest present arc that attains its table entry, the one
        a scan in ascending arc order that keeps only strict
        improvements would have recorded."""
        arcs, into = self.table_arcs, self.into
        # n + 1 nodes on n of them: some node repeats
        node, k = end, self.n
        seen_at = {end: k}
        steps: list[int] = []
        while True:
            want, prev = table[k][node], table[k - 1]
            for a in into[node]:
                t, _, c = arcs[a]
                if prev[t] + c == want and a in present:
                    break
            steps.append(a)
            node, k = t, k - 1
            if node in seen_at:
                # steps run backwards from the walk's end, so the cycle
                # is the last ``seen_at[node] - k`` of them, reversed
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
    common integer denominator; see ``_MeanSearch`` for the formula and
    the tie-breaks.  The cycle is made of ``r``'s own edges.
    """
    arcs, _ = _scaled_arcs(r)
    found = _MeanSearch(r.node_count, arcs)(range(len(arcs)))
    if found is None:
        return None
    cycle, _, _ = found
    return Cycle.from_edges([r.edges[a] for a in cycle])
