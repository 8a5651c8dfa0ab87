"""Minimum-mean cycle search over residual networks.

``karp_min_mean`` runs Karp's dynamic program over walk lengths.
Karp's table (``_walk_table``), its min-max step and the cycle cut are
private routines on flat integer arcs, held together by ``_MeanSearch``,
which does the fixed set-up of a search once for a set of arcs and then
searches the subset of them that it keeps; ``karp_min_mean`` and the
cycle-canceling solver both search with it, so there is one dynamic
program to maintain.

The table is built level by level, and a search may stop before level
n once the rows built so far certify the minimum mean, as in Hartmann
and Orlin's early termination of Karp's algorithm (Networks 23, 1993).
Write D_j(v) for the least cost of a walk of exactly j arcs into v.

*Certificate.*  At level k, with a candidate mean λ, let
π(v) = min over j ≤ k of D_j(v) − jλ.  Call an arc tight when
π(h) = π(t) + c − λ.  Let R_0 be the nodes with π(v) = 0, and R_i the
heads of the tight arcs whose tails are in R_{i−1}, for i up to n.  If
π(h) ≤ π(t) + c − λ on every arc, no cycle has a mean below λ.  If R_n
is not empty as well, a tight walk of n arcs holds a cycle, whose mean
is exactly λ; so λ is the minimum mean.  π is then the shortest
distance under the costs c − λ, and D_i(v) − iλ = π(v) exactly when v
is in R_i.  A candidate above or below the minimum mean never passes,
so nothing rests on how the candidate is found.

*Only the frontier's arcs can break the bound.*  Write
S_j(v) = D_j(v) − jλ.  Karp's recurrence gives D_{j+1}(h) ≤ D_j(t) + c
on every arc, so for j < k, π(h) ≤ S_{j+1}(h) ≤ S_j(t) + c − λ.  An arc
whose tail has π(t) = S_j(t) for some j < k therefore keeps the bound,
and only the arcs out of the frontier, the nodes whose π row k alone
attains, need the check.  The tight arcs are still read at every node,
since every node is in some R_i with i ≤ k.

*Karp's cycle from the certificate.*  Karp's witness is the lowest
node v with D_n(v) − nλ = π(v), which is the lowest node of R_n.  Each
step of his cycle cut, at level i, takes the lowest arc into the node
that attains D_i(node), which is the lowest tight arc whose tail is in
R_{i−1}.  No row beyond k is needed, so a search that stops early
returns Karp's cycle, in his rotation, and his mean.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import compress, repeat
from operator import ge, ne, sub, truediv
from typing import Iterable, Optional, Sequence

from .core import Cycle, FlowLabError, ResidualNetwork, _scaled

__all__ = ["karp_min_mean"]

# integers below this in magnitude are exact as floats, and so are their
# sums and differences while those stay below it too
_FLOAT_EXACT = 2**53


def _extend(table: list[list], arcs, levels: int, far) -> None:
    """Append ``levels`` rows to Karp's table ``table`` over arcs
    ``(tail, head, cost)``: each row holds, for each node, the least
    cost of a walk one arc longer than those of the row before that
    ends there, or ``far`` if there is none."""
    prev = table[-1]
    for _ in range(levels):
        row: list = [far] * len(prev)
        for t, h, c in arcs:
            candidate = prev[t] + c
            if candidate < row[h]:
                row[h] = candidate
        table.append(row)
        prev = row


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
    table = [[0] * n]
    _extend(table, arcs, levels, far)
    return table


class _MeanSearch:
    """Karp's minimum-mean cycle over any subset of fixed integer arcs
    ``(tail, head, cost)`` on ``n`` nodes.

    The set-up depends on the arcs only: ``top``, the largest cost
    magnitude, and with it ``limit`` and ``far`` (see ``_walk_table``),
    whether the table is held in floats, the quotients' divisors, and
    the in-arcs of each head and out-arcs of each tail, in arc order.  A
    bound over all arcs is at least the bound over any subset, so floats
    are chosen only where they are exact for every subset, and ``far``
    stays above every real entry.

    The arc set searched, ``present``, is kept between searches: it is
    given once, and ``refresh`` then adds or drops only the arcs whose
    room changed, which for cycle canceling are the cycle's arcs and
    their reverses.  Rows 0 and 1 of the table are kept with it, since
    row 1, the least cost of an arc into each node, changes only at the
    heads of the arcs added or dropped.

    A search checks the module's certificate at some levels of its
    table, and stops at the first level where it holds.  Where none
    holds, it builds the rest of the rows, up to level n, and takes
    Karp's min-max step and cut over the full table, unless it was asked
    for a negative cycle only and the table shows none.  The candidate
    mean at level k is the least mean among the cycles cut off the
    cheapest walk of each level seen so far.

    *Check schedule.*  A check costs about as much as building 7 levels
    of a float table (about 16 of an integer table), so checks run only
    at levels k <= 2n/5, and only on n >= 18 nodes, where a stop saves
    at least 11 levels.  Within that, the schedule reads only what the
    search can observe: ``n``, the level, and what the last search over
    the same arcs found.
    - The first search takes candidates from the levels above n/5 and
      checks once, at 2n/5.  If that fails, no later search checks.
    - After a stop, ``settled`` is the level at which that search would
      have stopped: the level of its candidate, or the first level at
      which π was final, whichever is later.  ``candidates_from`` is the
      length of its cycle; a walk of fewer arcs holds no such cycle.
      The next search takes candidates from ``candidates_from`` on, and
      checks at ``settled``, then at gaps of 1, 2, 4, ... levels.
    """

    def __init__(self, n: int, arcs: Sequence[tuple[int, int, int]], present: Iterable[int]):
        self.n, self.arcs = n, arcs
        self.top = top = max((abs(c) for _, _, c in arcs), default=0)
        self.limit = n * top
        # A missing entry D[k][v] gives a quotient far below the one at
        # k = 0, which is at least -top, so it never attains a maximum.
        far = 8 * (n + 1) ** 2 * (top + 1)
        # Division rounds correctly to the nearest float, and rounding
        # keeps order up to ties, so quotients are compared as floats
        # while they fit in one, and exactly only where the floats tie.
        self.divide = truediv if far.bit_length() < 1000 else Fraction
        self.floats = 2 * self.limit < _FLOAT_EXACT
        if self.floats:
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
        self.out: list[list[int]] = [[] for _ in range(n)]
        for a, (t, h, _) in enumerate(arcs):
            self.into[h].append(a)
            self.out[t].append(a)
        # the arcs searched: their ids and table arcs, listed alike, and
        # each id's place in those lists; see ``refresh``
        self.present_ids = list(present)
        self.present_arcs = [self.table_arcs[a] for a in self.present_ids]
        self.present = {a: i for i, a in enumerate(self.present_ids)}
        # rows 0 and 1 of every table over the arc set, kept with it; row 0
        # is in the table's own type, since sums that mix an int and a
        # float take a slower path
        rows = [[0.0 if self.floats else 0] * n]
        _extend(rows, self.present_arcs, 1, self.far)
        self.first_rows = rows
        self.settled: Optional[int] = None
        self.candidates_from = 1
        # searches that stopped early, and the levels their tables reached
        # over all searches
        self._stops = self._rows = 0

    def refresh(self, arcs: Iterable[int], room: Sequence[Optional[int]]) -> None:
        """Keep each arc of ``arcs`` in the arc set searched exactly when
        its room is not 0, a room of ``None`` being unbounded, and row 1
        of the table in step at the heads of the arcs added or dropped.
        The order in which the set lists its arcs drifts: the table takes
        a least exact sum over them, the certificate's tight and reach
        sets are sets, and every tie-break reads arcs in ascending id
        order from ``into``, keeping those in the set."""
        present, ids, listed = self.present, self.present_ids, self.present_arcs
        table_arcs, row = self.table_arcs, self.first_rows[1]
        for a in arcs:
            _, h, c = table_arcs[a]
            if room[a] != 0:
                if a not in present:
                    present[a] = len(ids)
                    ids.append(a)
                    listed.append(table_arcs[a])
                    if c < row[h]:
                        row[h] = c
            elif a in present:
                # the last arc listed takes the place of the one dropped
                i, last = present.pop(a), ids.pop()
                arc = listed.pop()
                if last != a:
                    ids[i], listed[i], present[last] = last, arc, i
                if c == row[h]:
                    row[h] = min((table_arcs[b][2] for b in self.into[h] if b in present), default=self.far)

    def __call__(self, negative_only: bool = False) -> Optional[tuple[list[int], int, int]]:
        """The minimum-mean cycle over the arc set ``present``: its arcs
        in walk order and the minimum mean as a pair (num, den) with
        den > 0, or ``None`` when they are acyclic.

        The minimum mean is min over nodes v of max over k < n of
        (D[n][v] - D[k][v]) / (n - k), over the entries with a walk
        behind them; ties between nodes go to the lowest node.  The
        witness is the cycle cut of the length-n walk into that node,
        so ties between arcs go to the lowest arc.  A search that stops
        early returns the same cycle and mean.

        With ``negative_only``, a search that builds the full table also
        returns ``None`` when no cycle has a negative mean, without
        Karp's min-max step.  By Karp's formula that is when
        D[n][v] >= min over k < n of D[k][v] at every node v; row 0 is
        all zeros, so a node with no walk of n arcs, whose entry stays
        far above 0, passes too.
        """
        n, far = self.n, self.far
        if n == 0 or not self.present:
            return None
        level_arcs = self.present_arcs
        table = list(self.first_rows)
        ceiling = 2 * n // 5 if n >= 18 else 0
        if self.settled is None:
            check, gap, first = ceiling, 1, ceiling // 2 + 1
        else:
            check, gap, first = self.settled, 1, self.candidates_from
        best = seen_at = None
        for k in range(first, ceiling + 1):
            _extend(table, level_arcs, k - len(table) + 1, far)
            candidate = self._candidate(table)
            if candidate is not None and (best is None or candidate[0] * best[1] < best[0] * candidate[1]):
                best, seen_at = candidate, k
            if k < check or best is None:
                continue
            check, gap = k + gap, 2 * gap
            certified = self._certify(table, *best)
            if certified is not None:
                result, converged = certified
                self.settled, self.candidates_from = max(seen_at, converged), best[1]
                self._stops += 1
                self._rows += k
                return result
        if self.settled is None:
            # the first search did not stop: later ones do not check
            self.settled = self.candidates_from = n + 1
        _extend(table, level_arcs, n + 1 - len(table), far)
        self._rows += n

        last = table[n]
        if negative_only and all(map(ge, last, map(min, zip(*table[:n])))):
            return None
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
        cycle = self._cut(best_node, n, partial(self._table_step, table))
        return self._checked(cycle, best_num, best_den)

    def _candidate(self, table) -> Optional[tuple[int, int]]:
        """A candidate minimum mean from the rows ``table``: the total
        cost and the length of the cycle cut off the cheapest walk of
        the last level, or ``None`` where that walk repeats no node."""
        row = table[-1]
        least = min(row)
        if least > self.limit:
            return None
        cycle = self._cut(row.index(least), len(table) - 1, partial(self._table_step, table))
        if cycle is None:
            return None
        return sum(self.arcs[a][2] for a in cycle), len(cycle)

    def _certify(self, table, num: int, den: int):
        """Karp's ``(cycle, num, den)`` over the arc set ``present``, and
        the first level at which π was final, when the rows ``table``
        certify that num / den is the minimum mean; else ``None``.  See
        the module docstring.
        """
        potentials = self._potentials(table, num, den)
        if potentials is None:
            return None
        pi, frontier, arcs, num, den = potentials
        if not self._arcs_hold(pi, frontier, arcs, num, den):
            return None
        n, present = self.n, self.present

        # the heads of the tight arcs out of each node
        after: list[list[int]] = [[] for _ in range(n)]
        listed = self.present_arcs if arcs is self.table_arcs else [arcs[a] for a in self.present_ids]
        for t, h, c in listed:
            if pi[h] == pi[t] + c * den - num:
                after[t].append(h)

        # R_i follows from R_{i-1} alone, so the sets repeat from the
        # first one met twice; every node is in some R_i with i <= k,
        # and π was final from the last level that added a node
        reach = [frozenset(v for v, p in enumerate(pi) if p == 0)]
        index = {reach[0]: 0}
        met, converged = set(reach[0]), 0
        while len(reach) <= n:
            following = frozenset(h for t in reach[-1] for h in after[t])
            if following in index:
                start = index[following]
                break
            if not following <= met:
                met |= following
                converged = len(reach)
            index[following] = len(reach)
            reach.append(following)

        def at(i: int) -> frozenset:
            if i >= len(reach):
                i = start + (i - start) % (len(reach) - start)
            return reach[i]

        if not at(n):
            return None

        def step(node: int, i: int) -> int:
            # the lowest tight arc into ``node`` whose tail is in R_{i-1};
            # tightness is tested only on the in-arcs read here
            before, want = at(i - 1), pi[node] + num
            for a in self.into[node]:
                if a in present:
                    t, _, c = arcs[a]
                    if t in before and pi[t] + c * den == want:
                        return a

        cycle = self._cut(min(at(n)), n, step)
        return self._checked(cycle, int(num), int(den)), converged

    def _potentials(self, table, num: int, den: int):
        """``(pi, frontier, arcs, num, den)`` for the candidate num / den
        at the last level k of the rows ``table``, or ``None`` when the
        candidate is beyond every cycle mean.

        π is held scaled by den, as den·D_j(v) − j·num, so every
        comparison is exact.  Every cycle mean lies within ``top`` of 0,
        so a candidate beyond that fails at once.  Within it, every real
        scaled entry and every sum π(t) + den·c − num is at most
        (k + 1)(den·top + |num|) in magnitude: below 2^53 they are exact
        as floats, and above it the rows are taken as integers.  ``arcs``
        are the arcs in the same arithmetic, and num and den the reduced
        candidate in it.  An entry with no walk behind it stays far
        above 0, so it never sets π.  The frontier is the nodes whose π
        is set by row k alone, in ascending order.
        """
        k = len(table) - 1
        if abs(num) > den * self.top:
            return None
        common = math.gcd(num, den)
        num, den = num // common, den // common
        if not self.floats:
            rows, arcs = table, self.arcs
        elif (k + 1) * (den * self.top + abs(num)) < _FLOAT_EXACT:
            rows, arcs, num, den = table, self.table_arcs, float(num), float(den)
        else:
            rows, arcs = [list(map(int, row)) for row in table], self.arcs
        # a running minimum over the rows; one comprehension per row that
        # scales each entry twice is faster than keeping the scaled rows
        earlier = rows[0]
        for j in range(1, k):
            shift = j * num
            earlier = [e if e < d * den - shift else d * den - shift for e, d in zip(earlier, rows[j])]
        shift = k * num
        pi = [e if e < d * den - shift else d * den - shift for e, d in zip(earlier, rows[k])]
        frontier = list(compress(range(self.n), map(ne, pi, earlier)))
        return pi, frontier, arcs, num, den

    def _arcs_hold(self, pi, frontier, arcs, num, den) -> bool:
        """Whether π(h) <= π(t) + c − λ on every arc of ``present``, with
        ``_potentials``' values.  Only the arcs out of the frontier can
        break it (see the module docstring), so only those are read."""
        out, present = self.out, self.present
        for t in frontier:
            base = pi[t] - num
            for a in out[t]:
                if a in present:
                    _, h, c = arcs[a]
                    if pi[h] > base + c * den:
                        return False
        return True

    def _checked(self, cycle: list[int], num: int, den: int) -> tuple[list[int], int, int]:
        """``(cycle, num, den)``, once the cycle's mean is num / den."""
        total = sum(self.arcs[a][2] for a in cycle)
        if total * den != num * len(cycle):
            raise FlowLabError(
                "internal error: extracted cycle mean %s differs from minimum %s"
                % (Fraction(total, len(cycle)), Fraction(num, den))
            )
        return cycle, num, den

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

    def _table_step(self, table, node: int, k: int) -> int:
        """The lowest arc of ``present`` into ``node`` that attains its
        entry at level k, the one a scan in ascending arc order that
        keeps only strict improvements would have recorded."""
        want, prev, arcs, present = table[k][node], table[k - 1], self.table_arcs, self.present
        for a in self.into[node]:
            t, _, c = arcs[a]
            if prev[t] + c == want and a in present:
                return a

    def _cut(self, end: int, k: int, step) -> Optional[list[int]]:
        """The first cycle met reading a walk of k arcs into ``end``
        back from its end, as arcs in walk order, or ``None`` if no node
        repeats; ``step(node, i)`` is the walk's arc into ``node`` at
        level i.  With k = n some node repeats, n + 1 nodes on n."""
        node, seen_at = end, {end: k}
        steps: list[int] = []
        while k:
            a = step(node, k)
            steps.append(a)
            node, k = self.arcs[a][0], k - 1
            if node in seen_at:
                # steps run backwards from the walk's end, so the cycle
                # is the last ``seen_at[node] - k`` of them, reversed
                return steps[len(steps) - (seen_at[node] - k):][::-1]
            seen_at[node] = k
        return None


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
    found = _MeanSearch(r.node_count, arcs, range(len(arcs)))()
    if found is None:
        return None
    cycle, _, _ = found
    return Cycle.from_edges([r.edges[a] for a in cycle])
