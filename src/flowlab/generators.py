"""Instance families with exactly predictable solver effort.

Three constructions produce smoothed inputs (edge costs given as
intervals of width at least ``1/phi``) that steer a particular solver
into a known number of iterations for every cost realization:

* ``gen_mmcc_general`` makes cycle canceling spend ``m * (w + x)``
  cancellations draining two ladders of progressively cheaper
  absorbing nodes, where ``w`` and ``x`` grow with ``log2(phi)``.
* ``gen_mmcc_large_phi`` trades the logarithmic ladders for ``n``
  geometric ones under a fixed large ``phi``, forcing ``2 * m * n``
  cancellations.
* ``gen_ns_lower_bound`` builds a recursive routing core plus an
  expensive detour chain and a starting tree whose pivots move flow
  off the detour one cheapest path at a time, for ``2 * M * F``
  non-degenerate pivots.

``gen_random_smoothed`` gives unstructured smoothed instances for
cross-checking solvers against each other, and ``sample_costs`` draws
a deterministic cost vector from an instance's intervals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    CostInterval,
    Flow,
    FlowLabError,
    FlowNetwork,
    SmoothedInstance,
    rational,
    validate_instance,
)
from .netsimplex import SpanningTreeStructure

__all__ = [
    "ParamViolation",
    "MmccGeneralParams",
    "NsParams",
    "floor_log2",
    "gen_mmcc_general",
    "gen_mmcc_large_phi",
    "gen_ns_lower_bound",
    "strip_q_chain",
    "sample_costs",
    "gen_random_smoothed",
    "predicted_mmcc_general_iterations",
    "predicted_mmcc_large_phi_iterations",
    "predicted_ns_pivots",
    "predicted_ns_nondegenerate_pivots",
]


class ParamViolation(FlowLabError):
    """Generator parameters outside their documented ranges."""


def floor_log2(q) -> int:
    """Largest integer e with 2**e <= q, for positive rationals."""
    q = rational(q)
    if q <= 0:
        raise ValueError("floor_log2 needs a positive value")
    e = q.numerator.bit_length() - q.denominator.bit_length()
    if Fraction(2) ** e > q:
        e -= 1
    return e


def _check_size(n: int, m: int, least_n: int = 1) -> None:
    """Raise unless ``n >= least_n`` and the core's ``m`` edges fit
    between ``n`` and ``n**2``."""
    if n < least_n:
        raise ParamViolation("n must be at least %d" % least_n)
    if not (n <= m <= n * n):
        raise ParamViolation("m must lie between n and n**2")


@dataclass(frozen=True)
class _SizeParams:
    n: int
    m: int
    phi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "phi", rational(self.phi))
        _check_size(self.n, self.m)
        if self.phi < 64:
            raise ParamViolation("phi must be at least 64")


@dataclass(frozen=True)
class MmccGeneralParams(_SizeParams):
    """Size knobs for ``gen_mmcc_general``.

    ``n`` is the side of the bipartite core, ``m`` the number of its
    edges (between ``n`` and ``n**2``), and ``phi`` the smoothing
    parameter, at least 64 so that each ladder has at least one rung on
    the wider side.
    """

    @property
    def w_count(self) -> int:
        return (floor_log2(self.phi) - 4) // 2

    @property
    def x_count(self) -> int:
        return (floor_log2(self.phi) - 5) // 2


@dataclass(frozen=True)
class NsParams(_SizeParams):
    """Size knobs for ``gen_ns_lower_bound``.

    ``level_count`` recursion depth and ``chain_length`` both grow with
    ``log2(phi)``; ``chain_length`` is additionally capped by ``n``.
    The ranges of ``n``, ``m`` and ``phi`` are those of
    ``MmccGeneralParams``.
    """

    @property
    def level_count(self) -> int:
        return floor_log2(self.phi) - 5

    @property
    def chain_length(self) -> int:
        return min(self.n, 2 ** floor_log2(self.phi) // 4 - 2)


def _bipartite_pairs(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """m distinct (left, right) index pairs; pair i,i is always present
    so every node on both sides has degree at least one."""
    rng = random.Random(seed)
    base = [(i, i) for i in range(n)]
    rest = [(i, j) for i in range(n) for j in range(n) if i != j]
    extra = sorted(rng.sample(rest, m - n))
    return base + extra


def _self_check(inst: SmoothedInstance) -> SmoothedInstance:
    bad = validate_instance(inst)
    if bad is not None:
        raise FlowLabError("generator built a broken instance: %s: %s" % (bad.kind, bad.detail))
    return inst


class _Builder:
    """One generated instance as it is put together: node names, then
    edges with their cost intervals, labels and leaving ranks, and the
    edges of the starting tree, each kept in the order it is added.  A
    node's id is its place in that order."""

    def __init__(self, phi):
        self.phi = phi
        self.names = []
        self.arcs = []
        self.intervals = []
        self.labels = []
        self.tree = []

    def node(self, name) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def nodes(self, prefix, count) -> list[int]:
        return [self.node("%s%d" % (prefix, i + 1)) for i in range(count)]

    def add(self, tail, head, cap, lo, width, label, rank=1, in_tree=False) -> int:
        edge = len(self.arcs)
        self.arcs.append((tail, head, cap, lo, rank))
        self.intervals.append(CostInterval(rational(lo), rational(width)))
        self.labels.append(label)
        if in_tree:
            self.tree.append(edge)
        return edge

    def instance(self, budgets_by_node, parked_edges, amount) -> SmoothedInstance:
        """The checked instance, its budgets zero off ``budgets_by_node``
        and its starting flow ``amount`` on each of ``parked_edges``."""
        budgets = [Fraction(0)] * len(self.names)
        for node, budget in budgets_by_node.items():
            budgets[node] = Fraction(budget)
        net = FlowNetwork.from_data(
            len(self.names), self.arcs, budgets=budgets, node_names=self.names,
            edge_labels=self.labels,
        )
        values = [Fraction(0)] * net.edge_count
        for idx in parked_edges:
            values[idx] = Fraction(amount)
        inst = SmoothedInstance(
            network=net, intervals=tuple(self.intervals), phi=self.phi,
            starting_flow=Flow(tuple(values)),
        )
        return _self_check(inst)


def _ladders(n, m, phi, pair_seed, w_tops, x_tops, split) -> SmoothedInstance:
    """The two-ladder instance of both MMCC families, as described in
    ``gen_mmcc_general``: the expensive edge of rung ``i`` tops out at
    ``w_tops[i]`` on the ``w`` side and at ``x_tops[i]`` on the ``x``
    side.  With ``split`` the heads ``a`` and ``c`` become ``a1 ... a2``
    and ``c1 ... c2``, joined by ``n``-edge paths: the ladders hang off
    ``a1`` and ``c1``, and the core is fed from ``a2`` and ``c2``.
    """
    unit = 1 / phi
    g = _Builder(phi)
    a1, a2 = g.nodes("a", 2) if split else [g.node("a")] * 2
    b = g.node("b")
    c1, c2 = g.nodes("c", 2) if split else [g.node("c")] * 2
    d = g.node("d")
    u, v = g.nodes("u", n), g.nodes("v", n)
    w, x = g.nodes("w", len(w_tops)), g.nodes("x", len(x_tops))
    if split:
        ap, cp = g.nodes("ap", n - 1), g.nodes("cp", n - 1)

    for i, j in _bipartite_pairs(n, m, pair_seed):
        g.add(u[i], v[j], 1, 0, unit, "uv")
    for i in range(n):
        g.add(a2, u[i], None, 0, unit, "a_u")
    for i in range(n):
        g.add(u[i], b, None, 0, unit, "u_b")
    for j in range(n):
        g.add(c2, v[j], None, 0, unit, "c_v")
    for j in range(n):
        g.add(v[j], d, None, 0, unit, "v_d")
    parked = []
    for node, top in zip(w, w_tops):
        g.add(d, node, m, 0, unit, "d_w")
        parked.append(g.add(a1, node, m, top - unit, unit, "a_w"))
    for node, top in zip(x, x_tops):
        g.add(b, node, m, 0, unit, "b_x")
        parked.append(g.add(c1, node, m, top - unit, unit, "c_x"))
    if split:
        for label, path in (("a_path", [a1] + ap + [a2]), ("c_path", [c1] + cp + [c2])):
            for fr, to in zip(path, path[1:]):
                g.add(fr, to, None, 0, unit, label)

    budgets = dict.fromkeys(w + x, -m)
    budgets[a1] = len(w_tops) * m
    budgets[c1] = len(x_tops) * m
    return g.instance(budgets, parked, m)


def gen_mmcc_general(params: MmccGeneralParams, pair_seed: int = 0) -> SmoothedInstance:
    """Cycle-canceling stress instance with two absorbing ladders.

    A bipartite core of ``m`` unit edges sits between distribution
    nodes ``a, b, c, d``.  Ladder nodes ``w1, w2, ...`` hang off ``a``
    (fed back from ``d``) and ``x1, x2, ...`` off ``c`` (fed from
    ``b``), with expensive direct edges whose cost intervals drop by a
    factor of four per rung.  The starting flow parks everything on the
    expensive edges; every cancellation then reroutes one unit through
    the core, and each rung takes exactly ``m`` cancellations.
    """
    w_tops = [Fraction(2) ** (2 - 2 * i) for i in range(1, params.w_count + 1)]
    x_tops = [Fraction(2) ** (1 - 2 * i) for i in range(1, params.x_count + 1)]
    return _ladders(params.n, params.m, params.phi, pair_seed, w_tops, x_tops, split=False)


def gen_mmcc_large_phi(n: int, m: int, pair_seed: int = 0) -> SmoothedInstance:
    """Variant with ``n`` ladder rungs per side under a huge fixed phi.

    ``phi`` is pinned to ``400000 * n**2`` and the rung costs shrink
    geometrically with ratio ``(n - 3) / n``, so ``n`` must be at least
    4.  Both distribution heads are split in two joined by an
    ``n``-edge path, which pads the cycle length without changing what
    gets canceled: ``2 * m * n`` cancellations, alternating sides.
    """
    _check_size(n, m, least_n=4)
    ratio = Fraction(n - 3, n)
    w_tops = [ratio ** (2 * i - 2) for i in range(1, n + 1)]
    x_tops = [ratio ** (2 * i - 1) for i in range(1, n + 1)]
    return _ladders(n, m, Fraction(400000 * n * n), pair_seed, w_tops, x_tops, split=True)


def gen_ns_lower_bound(
    params: NsParams, pair_seed: int = 0
) -> tuple[SmoothedInstance, SpanningTreeStructure]:
    """Pivot stress instance plus the tree structure to start from.

    The core is a recursion over ``level_count`` source/sink pairs:
    each level doubles the routable amount of the one below via two
    cheap rail edges and two pricier shortcut edges.  The full demand
    starts parked on a long uncapacitated detour chain ``q``; four side
    chains of length ``chain_length`` meter the flow off it one unit of
    path capacity per non-degenerate pivot, giving exactly
    ``2 * chain_length * F`` such pivots where ``F`` is the top-level
    routable amount, ``m * 2 ** (level_count - 1)``.

    The bipartite edges carry ``leaving_rank`` 0 so they win ties when
    a pivot has several blocking edges.
    """
    n, m, phi = params.n, params.m, params.phi
    k, M = params.level_count, params.chain_length
    unit = 1 / phi
    g = _Builder(phi)
    u, wn = g.nodes("u", n), g.nodes("w", n)
    s_lvl, t_lvl = zip(*[(g.node("s%d" % i), g.node("t%d" % i)) for i in range(1, k + 1)])
    an, bn, cn, dn = (g.nodes(prefix, M) for prefix in "abcd")
    s, t = g.node("s"), g.node("t")
    qn = g.nodes("q", 2 * M)

    pairs = _bipartite_pairs(n, m, pair_seed)
    out_deg = [0] * n
    in_deg = [0] * n
    for i, j in pairs:
        out_deg[i] += 1
        in_deg[j] += 1
        g.add(u[i], wn[j], 1, 7 * unit, 2 * unit, "uw", rank=0)
    for i in range(n):
        g.add(s_lvl[0], u[i], out_deg[i], 0, unit, "feed_u", in_tree=True)
    for j in range(n):
        g.add(wn[j], t_lvl[0], in_deg[j], 0, unit, "drain_w", in_tree=True)

    # level i routes m * 2**i: every unit pair edge saturates at level
    # 0, and each level's rail and shortcut pairs carry twice the level
    # below, which is all the cut at its source lets out
    flow_f = m
    for i in range(1, k):
        shortcut_lo = (2 ** (i + 3) - 1) * unit
        g.add(s_lvl[i], s_lvl[i - 1], flow_f, 0, unit, "rail_s", in_tree=True)
        g.add(t_lvl[i - 1], t_lvl[i], flow_f, 0, unit, "rail_t", in_tree=True)
        g.add(s_lvl[i], t_lvl[i - 1], flow_f, shortcut_lo, 2 * unit, "shortcut_down")
        g.add(s_lvl[i - 1], t_lvl[i], flow_f, shortcut_lo, 2 * unit, "shortcut_up")
        flow_f *= 2

    expensive_lo = (2 ** (k + 5) - 1) * unit
    bridge_lo = (2 ** (k + 4) - 1) * unit
    for i in range(1, M):
        g.add(an[i], an[i - 1], None, expensive_lo, unit, "chain_a", in_tree=True)
    for i in range(M):
        g.add(s, an[i], flow_f, 0, unit, "supply_a", in_tree=(i == 0))
    g.add(an[0], s_lvl[k - 1], None, bridge_lo, unit, "bridge_a", in_tree=True)
    for i in range(1, M):
        g.add(bn[i], bn[i - 1], None, expensive_lo, unit, "chain_b", in_tree=True)
    for i in range(M):
        g.add(s, bn[i], flow_f, 0, unit, "supply_b")
    g.add(bn[0], t_lvl[k - 1], None, expensive_lo, unit, "bridge_b", in_tree=True)
    for i in range(1, M):
        g.add(cn[i - 1], cn[i], None, expensive_lo, unit, "chain_c", in_tree=True)
    for i in range(M):
        g.add(cn[i], t, flow_f, 0, unit, "drain_c")
    g.add(s_lvl[k - 1], cn[0], None, expensive_lo, unit, "bridge_c", in_tree=True)
    for i in range(1, M):
        g.add(dn[i - 1], dn[i], None, expensive_lo, unit, "chain_d", in_tree=True)
    for i in range(M):
        g.add(dn[i], t, flow_f, 0, unit, "drain_d", in_tree=(i == 0))
    g.add(t_lvl[k - 1], dn[0], None, bridge_lo, unit, "bridge_d", in_tree=True)
    q_path = [s] + qn + [t]
    q_edges = [
        g.add(fr, to, None, expensive_lo, unit, "chain_q", in_tree=True)
        for fr, to in zip(q_path, q_path[1:])
    ]

    demand = 2 * M * flow_f
    inst = g.instance({s: demand, t: -demand}, q_edges, demand)
    tree_set = frozenset(g.tree)
    structure = SpanningTreeStructure(
        tree_edges=tree_set,
        lower=frozenset(idx for idx in range(len(g.arcs)) if idx not in tree_set),
        upper=frozenset(),
        root=s,
    )
    return inst, structure


def strip_q_chain(inst: SmoothedInstance) -> SmoothedInstance:
    """The same instance with the detour chain removed.

    Works on instances whose detour nodes are named ``q1, q2, ...`` and
    sit at the end of the node numbering, as ``gen_ns_lower_bound``
    arranges; node and edge ids of everything kept are unchanged.  The
    starting flow is dropped because it lived on the detour.
    """
    net = inst.network
    if net.node_names is None:
        raise ValueError("instance has no node names to locate the detour chain")
    q_nodes = [
        i
        for i, name in enumerate(net.node_names)
        if name.startswith("q") and name[1:].isdigit()
    ]
    if not q_nodes:
        raise ValueError("no detour chain nodes found")
    first = min(q_nodes)
    if q_nodes != list(range(first, net.node_count)):
        raise ValueError("detour chain nodes are not a suffix of the node numbering")
    keep = [
        idx
        for idx, e in enumerate(net.edges)
        if e.tail < first and e.head < first
    ]
    if keep != list(range(len(keep))):
        raise ValueError("detour chain edges are not a suffix of the edge numbering")
    trimmed = FlowNetwork(
        node_count=first,
        edges=tuple(net.edges[idx] for idx in keep),
        budgets=net.budgets[:first],
        node_names=net.node_names[:first],
        edge_labels=net.edge_labels[: len(keep)] if net.edge_labels else None,
    )
    return SmoothedInstance(
        network=trimmed,
        intervals=inst.intervals[: len(keep)],
        phi=inst.phi,
        starting_flow=None,
    )


def sample_costs(inst: SmoothedInstance, seed: int) -> tuple[Fraction, ...]:
    """One exact cost vector, each edge uniform on a 2**32 grid over
    its interval, drawn in edge order from the given seed."""
    rng = random.Random(seed)
    out = []
    for interval in inst.intervals:
        draw = rng.getrandbits(32)
        out.append(interval.lo + interval.width * Fraction(draw, 2 ** 32))
    return tuple(out)


def gen_random_smoothed(n: int, m: int, phi, seed: int) -> SmoothedInstance:
    """Unstructured smoothed instance: random weakly-connected simple
    digraph, interval width exactly ``1/phi``, interval starts uniform
    in [0, 1 - 1/phi), small integer capacities and transfer budgets."""
    phi = rational(phi)
    if n < 2:
        raise ParamViolation("n must be at least 2")
    if not (1 <= m <= n * (n - 1) // 2):
        raise ParamViolation("m must lie between 1 and n*(n-1)/2")
    if phi < 1:
        raise ParamViolation("phi must be at least 1")
    rng = random.Random(seed)
    width = 1 / phi

    pairs: list[tuple[int, int]] = []
    if m >= n - 1:
        # random spanning tree first so the graph is weakly connected
        perm = rng.sample(range(n), n)
        for idx in range(1, n):
            other = perm[rng.randrange(idx)]
            pairs.append((min(perm[idx], other), max(perm[idx], other)))
        chosen = set(pairs)
        remaining = [
            (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in chosen
        ]
        pairs.extend(sorted(rng.sample(remaining, m - (n - 1))))
    else:
        every = [(i, j) for i in range(n) for j in range(i + 1, n)]
        pairs = sorted(rng.sample(every, m))

    arcs = []
    intervals = []
    for i, j in pairs:
        tail, head = (i, j) if rng.random() < 0.5 else (j, i)
        cap = Fraction(rng.randint(1, 10))
        lo = (1 - width) * Fraction(rng.getrandbits(32), 2 ** 32)
        arcs.append((tail, head, cap, lo))
        intervals.append(CostInterval(lo, width))

    budgets = [Fraction(0)] * n
    for _ in range(max(1, n // 2)):
        giver, taker = rng.sample(range(n), 2)
        amount = rng.randint(1, 3)
        budgets[giver] += amount
        budgets[taker] -= amount

    net = FlowNetwork.from_data(n, arcs, budgets=budgets)
    return _self_check(
        SmoothedInstance(network=net, intervals=tuple(intervals), phi=phi)
    )


def predicted_mmcc_general_iterations(params: MmccGeneralParams) -> int:
    return params.m * (params.w_count + params.x_count)


def predicted_mmcc_large_phi_iterations(n: int, m: int) -> int:
    return 2 * m * n


def predicted_ns_nondegenerate_pivots(params: NsParams) -> int:
    """Closed form of ``gen_ns_lower_bound``'s non-degenerate pivot count.

    It is ``2·M·F`` with ``M = min(n, φ/4 − 2)`` side-chain nodes and
    ``F = m·φ/64`` units of top-level routable amount, where φ is rounded
    down to a power of two as the construction rounds it.
    ``predicted_ns_pivots`` reads the same count off a built instance.
    """
    phi = 2 ** floor_log2(params.phi)
    return 2 * min(params.n, phi // 4 - 2) * (params.m * phi // 64)


def predicted_ns_pivots(inst: SmoothedInstance) -> int:
    """Read the expected non-degenerate pivot count off the instance:
    the whole parked demand moves in unit-capacity path steps."""
    if inst.network.node_names is None:
        raise ValueError("instance has no node names")
    source = inst.network.node_names.index("s")
    budget = inst.network.budgets[source]
    if budget.denominator != 1:
        raise ValueError("demand is not integral")
    return int(budget)
