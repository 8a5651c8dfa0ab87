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
from .maxflow import solve_max_flow
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
    if Fraction(2) ** (e + 1) <= q:
        e += 1
    return e


@dataclass(frozen=True)
class MmccGeneralParams:
    """Size knobs for ``gen_mmcc_general``.

    ``n`` is the side of the bipartite core, ``m`` the number of its
    edges (between ``n`` and ``n**2``), and ``phi`` the smoothing
    parameter, at least 64 so that each ladder has at least one rung on
    the wider side.
    """

    n: int
    m: int
    phi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "phi", rational(self.phi))
        if self.n < 1:
            raise ParamViolation("n must be at least 1")
        if not (self.n <= self.m <= self.n * self.n):
            raise ParamViolation("m must lie between n and n**2")
        if self.phi < 64:
            raise ParamViolation("phi must be at least 64")

    @property
    def w_count(self) -> int:
        return (floor_log2(self.phi) - 4) // 2

    @property
    def x_count(self) -> int:
        return (floor_log2(self.phi) - 5) // 2


@dataclass(frozen=True)
class NsParams:
    """Size knobs for ``gen_ns_lower_bound``.

    ``level_count`` recursion depth and ``chain_length`` both grow with
    ``log2(phi)``; ``chain_length`` is additionally capped by ``n``.
    """

    n: int
    m: int
    phi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "phi", rational(self.phi))
        if self.n < 1:
            raise ParamViolation("n must be at least 1")
        if not (self.n <= self.m <= self.n * self.n):
            raise ParamViolation("m must lie between n and n**2")
        if self.phi < 64:
            raise ParamViolation("phi must be at least 64")

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
    n, m, phi = params.n, params.m, params.phi
    k_w, k_x = params.w_count, params.x_count
    unit = 1 / phi

    a, b, c, d = 0, 1, 2, 3
    u = [4 + i for i in range(n)]
    v = [4 + n + i for i in range(n)]
    w = [4 + 2 * n + i for i in range(k_w)]
    x = [4 + 2 * n + k_w + i for i in range(k_x)]
    names = (
        ["a", "b", "c", "d"]
        + ["u%d" % (i + 1) for i in range(n)]
        + ["v%d" % (i + 1) for i in range(n)]
        + ["w%d" % (i + 1) for i in range(k_w)]
        + ["x%d" % (i + 1) for i in range(k_x)]
    )
    node_count = 4 + 2 * n + k_w + k_x

    arcs = []
    intervals = []
    labels = []

    def add(tail, head, cap, lo, width, label):
        arcs.append((tail, head, cap, lo))
        intervals.append(CostInterval(rational(lo), rational(width)))
        labels.append(label)

    for i, j in _bipartite_pairs(n, m, pair_seed):
        add(u[i], v[j], 1, 0, unit, "uv")
    for i in range(n):
        add(a, u[i], None, 0, unit, "a_u")
    for i in range(n):
        add(u[i], b, None, 0, unit, "u_b")
    for j in range(n):
        add(c, v[j], None, 0, unit, "c_v")
    for j in range(n):
        add(v[j], d, None, 0, unit, "v_d")
    start_edges = []
    for i in range(1, k_w + 1):
        add(d, w[i - 1], m, 0, unit, "d_w")
        start_edges.append(len(arcs))
        add(a, w[i - 1], m, Fraction(2) ** (2 - 2 * i) - unit, unit, "a_w")
    for i in range(1, k_x + 1):
        add(b, x[i - 1], m, 0, unit, "b_x")
        start_edges.append(len(arcs))
        add(c, x[i - 1], m, Fraction(2) ** (1 - 2 * i) - unit, unit, "c_x")

    budgets = [Fraction(0)] * node_count
    budgets[a] = Fraction(k_w * m)
    budgets[c] = Fraction(k_x * m)
    for node in w + x:
        budgets[node] = Fraction(-m)

    net = FlowNetwork.from_data(
        node_count, arcs, budgets=budgets, node_names=names, edge_labels=labels
    )
    values = [Fraction(0)] * net.edge_count
    for idx in start_edges:
        values[idx] = Fraction(m)
    inst = SmoothedInstance(
        network=net, intervals=tuple(intervals), phi=phi, starting_flow=Flow(tuple(values))
    )
    return _self_check(inst)


def gen_mmcc_large_phi(n: int, m: int, pair_seed: int = 0) -> SmoothedInstance:
    """Variant with ``n`` ladder rungs per side under a huge fixed phi.

    ``phi`` is pinned to ``400000 * n**2`` and the rung costs shrink
    geometrically with ratio ``(n - 3) / n``, so ``n`` must be at least
    4.  Both distribution heads are split in two joined by an
    ``n``-edge path, which pads the cycle length without changing what
    gets canceled: ``2 * m * n`` cancellations, alternating sides.
    """
    if n < 4:
        raise ParamViolation("n must be at least 4")
    if not (n <= m <= n * n):
        raise ParamViolation("m must lie between n and n**2")
    phi = Fraction(400000 * n * n)
    ratio = Fraction(n - 3, n)
    unit = 1 / phi

    a1, a2, b, c1, c2, d = 0, 1, 2, 3, 4, 5
    u = [6 + i for i in range(n)]
    v = [6 + n + i for i in range(n)]
    w = [6 + 2 * n + i for i in range(n)]
    x = [6 + 3 * n + i for i in range(n)]
    ap = [6 + 4 * n + i for i in range(n - 1)]
    cp = [6 + 5 * n - 1 + i for i in range(n - 1)]
    names = (
        ["a1", "a2", "b", "c1", "c2", "d"]
        + ["u%d" % (i + 1) for i in range(n)]
        + ["v%d" % (i + 1) for i in range(n)]
        + ["w%d" % (i + 1) for i in range(n)]
        + ["x%d" % (i + 1) for i in range(n)]
        + ["ap%d" % (i + 1) for i in range(n - 1)]
        + ["cp%d" % (i + 1) for i in range(n - 1)]
    )
    node_count = 6 + 4 * n + 2 * (n - 1)

    arcs = []
    intervals = []
    labels = []

    def add(tail, head, cap, lo, width, label):
        arcs.append((tail, head, cap, lo))
        intervals.append(CostInterval(rational(lo), rational(width)))
        labels.append(label)

    for i, j in _bipartite_pairs(n, m, pair_seed):
        add(u[i], v[j], 1, 0, unit, "uv")
    for i in range(n):
        add(a2, u[i], None, 0, unit, "a_u")
    for i in range(n):
        add(u[i], b, None, 0, unit, "u_b")
    for j in range(n):
        add(c2, v[j], None, 0, unit, "c_v")
    for j in range(n):
        add(v[j], d, None, 0, unit, "v_d")
    start_edges = []
    for i in range(1, n + 1):
        add(d, w[i - 1], m, 0, unit, "d_w")
        start_edges.append(len(arcs))
        add(a1, w[i - 1], m, ratio ** (2 * i - 2) - unit, unit, "a_w")
    for i in range(1, n + 1):
        add(b, x[i - 1], m, 0, unit, "b_x")
        start_edges.append(len(arcs))
        add(c1, x[i - 1], m, ratio ** (2 * i - 1) - unit, unit, "c_x")
    path_a = [a1] + ap + [a2]
    for fr, to in zip(path_a, path_a[1:]):
        add(fr, to, None, 0, unit, "a_path")
    path_c = [c1] + cp + [c2]
    for fr, to in zip(path_c, path_c[1:]):
        add(fr, to, None, 0, unit, "c_path")

    budgets = [Fraction(0)] * node_count
    budgets[a1] = Fraction(n * m)
    budgets[c1] = Fraction(n * m)
    for node in w + x:
        budgets[node] = Fraction(-m)

    net = FlowNetwork.from_data(
        node_count, arcs, budgets=budgets, node_names=names, edge_labels=labels
    )
    values = [Fraction(0)] * net.edge_count
    for idx in start_edges:
        values[idx] = Fraction(m)
    inst = SmoothedInstance(
        network=net, intervals=tuple(intervals), phi=phi, starting_flow=Flow(tuple(values))
    )
    return _self_check(inst)


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
    routable amount.

    The bipartite edges carry ``leaving_rank`` 0 so they win ties when
    a pivot has several blocking edges.
    """
    n, m, phi = params.n, params.m, params.phi
    k, M = params.level_count, params.chain_length
    unit = 1 / phi

    u = list(range(n))
    wn = [n + i for i in range(n)]
    s_lvl = [2 * n + 2 * i for i in range(k)]
    t_lvl = [2 * n + 2 * i + 1 for i in range(k)]
    base = 2 * n + 2 * k
    an = [base + i for i in range(M)]
    bn = [base + M + i for i in range(M)]
    cn = [base + 2 * M + i for i in range(M)]
    dn = [base + 3 * M + i for i in range(M)]
    s = base + 4 * M
    t = base + 4 * M + 1
    qn = [base + 4 * M + 2 + i for i in range(2 * M)]
    node_count = base + 6 * M + 2
    names = (
        ["u%d" % (i + 1) for i in range(n)]
        + ["w%d" % (i + 1) for i in range(n)]
        + [x for i in range(k) for x in ("s%d" % (i + 1), "t%d" % (i + 1))]
        + ["a%d" % (i + 1) for i in range(M)]
        + ["b%d" % (i + 1) for i in range(M)]
        + ["c%d" % (i + 1) for i in range(M)]
        + ["d%d" % (i + 1) for i in range(M)]
        + ["s", "t"]
        + ["q%d" % (i + 1) for i in range(2 * M)]
    )

    arcs = []
    intervals = []
    labels = []
    tree = []

    def add(tail, head, cap, lo, width, label, rank=1, in_tree=False):
        arcs.append((tail, head, cap, lo, rank))
        intervals.append(CostInterval(rational(lo), rational(width)))
        labels.append(label)
        if in_tree:
            tree.append(len(arcs) - 1)

    pairs = _bipartite_pairs(n, m, pair_seed)
    out_deg = [0] * n
    in_deg = [0] * n
    for i, j in pairs:
        out_deg[i] += 1
        in_deg[j] += 1
        add(u[i], wn[j], 1, 7 * unit, 2 * unit, "uw", rank=0)
    for i in range(n):
        add(s_lvl[0], u[i], out_deg[i], 0, unit, "feed_u", in_tree=True)
    for j in range(n):
        add(wn[j], t_lvl[0], in_deg[j], 0, unit, "drain_w", in_tree=True)

    # each level's edge capacity is the routable amount one level down
    maxflow_arcs = [(tail, head, cap) for tail, head, cap, *_ in arcs]
    level_flow = [solve_max_flow(node_count, maxflow_arcs, s_lvl[0], t_lvl[0])[0]]
    for i in range(1, k):
        cap = level_flow[-1]
        shortcut_lo = (2 ** (i + 3) - 1) * unit
        add(s_lvl[i], s_lvl[i - 1], cap, 0, unit, "rail_s", in_tree=True)
        add(t_lvl[i - 1], t_lvl[i], cap, 0, unit, "rail_t", in_tree=True)
        add(s_lvl[i], t_lvl[i - 1], cap, shortcut_lo, 2 * unit, "shortcut_down")
        add(s_lvl[i - 1], t_lvl[i], cap, shortcut_lo, 2 * unit, "shortcut_up")
        for tail, head, cap_, lo_, rank_ in arcs[-4:]:
            maxflow_arcs.append((tail, head, cap_))
        level_flow.append(solve_max_flow(node_count, maxflow_arcs, s_lvl[i], t_lvl[i])[0])
    flow_f = level_flow[-1]

    expensive_lo = (2 ** (k + 5) - 1) * unit
    bridge_lo = (2 ** (k + 4) - 1) * unit
    for i in range(1, M):
        add(an[i], an[i - 1], None, expensive_lo, unit, "chain_a", in_tree=True)
    for i in range(M):
        add(s, an[i], flow_f, 0, unit, "supply_a", in_tree=(i == 0))
    add(an[0], s_lvl[k - 1], None, bridge_lo, unit, "bridge_a", in_tree=True)
    for i in range(1, M):
        add(bn[i], bn[i - 1], None, expensive_lo, unit, "chain_b", in_tree=True)
    for i in range(M):
        add(s, bn[i], flow_f, 0, unit, "supply_b")
    add(bn[0], t_lvl[k - 1], None, expensive_lo, unit, "bridge_b", in_tree=True)
    for i in range(1, M):
        add(cn[i - 1], cn[i], None, expensive_lo, unit, "chain_c", in_tree=True)
    for i in range(M):
        add(cn[i], t, flow_f, 0, unit, "drain_c")
    add(s_lvl[k - 1], cn[0], None, expensive_lo, unit, "bridge_c", in_tree=True)
    for i in range(1, M):
        add(dn[i - 1], dn[i], None, expensive_lo, unit, "chain_d", in_tree=True)
    for i in range(M):
        add(dn[i], t, flow_f, 0, unit, "drain_d", in_tree=(i == 0))
    add(t_lvl[k - 1], dn[0], None, bridge_lo, unit, "bridge_d", in_tree=True)
    q_edges = []
    q_path = [s] + qn + [t]
    for fr, to in zip(q_path, q_path[1:]):
        q_edges.append(len(arcs))
        add(fr, to, None, expensive_lo, unit, "chain_q", in_tree=True)

    demand = 2 * M * flow_f
    budgets = [Fraction(0)] * node_count
    budgets[s] = Fraction(demand)
    budgets[t] = Fraction(-demand)

    net = FlowNetwork.from_data(
        node_count, arcs, budgets=budgets, node_names=names, edge_labels=labels
    )
    values = [Fraction(0)] * net.edge_count
    for idx in q_edges:
        values[idx] = Fraction(demand)
    inst = SmoothedInstance(
        network=net, intervals=tuple(intervals), phi=phi, starting_flow=Flow(tuple(values))
    )
    tree_set = frozenset(tree)
    structure = SpanningTreeStructure(
        tree_edges=tree_set,
        lower=frozenset(idx for idx in range(net.edge_count) if idx not in tree_set),
        upper=frozenset(),
        root=s,
    )
    return _self_check(inst), structure


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
