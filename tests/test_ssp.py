"""Shortest-path augmentation order and tie-breaking."""

import hashlib
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import lcm

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from flowlab import Flow, FlowNetwork, check_feasible, flow_cost, residual, verify_optimality
from flowlab import core, ssp
from flowlab.core import Edge, InfeasibleError, IterationCapExceeded
from flowlab.generators import (
    NsParams,
    gen_ns_lower_bound,
    predicted_ns_pivots,
    sample_costs,
    strip_q_chain,
)
from flowlab.mmcc import mmcc_solve
from flowlab.ssp import (
    NegativeCycleError,
    concentrate_budgets,
    ssp_solve,
    zero_budget_copy,
)

from conftest import random_simple_digraph
from reference import cheapest_path, distances_to_sink, reference_ssp


def test_distances_to_sink_simple_chain():
    net = FlowNetwork.from_data(3, [(0, 1, 1, 2), (1, 2, 1, 3)])
    r = residual(net, Flow.zero(2))
    assert distances_to_sink(r, 2) == [Fraction(5), Fraction(3), Fraction(0)]


def test_distances_to_sink_unreachable_is_none():
    net = FlowNetwork.from_data(3, [(0, 1, 1, 2)])
    r = residual(net, Flow.zero(1))
    dist = distances_to_sink(r, 2)
    assert dist[0] is None and dist[1] is None and dist[2] == 0


def test_distances_to_sink_flags_negative_cycle():
    net = FlowNetwork.from_data(
        3, [(0, 1, 1, -1), (1, 2, 1, -1), (2, 0, 1, -1)]
    )
    r = residual(net, Flow.zero(3))
    with pytest.raises(NegativeCycleError):
        distances_to_sink(r, 0)


def test_cheapest_path_prefers_lexicographically_smaller_nodes():
    net = FlowNetwork.from_data(
        4,
        [(0, 1, 5, 1), (1, 3, 5, 1), (0, 2, 5, 1), (2, 3, 5, 1)],
    )
    r = residual(net, Flow.zero(4))
    path = cheapest_path(r, 0, 3)
    assert [e.tail for e in path] + [3] == [0, 1, 3]


def test_ssp_single_path():
    net = FlowNetwork.from_data(3, [(0, 1, 2, 1), (1, 2, 2, 1)])
    trace = ssp_solve(net, 0, 2, 2)
    assert trace.step_count == 1
    assert trace.steps[0].path == (0, 1, 2)
    assert trace.steps[0].cost == 2
    assert trace.steps[0].amount == 2
    assert trace.final_flow.values == (Fraction(2), Fraction(2))


def test_ssp_moves_to_pricier_route_when_cheap_one_fills():
    net = FlowNetwork.from_data(
        4,
        [(0, 1, 1, 0), (1, 3, 1, 0), (0, 2, 5, 3), (2, 3, 5, 3)],
    )
    trace = ssp_solve(net, 0, 3, 3)
    assert [s.path for s in trace.steps] == [(0, 1, 3), (0, 2, 3)]
    assert [s.cost for s in trace.steps] == [Fraction(0), Fraction(6)]
    assert [s.amount for s in trace.steps] == [Fraction(1), Fraction(2)]


def test_ssp_uses_backward_edges():
    net = FlowNetwork.from_data(
        4,
        [
            (0, 1, 1, 1),
            (1, 3, 1, 1),
            (1, 2, 1, 0),
            (0, 2, 1, 4),
            (2, 3, 1, 1),
        ],
    )
    trace = ssp_solve(net, 0, 3, 2)
    # the first unit takes the all-cheap zigzag, the second undoes the
    # middle edge from the other side
    assert trace.steps[0].path == (0, 1, 2, 3)
    assert trace.steps[0].cost == 2
    assert trace.steps[1].path == (0, 2, 1, 3)
    assert trace.steps[1].cost == 5
    shipped = replace(net, budgets=(Fraction(2), Fraction(0), Fraction(0), Fraction(-2)))
    assert check_feasible(shipped, trace.final_flow) is None
    assert flow_cost(net, trace.final_flow) == 7
    assert verify_optimality(net, trace.final_flow) is None


def test_ssp_path_costs_never_decrease():
    rng = random.Random(81)
    checked = 0
    for _ in range(60):
        n = rng.randint(3, 7)
        m = rng.randint(3, 10)
        pairs = random_simple_digraph(rng, n, m)
        net = FlowNetwork.from_data(
            n,
            [
                (t, h, rng.randint(1, 6), Fraction(rng.randint(0, 9), rng.randint(1, 4)))
                for t, h in pairs
            ],
        )
        source, sink = 0, n - 1
        try:
            trace = ssp_solve(net, source, sink, 3)
        except (InfeasibleError, ValueError):
            continue
        costs = trace.path_costs()
        for before, after in zip(costs, costs[1:]):
            assert before <= after
        for idx, e in enumerate(net.edges):
            assert 0 <= trace.final_flow[idx]
            assert e.capacity is None or trace.final_flow[idx] <= e.capacity
        checked += 1
    assert checked > 10


def test_ssp_zero_demand_returns_zero_flow():
    net = FlowNetwork.from_data(3, [(0, 1, 2, 1), (1, 2, 2, 1)])
    trace = ssp_solve(net, 0, 2, 0)
    assert trace.step_count == 0
    assert trace.final_flow == Flow.zero(2)


def test_ssp_infeasible_demand():
    net = FlowNetwork.from_data(3, [(0, 1, 2, 1), (1, 2, 2, 1)])
    with pytest.raises(InfeasibleError):
        ssp_solve(net, 0, 2, 5)


def test_ssp_infeasible_demand_on_a_network_without_edges():
    net = FlowNetwork.from_data(2, [])
    with pytest.raises(InfeasibleError, match="no residual path left with 1 of 1"):
        ssp_solve(net, 0, 1, 1)


def test_ssp_rejects_nonzero_budgets_and_bad_endpoints():
    net = FlowNetwork.from_data(2, [(0, 1, 2, 1)], budgets=[1, -1])
    with pytest.raises(ValueError):
        ssp_solve(net, 0, 1, 1)
    clean = FlowNetwork.from_data(2, [(0, 1, 2, 1)])
    with pytest.raises(ValueError):
        ssp_solve(clean, 0, 0, 1)
    with pytest.raises(ValueError):
        ssp_solve(clean, 0, 5, 1)
    with pytest.raises(ValueError):
        ssp_solve(clean, 0, 1, -2)


def test_concentrate_budgets_layout():
    net = FlowNetwork.from_data(
        3,
        [(0, 1, 3, 1), (1, 2, 3, 1)],
        budgets=[2, 0, -2],
        node_names=["a", "b", "c"],
    )
    widened, source, sink, demand = concentrate_budgets(net)
    assert (source, sink, demand) == (3, 4, 2)
    assert widened.node_count == 5
    assert all(b == 0 for b in widened.budgets)
    added = widened.edges[2:]
    assert [(e.tail, e.head, e.capacity, e.cost) for e in added] == [
        (3, 0, Fraction(2), Fraction(0)),
        (2, 4, Fraction(2), Fraction(0)),
    ]
    assert widened.node_names == ("a", "b", "c", "super_source", "super_sink")
    assert widened.edges[:2] == net.edges
    assert widened.edge_labels is None
    labelled = FlowNetwork.from_data(
        3, [(0, 1, 3, 1), (1, 2, 3, 1)], budgets=[2, 0, -2], edge_labels=["x", "y"]
    )
    widened, *_ = concentrate_budgets(labelled)
    assert widened.edge_labels == ("x", "y", "supply", "drain")
    assert widened.node_names is None


@pytest.mark.parametrize("budgets", [(0, -1), (1, -2)], ids=["no_supply", "short_supply"])
def test_concentrate_budgets_rejects_budgets_that_do_not_sum_to_zero(budgets):
    net = FlowNetwork.from_data(2, [(0, 1, 1, 1)], budgets=budgets)
    with pytest.raises(InfeasibleError, match="budgets sum to -1, not zero"):
        concentrate_budgets(net)


def _fraction_concentrate_budgets(net):
    """``concentrate_budgets`` as it was with ``Fraction`` sums and signs."""
    total = sum(net.budgets, Fraction(0))
    if total != 0:
        raise InfeasibleError("budgets sum to %s, not zero" % total)
    n = net.node_count
    edges = list(net.edges)
    labels = list(net.edge_labels) if net.edge_labels else ["" for _ in net.edges]
    for v, b in enumerate(net.budgets):
        if b > 0:
            edges.append(Edge(n, v, b, Fraction(0)))
            labels.append("supply")
        elif b < 0:
            edges.append(Edge(v, n + 1, -b, Fraction(0)))
            labels.append("drain")
    names = None if net.node_names is None else (*net.node_names, "super_source", "super_sink")
    demand = sum((b for b in net.budgets if b > 0), Fraction(0))
    labels = tuple(labels) if net.edge_labels else None
    widened = FlowNetwork(n + 2, tuple(edges), (Fraction(0),) * (n + 2), names, labels)
    return widened, n, n + 1, demand


def test_concentrate_budgets_matches_the_fraction_sums():
    rng = random.Random(276)
    seen = Counter()
    for trial in range(300):
        n = rng.randint(1, 7)
        pairs = random_simple_digraph(rng, n, rng.randint(0, n * (n - 1) // 2)) if n > 1 else []
        edges = [(t, h, rng.randint(1, 5), Fraction(rng.randint(-9, 9), 7)) for t, h in pairs]
        den = rng.choice([1, 6, 2**36])
        budgets = [Fraction(rng.randint(-9, 9), rng.randint(1, den)) for _ in range(n)]
        if trial % 3:
            budgets[-1] -= sum(budgets, Fraction(0))  # balanced
        names = ["v%d" % v for v in range(n)] if rng.random() < 0.5 else None
        labels = ["e%d" % i for i in range(len(edges))] if rng.random() < 0.5 else None
        net = FlowNetwork.from_data(n, edges, budgets, names, labels)
        try:
            expected = _fraction_concentrate_budgets(net)
        except InfeasibleError as error:
            with pytest.raises(InfeasibleError) as info:
                concentrate_budgets(net)
            assert str(info.value) == str(error)
            seen["unbalanced"] += 1
            continue
        got = concentrate_budgets(net)
        assert got == expected
        assert type(got[3]) is Fraction
        assert (got[0].node_names, got[0].edge_labels) == (
            expected[0].node_names,
            expected[0].edge_labels,
        )
        seen["balanced"] += 1
    assert seen["balanced"] > 150 and seen["unbalanced"] > 50


def test_ssp_on_concentrated_network_matches_cycle_canceling():
    rng = random.Random(82)
    solved = 0
    for _ in range(80):
        n = rng.randint(3, 6)
        m = rng.randint(3, 9)
        pairs = random_simple_digraph(rng, n, m)
        edges = [
            (t, h, rng.randint(1, 6), Fraction(rng.randint(0, 9), rng.randint(1, 4)))
            for t, h in pairs
        ]
        budgets = [Fraction(0)] * n
        for _ in range(max(1, n // 2)):
            a, b = rng.sample(range(n), 2)
            amt = rng.randint(1, 2)
            budgets[a] += amt
            budgets[b] -= amt
        net = FlowNetwork.from_data(n, edges, budgets=budgets)
        widened, source, sink, demand = concentrate_budgets(net)
        try:
            trace = ssp_solve(widened, source, sink, demand)
            reference = mmcc_solve(net)
        except InfeasibleError:
            continue
        restricted = Flow(trace.final_flow.values[: net.edge_count])
        assert check_feasible(net, restricted) is None
        assert flow_cost(net, restricted) == flow_cost(net, reference.final_flow)
        assert verify_optimality(net, restricted) is None
        solved += 1
    assert solved > 15


def outcome(solve, *args):
    """Steps and final flow of a run, or the type and message of the
    error it raised."""
    try:
        result = solve(*args)
    except (InfeasibleError, NegativeCycleError) as exc:
        return type(exc), str(exc)
    if isinstance(result, tuple):
        return result
    return result.steps, result.final_flow


def twin_run(params, cost_seed):
    """The detour-free twin of ns_lower, ready for ``ssp_solve``."""
    lower, _ = gen_ns_lower_bound(NsParams(*params))
    twin = strip_q_chain(lower)
    names = twin.network.node_names
    net = zero_budget_copy(twin.realize(sample_costs(twin, cost_seed)))
    return net, names.index("s"), names.index("t"), predicted_ns_pivots(lower)


@pytest.mark.parametrize(
    "params, cost_seed",
    [
        pytest.param(params, seed, id="%d-%d-%d-seed%d" % (params + (seed,)))
        for params, seeds in (((6, 10, 64), range(3)), ((8, 16, 128), range(2)))
        for seed in seeds
    ],
)
def test_ssp_solve_replays_reference_on_ns_lower_twin(params, cost_seed):
    net, source, sink, demand = twin_run(params, cost_seed)
    trace = ssp_solve(net, source, sink, demand)
    steps, flow = reference_ssp(net, source, sink, demand)
    assert len(steps) == demand
    assert trace.steps == steps
    assert trace.final_flow == flow


@st.composite
def random_runs(draw):
    """A zero-budget network with negative and rational costs, rational
    and unbounded capacities, and a rational demand from the first node
    to the last."""
    n = draw(st.integers(2, 7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    size = min(len(pairs), 2 * n)
    chosen = draw(
        st.lists(st.sampled_from(pairs), min_size=max(1, size // 2), max_size=size, unique=True)
    )
    edges = []
    for a, b in chosen:
        # mostly toward the sink, so that many runs take several paths
        tail, head = (a, b) if draw(st.integers(0, 3)) else (b, a)
        cap = draw(
            st.one_of(
                st.none(),
                st.builds(Fraction, st.integers(0, 4), st.integers(1, 3)),
            )
        )
        cost = Fraction(draw(st.integers(-6, 9)), draw(st.integers(1, 4)))
        edges.append((tail, head, cap, cost))
    source, sink = 0, n - 1
    demand = Fraction(draw(st.integers(0, 16)), draw(st.integers(1, 3)))
    return FlowNetwork.from_data(n, edges), source, sink, demand


@settings(max_examples=300, deadline=None)
@given(random_runs())
def test_ssp_solve_matches_reference_on_random_networks(run):
    assert outcome(ssp_solve, *run) == outcome(reference_ssp, *run)


def test_ssp_solve_raises_on_negative_cycle_at_the_first_step():
    # the triangle 1 -> 2 -> 3 -> 1 costs -1 and reaches the sink 4
    edges = [(0, 1, 2, 1), (1, 2, 1, -2), (2, 3, 1, 0), (3, 1, 1, 1), (3, 4, 2, 1)]
    net = FlowNetwork.from_data(5, edges)
    with pytest.raises(NegativeCycleError) as info:
        ssp_solve(net, 0, 4, 1)
    assert outcome(reference_ssp, net, 0, 4, 1) == (NegativeCycleError, str(info.value))
    # the same triangle cut off from the sink raises too, at any demand
    cut = FlowNetwork.from_data(5, edges[:4] + [(0, 4, 2, 1)])
    for demand in (2, 0):
        assert outcome(ssp_solve, cut, 0, 4, demand) == (NegativeCycleError, str(info.value))
        assert outcome(reference_ssp, cut, 0, 4, demand) == (NegativeCycleError, str(info.value))


def test_ssp_raises_on_a_negative_cycle_that_cannot_reach_the_sink():
    # the cycle 2 -> 3 -> 2 costs -1: shipping the unit on edge 0 alone,
    # at cost 1, is not optimal, and MMCC's cost 0 is
    edges = [(0, 1, 1, 1), (2, 3, 1, -1), (3, 2, 1, 0)]
    net = FlowNetwork.from_data(4, edges, budgets=[1, -1, 0, 0])
    assert flow_cost(net, mmcc_solve(net).final_flow) == 0
    with pytest.raises(NegativeCycleError, match="negative residual cycle"):
        ssp_solve(*concentrate_budgets(net))
    with pytest.raises(NegativeCycleError, match="negative residual cycle"):
        reference_ssp(*concentrate_budgets(net))


def test_ssp_solve_iteration_cap_trace_holds_the_first_steps():
    net, source, sink, demand = twin_run((6, 10, 64), 0)
    with pytest.raises(IterationCapExceeded, match="demand not met after 2 augmentations") as info:
        ssp_solve(net, source, sink, demand, iteration_cap=2)
    steps, flow = reference_ssp(net, source, sink, demand, limit=2)
    assert info.value.trace.steps == steps
    assert info.value.trace.final_flow == flow
    assert flow != Flow.zero(net.edge_count)


@settings(max_examples=60, deadline=None)
@given(random_runs())
def test_ssp_solve_optimal_cost_matches_networkx(run):
    net, source, sink, demand = run
    # non-negative costs keep the residual free of negative cycles, and
    # unbounded capacities bounded by the demand
    net = replace(
        net,
        edges=tuple(
            replace(e, cost=abs(e.cost), capacity=demand if e.capacity is None else e.capacity)
            for e in net.edges
        ),
    )
    try:
        trace = ssp_solve(net, source, sink, demand)
    except InfeasibleError:
        return
    # integer-scaled copy: costs by their common denominator, capacities
    # and the demand by theirs
    cost_scale = lcm(*(e.cost.denominator for e in net.edges))
    flow_scale = lcm(*(e.capacity.denominator for e in net.edges), demand.denominator)
    graph = nx.DiGraph()
    graph.add_nodes_from(range(net.node_count), demand=0)
    graph.nodes[source]["demand"] = -int(demand * flow_scale)
    graph.nodes[sink]["demand"] = int(demand * flow_scale)
    for e in net.edges:
        graph.add_edge(
            e.tail,
            e.head,
            weight=int(e.cost * cost_scale),
            capacity=int(e.capacity * flow_scale),
        )
    expected = Fraction(nx.min_cost_flow_cost(graph), cost_scale * flow_scale)
    assert flow_cost(net, trace.final_flow) == expected


def test_ssp_solve_walks_on_past_a_zero_cost_cycle_through_the_source():
    # 0 -> 1 -> 2 -> 0 is a cycle of tight zero-cost arcs, and the arc
    # that gave node 2 its label leads back to the source; the smallest
    # cheapest path still goes on from 2 to the sink
    net = FlowNetwork.from_data(
        4, [(0, 3, 1, 0), (2, 0, 1, 0), (1, 2, 1, 0), (0, 1, 1, 0), (2, 3, 1, 0)]
    )
    trace = ssp_solve(net, 0, 3, 2)
    assert [s.path for s in trace.steps] == [(0, 1, 2, 3), (0, 3)]
    assert outcome(ssp_solve, net, 0, 3, 2) == outcome(reference_ssp, net, 0, 3, 2)


def test_ssp_solve_replays_reference_through_zero_cost_ties():
    # costs in {0, 1, 2} and small capacities: many equally cheap paths
    # and zero-cost cycles of tight arcs at every step
    rng = random.Random(84)
    multi_step = 0
    for _ in range(1500):
        n = rng.randint(3, 7)
        pairs = random_simple_digraph(rng, n, rng.randint(n, 3 * n))
        edges = [(t, h, rng.randint(1, 3), rng.randint(0, 2)) for t, h in pairs]
        net = FlowNetwork.from_data(n, edges)
        demand = rng.randint(1, 8)
        got = outcome(ssp_solve, net, 0, n - 1, demand)
        assert got == outcome(reference_ssp, net, 0, n - 1, demand)
        multi_step += got[0] is not InfeasibleError and len(got[0]) > 1
    assert multi_step > 100


def kernel_labels(net, source, sink, demand):
    """Run ``ssp_solve`` and return its residual arcs, the arc ids of
    each path it pushed, and, for every step, the flow and arc rooms the
    kernel's labels were computed on, with the potentials, the labels
    and the label arcs ``nxt``.  The solve must run Bellman–Ford once,
    the negative-cycle check.  Before every Dijkstra run, each node's
    kept in-arc list must be the arcs with room into it, in ascending arc
    id, with their tails and costs, and every node must have a
    potential.  A demand that cannot be met ends the run as usual."""
    arcs, pushed, seen, checks = [], [], [], []

    def recorded(make):
        # the kernel's arcs: a copy of the start's, or arcs of their own
        def made(*args, **kwargs):
            arcs.append(make(*args, **kwargs))
            return arcs[-1]

        return made

    def push(res, path, amount):
        pushed.append(list(path))
        push_arcs(res, path, amount)

    def bellman_ford(*args):
        checks.append(args)
        return core._bellman_ford(*args)

    def dijkstra_labels(n, sink, in_arcs, pot, nxt, source):
        res = arcs[-1]
        expected = [[] for _ in range(n)]
        for a in res.with_room():
            expected[res.head[a]].append((a, res.tail[a], res.cost[a]))
        # a float cost equals the integer it copies
        assert in_arcs == expected
        assert None not in pot
        pot = list(pot)
        labels = dijkstra(n, sink, in_arcs, pot, nxt, source)
        seen.append((res.flow(), list(res.room), pot, list(labels), list(nxt)))
        return labels

    dijkstra, push_arcs = ssp._dijkstra_labels, core._ResidualArcs.push
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ssp, "_ResidualArcs", recorded(ssp._ResidualArcs))
        patch.setattr(core._ResidualArcs, "copy_for", recorded(core._ResidualArcs.copy_for))
        patch.setattr(core._ResidualArcs, "push", push)
        patch.setattr(ssp, "_bellman_ford", bellman_ford)
        patch.setattr(ssp, "_dijkstra_labels", dijkstra_labels)
        try:
            ssp_solve(net, source, sink, demand)
        except InfeasibleError:
            pass
    assert len(checks) == 1
    return arcs[-1], pushed, seen


def assert_labels_are_distances(net, source, sink, demand):
    """At every step each kernel label is the node's distance to the
    sink in that step's residual network (``distances_to_sink``, in the
    arcs' cost scale), capped at the source's distance above the node's
    potential: ``pot[v] + min(exact[v] - pot[v], exact[source] -
    pot[source])``, with a missing distance read as infinite.  So every
    label is exact when the source cannot reach the sink.  The label arc
    chains of the source and of every node strictly nearer than it run
    to the sink over tight arcs with room without repeating a node, and
    the path taken is ``cheapest_path``'s.  Labels may be floats, and
    must then be integral.  Returns the number of steps."""
    res, pushed, seen = kernel_labels(net, source, sink, demand)
    for k, (flow, room, pot, labels, nxt) in enumerate(seen):
        r = residual(net, flow)
        exact = [None if d is None else d * res.cost_scale for d in distances_to_sink(r, sink)]
        assert all(d is None or d == int(d) for d in labels + pot)
        labels = [None if d is None else int(d) for d in labels]
        pot = [int(p) for p in pot]

        def above(v):
            return float("inf") if exact[v] is None else exact[v] - pot[v]

        cap = above(source)
        expected = [pot[v] + min(above(v), cap) for v in range(len(pot))]
        assert labels == [None if d == float("inf") else d for d in expected]
        for start, label in enumerate(labels):
            if label is None or not (start == source or above(start) < cap):
                continue
            chain = [start]
            v = start
            while v != sink:
                a = nxt[v]
                w = res.head[a]
                assert res.tail[a] == v and room[a] != 0
                assert labels[w] is not None and res.cost[a] + labels[w] == labels[v]
                assert w not in chain
                chain.append(w)
                v = w
        path = cheapest_path(r, source, sink)
        if path is None:
            assert k == len(pushed)
        else:
            assert [res.head[a] for a in pushed[k]] == [e.head for e in path]
    assert len(pushed) in (len(seen), len(seen) - 1)
    return len(pushed)


@pytest.mark.parametrize(
    "costs, max_nodes", [((0, 1, 2), 7), ((0, 0, 0, 1), 8)], ids=["costs-0-1-2", "mostly-zero"]
)
def test_ssp_labels_are_the_reference_distances_through_zero_cost_ties(costs, max_nodes):
    # costs as in the zero-cost-tie replay, then mostly zero: most steps
    # settle many nodes at the key of the node that gave them their
    # label, and the path walk often leaves the label chain
    rng = random.Random(84)
    steps = 0
    for _ in range(1500):
        n = rng.randint(3, max_nodes)
        pairs = random_simple_digraph(rng, n, rng.randint(n, 3 * n))
        edges = [(t, h, rng.randint(1, 3), rng.choice(costs)) for t, h in pairs]
        net = FlowNetwork.from_data(n, edges)
        steps += assert_labels_are_distances(net, 0, n - 1, rng.randint(1, 8))
    assert steps > 1200


@pytest.mark.parametrize(
    "params, cost_seed",
    [((6, 10, 64), 0), ((6, 10, 64), 1), ((8, 16, 128), 0)],
    ids=["6-10-64-seed0", "6-10-64-seed1", "8-16-128-seed0"],
)
def test_ssp_labels_are_the_reference_distances_on_ns_lower_twin(params, cost_seed):
    net, source, sink, demand = twin_run(params, cost_seed)
    assert assert_labels_are_distances(net, source, sink, demand) == demand


def test_ssp_first_labels_are_distances_past_a_negative_arc_out_of_the_sink():
    # the arc 3 -> 4 gives the negative-cycle check's labels -5 at the
    # sink; shifted to zero there, they still give distances to the sink
    edges = [(0, 1, 1, 1), (1, 3, 1, 1), (0, 2, 2, 2), (2, 3, 2, 0), (3, 4, 1, -5)]
    net = FlowNetwork.from_data(5, edges)
    assert assert_labels_are_distances(net, 0, 3, 3) == 2


def label_arithmetic(net, source, sink, demand):
    """The outcome of ``ssp_solve``, the types of the arc costs that its
    negative-cycle check and label searches read, and the labels of each
    Dijkstra search."""
    kinds, searches = set(), []

    def bellman_ford(n, live, dist, nxt):
        kinds.update(type(c) for _, _, _, c in live)
        return core._bellman_ford(n, live, dist, nxt)

    def dijkstra_labels(n, sink, in_arcs, pot, nxt, source):
        kinds.update(type(c) for kept in in_arcs for _, _, c in kept)
        searches.append(dijkstra(n, sink, in_arcs, pot, nxt, source))
        return searches[-1]

    dijkstra = ssp._dijkstra_labels
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ssp, "_bellman_ford", bellman_ford)
        patch.setattr(ssp, "_dijkstra_labels", dijkstra_labels)
        got = outcome(ssp_solve, net, source, sink, demand)
    return got, kinds, searches


def float_labels_are_exact(net):
    """Whether 4 (n + 1) times the largest scaled cost is below 2**53."""
    scale = lcm(*(e.cost.denominator for e in net.edges))
    top = max(abs(e.cost) * scale for e in net.edges)
    return 4 * (net.node_count + 1) * top < 2**53


def random_priced_run(rng, n, cost):
    """A zero-budget network on ``n`` nodes with costs from ``cost()``,
    rational and unbounded capacities, and a rational demand from the
    first node to the last, mostly along edges toward the last node."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = []
    for a, b in rng.sample(pairs, rng.randint(min(len(pairs), n), min(len(pairs), 3 * n))):
        tail, head = (a, b) if rng.randrange(4) else (b, a)
        cap = None if rng.randrange(4) == 0 else Fraction(rng.randint(0, 4), rng.randint(1, 3))
        edges.append((tail, head, cap, cost()))
    demand = Fraction(rng.randint(0, 16), rng.randint(1, 3))
    return FlowNetwork.from_data(n, edges), 0, n - 1, demand


def assert_labels_match_the_reference(runs):
    """Every run of ``runs`` ends as ``reference_ssp`` does, and its label
    searches read float costs exactly when ``float_labels_are_exact``
    says so (a run with no arc with room reads none).  Returns how many
    runs read each type, and how many Dijkstra searches they ran."""
    kinds = Counter()
    dijkstras = 0
    for run in runs:
        got, seen, searches = label_arithmetic(*run)
        assert got == outcome(reference_ssp, *run)
        kind = float if float_labels_are_exact(run[0]) else int
        assert seen <= {kind}
        kinds[kind] += bool(seen)
        dijkstras += len(searches)
    return kinds, dijkstras


@pytest.mark.parametrize("scale, kind", [(1, float), (2**50, int)], ids=["floats", "ints"])
def test_ssp_labels_match_the_reference_in_either_arithmetic(scale, kind):
    # negative and rational costs, as they are, then scaled by 2**50 and
    # moved by a few units, which nearly always puts the labels beyond
    # exact floats, and their sums off the floats' grid
    rng = random.Random(29)

    def cost():
        jitter = rng.randint(-3, 3) if scale > 1 else 0
        return Fraction(rng.randint(-6, 9) * scale + jitter, rng.randint(1, 4))

    runs = [random_priced_run(rng, rng.randint(2, 7), cost) for _ in range(400)]
    kinds, dijkstras = assert_labels_match_the_reference(runs)
    assert kinds[kind] > 300
    assert dijkstras > 200


@pytest.mark.parametrize("over, kind", [(0, float), (1, int)], ids=["under", "over"])
def test_ssp_labels_match_the_reference_at_the_float_bound(over, kind):
    # integer costs that differ only in their last bits: the largest is
    # the largest the float labels allow on the network's nodes, or one
    # more; a fifth of them are negative
    rng = random.Random(53)
    runs = []
    for _ in range(200):
        n = rng.randint(3, 7)
        top = (2**53 - 1) // (4 * (n + 1)) + over

        def cost():
            size = top - rng.randrange(16) if rng.randrange(4) else top
            return -size if rng.randrange(5) == 0 else size

        runs.append(random_priced_run(rng, n, cost))
    kinds, dijkstras = assert_labels_match_the_reference(runs)
    assert kinds[kind] > 120
    assert dijkstras > 150


def test_ssp_capped_labels_stay_within_the_float_bound():
    # acyclic nets whose edges run up the node order, with costs at the
    # float bound, a third of them negative, and the maximum flow as the
    # demand: a few middle nodes lead only to each other, so they never
    # reach the sink and every search caps their labels, step after step,
    # at the source's distance above their potentials from the
    # negative-cycle check (a node that reaches the sink keeps reaching
    # it while the source does: each path opens the reverses of its arcs,
    # back to the source)
    rng = random.Random(61)
    capped = 0
    for _ in range(100):
        n = rng.randint(5, 9)
        dead = set(rng.sample(range(1, n - 1), rng.randint(1, (n - 2) // 2)))
        bound = (2**53 - 1) // (4 * (n + 1))
        edges = []
        for a in range(n):
            for b in range(a + 1, n):
                if (a in dead and b not in dead) or rng.randrange(4) == 0:
                    continue
                size = bound - rng.randrange(16)
                edges.append((a, b, rng.randint(1, 2), -size if rng.randrange(3) == 0 else size))
        graph = nx.DiGraph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from((a, b, {"capacity": cap}) for a, b, cap, _ in edges)
        run = (FlowNetwork.from_data(n, edges), 0, n - 1, nx.maximum_flow_value(graph, 0, n - 1))
        got, seen, searches = label_arithmetic(*run)
        assert got == outcome(reference_ssp, *run)
        assert seen == {float}
        top = max(abs(c) for _, _, _, c in edges)
        for labels in searches:
            assert all(d is not None and abs(d) <= 3 * (n - 1) * top for d in labels)
        capped += len(searches)
    assert capped > 250


def test_ssp_float_labels_find_a_negative_cycle_beyond_exact_floats():
    # a 7-cycle of arcs at minus the float bound, whose edge ids rise
    # against the sink's direction, so that each round of the check from
    # zero labels goes round it once and the labels pass 2**53; the cycle
    # is still found, before any Dijkstra search
    n = 8
    top = (2**53 - 1) // (4 * (n + 1))
    edges = [(v - 1, v, 1, -top) for v in range(7, 1, -1)] + [(7, 1, 1, -top), (0, 1, 1, 1)]
    net = FlowNetwork.from_data(n, edges)
    checks = []

    def bellman_ford(n, live, dist, nxt):
        lowered = core._bellman_ford(n, live, dist, nxt)
        checks.append(({type(c) for _, _, _, c in live}, min(dist)))
        return lowered

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ssp, "_bellman_ford", bellman_ford)
        got = outcome(ssp_solve, net, 0, 7, 1)
    [(seen, least)] = checks
    assert seen == {float}
    assert least < -(2**53)
    assert got == outcome(reference_ssp, net, 0, 7, 1) == (
        NegativeCycleError,
        "path costs keep dropping; negative residual cycle",
    )


def test_ssp_twin_labels_run_on_floats():
    net, source, sink, demand = twin_run((8, 16, 128), 0)
    got, seen, _ = label_arithmetic(net, source, sink, demand)
    assert seen == {float}
    assert len(got[0]) == demand


def test_ssp_solve_pins_the_ns_lower_twin_beyond_the_replays():
    # the twin of ns_lower(10, 40, 256), cost seed 0: 3200 steps, longer
    # than any reference replay runs
    net, source, sink, demand = twin_run((10, 40, 256), 0)
    trace = ssp_solve(net, source, sink, demand)
    lines = [
        "path %s cost %s amount %s" % (" ".join(map(str, s.path)), s.cost, s.amount)
        for s in trace.steps
    ]
    assert len(lines) == demand == 3200
    assert (
        hashlib.sha256("\n".join(lines).encode()).hexdigest()
        == "847366b3e15688f4302001edb3bfca4c707f410bc3b70b224d78b6620fa7aabe"
    )
    assert verify_optimality(net, trace.final_flow) is None
