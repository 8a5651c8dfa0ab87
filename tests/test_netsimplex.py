"""Tree-structure bookkeeping and pivot mechanics."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction
from math import lcm

import networkx as nx
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from flowlab import (
    CapacityViolation,
    Flow,
    FlowNetwork,
    IterationCapExceeded,
    UnboundedCycleError,
    check_feasible,
    flow_cost,
    verify_optimality,
)
from flowlab.generators import (
    NsParams,
    gen_ns_lower_bound,
    gen_random_smoothed,
    sample_costs,
)
from flowlab import core, netsimplex
from flowlab.mmcc import initial_feasible_flow, mmcc_solve
from flowlab.netsimplex import (
    InfeasibleStructureError,
    SpanningTreeStructure,
    basic_structure_from_flow,
    compute_potentials,
    ns_solve,
    tree_flow,
    validate_structure,
)
from flowlab.core import InfeasibleError

from conftest import random_network, random_simple_digraph
from reference import (
    entering_edge,
    nondegenerate_cycle_paths,
    pivot,
    reduced_cost,
    reference_basic_structure,
    reference_solve,
)


def square_network(middle_cap=4):
    """Two parallel 0->3 routes, the cheap one through node 1."""
    return FlowNetwork.from_data(
        4,
        [
            (0, 1, 4, 1),
            (1, 3, middle_cap, 1),
            (0, 2, 4, 5),
            (2, 3, 4, 5),
        ],
        budgets=[2, 0, 0, -2],
    )


def test_validate_structure_checks_partition_and_tree():
    net = square_network()
    good = SpanningTreeStructure(frozenset({0, 2, 3}), frozenset({1}), frozenset())
    assert validate_structure(net, good) is None

    overlap = SpanningTreeStructure(frozenset({0, 2, 3}), frozenset({0, 1}), frozenset())
    assert validate_structure(net, overlap).kind == "structure_overlap"

    missing = SpanningTreeStructure(frozenset({0, 2, 3}), frozenset(), frozenset())
    assert validate_structure(net, missing).kind == "structure_incomplete"

    short = SpanningTreeStructure(frozenset({0, 2}), frozenset({1, 3}), frozenset())
    assert validate_structure(net, short).kind == "tree_size"

    bad_root = SpanningTreeStructure(
        frozenset({0, 2, 3}), frozenset({1}), frozenset(), root=9
    )
    assert validate_structure(net, bad_root).kind == "bad_root"


def test_validate_structure_rejects_cyclic_tree():
    net = FlowNetwork.from_data(
        4,
        [(0, 1, 2, 0), (1, 2, 2, 0), (2, 0, 2, 0), (2, 3, 2, 0)],
    )
    s = SpanningTreeStructure(frozenset({0, 1, 2}), frozenset({3}), frozenset())
    assert validate_structure(net, s).kind == "tree_cycle"
    for entry in (tree_flow, compute_potentials, ns_solve):
        with pytest.raises(InfeasibleStructureError) as raised:
            entry(net, s)
        assert str(raised.value) == "tree_cycle: tree edges contain a cycle"


def test_validate_structure_rejects_uncapacitated_upper_edge():
    net = FlowNetwork.from_data(3, [(0, 1, 2, 0), (1, 2, 2, 0), (0, 2, None, 0)])
    s = SpanningTreeStructure(frozenset({0, 1}), frozenset(), frozenset({2}))
    assert validate_structure(net, s).kind == "uncapacitated_upper"
    # tree_flow, compute_potentials and ns_solve all refuse it with
    # validate_structure's kind and detail
    for entry in (tree_flow, compute_potentials, ns_solve):
        with pytest.raises(InfeasibleStructureError) as raised:
            entry(net, s)
        assert str(raised.value) == "uncapacitated_upper: edge 2 in upper set has no capacity"


def test_tree_flow_on_a_path():
    net = FlowNetwork.from_data(3, [(0, 1, 5, 1), (1, 2, 5, 1)], budgets=[2, 0, -2])
    s = SpanningTreeStructure(frozenset({0, 1}), frozenset(), frozenset())
    f = tree_flow(net, s)
    assert f.values == (Fraction(2), Fraction(2))


def test_tree_flow_routes_around_saturated_upper_edge():
    net = FlowNetwork.from_data(
        3,
        [(0, 1, 3, 1), (0, 2, 5, 1), (2, 1, 5, 1)],
        budgets=[4, -4, 0],
    )
    s = SpanningTreeStructure(frozenset({1, 2}), frozenset(), frozenset({0}))
    f = tree_flow(net, s)
    assert f.values == (Fraction(3), Fraction(1), Fraction(1))
    assert check_feasible(net, f) is None


def test_tree_flow_rejects_negative_or_overfull_tree_edges():
    backwards = FlowNetwork.from_data(2, [(0, 1, 2, 0)], budgets=[-1, 1])
    s = SpanningTreeStructure(frozenset({0}), frozenset(), frozenset())
    with pytest.raises(InfeasibleStructureError):
        tree_flow(backwards, s)

    overfull = FlowNetwork.from_data(2, [(0, 1, 2, 0)], budgets=[5, -5])
    with pytest.raises(InfeasibleStructureError):
        tree_flow(overfull, s)

    # every node is reached, but the three "tree" edges close a cycle
    triangle = FlowNetwork.from_data(
        3, [(0, 1, 5, 1), (1, 2, 5, 1), (0, 2, 5, 3)], budgets=[2, 0, -2]
    )
    cyclic = SpanningTreeStructure(frozenset({0, 1, 2}), frozenset(), frozenset())
    with pytest.raises(InfeasibleStructureError, match="^tree_size: tree has 3 edges for 3 nodes$"):
        tree_flow(triangle, cyclic)
    with pytest.raises(InfeasibleStructureError, match="^tree_size: tree has 3 edges for 3 nodes$"):
        compute_potentials(triangle, cyclic)


def test_tree_flow_rejects_sets_that_do_not_partition_the_edges():
    # tree_flow and compute_potentials refuse with ns_solve's text,
    # before any edge is left without a flow value or a root outside
    # the nodes is hung
    triangle = FlowNetwork.from_data(
        3, [(0, 1, 5, 1), (1, 2, 5, 1), (0, 2, 5, 3)], budgets=[2, 0, -2]
    )
    missing = SpanningTreeStructure(frozenset({0, 1}), frozenset(), frozenset())
    overlap = SpanningTreeStructure(frozenset({0, 1}), frozenset({1, 2}), frozenset())
    far_root = SpanningTreeStructure(frozenset({0, 1}), frozenset({2}), frozenset(), root=9)
    for s, expected in (
        (missing, "structure_incomplete: some edge belongs to no set"),
        (overlap, "structure_overlap: tree, lower, and upper sets overlap"),
        (far_root, "bad_root: root 9 is not a node"),
        (replace(far_root, root=-1), "bad_root: root -1 is not a node"),
    ):
        for entry in (tree_flow, compute_potentials, ns_solve):
            with pytest.raises(InfeasibleStructureError) as raised:
                entry(triangle, s)
            assert str(raised.value) == expected


def test_compute_potentials_follows_tree_costs():
    net = FlowNetwork.from_data(3, [(0, 1, None, 5), (1, 2, None, -2)])
    s = SpanningTreeStructure(frozenset({0, 1}), frozenset(), frozenset())
    assert compute_potentials(net, s) == (Fraction(0), Fraction(-5), Fraction(-3))

    # tree edge pointing back toward the root
    net2 = FlowNetwork.from_data(3, [(0, 1, None, 5), (2, 1, None, 4)])
    s2 = SpanningTreeStructure(frozenset({0, 1}), frozenset(), frozenset())
    assert compute_potentials(net2, s2) == (Fraction(0), Fraction(-5), Fraction(-1))


def test_tree_edges_have_zero_reduced_cost_on_random_structures():
    rng = random.Random(71)
    checked = 0
    for _ in range(100):
        net = random_network(rng, rng.randint(3, 7), rng.randint(3, 10), with_budgets=True)
        try:
            f = initial_feasible_flow(net)
            s, f2 = basic_structure_from_flow(net, f)
        except (InfeasibleError, InfeasibleStructureError):
            continue
        pot = compute_potentials(net, s)
        for idx in s.tree_edges:
            e = net.edges[idx]
            assert e.cost - pot[e.tail] + pot[e.head] == 0
        checked += 1
    assert checked > 15


def test_entering_edge_prefers_largest_violation_then_lowest_id():
    net = FlowNetwork.from_data(
        4,
        [(0, 1, 5, 0), (1, 2, 5, 0), (1, 3, 5, 0), (0, 2, 5, -1), (0, 3, 5, -1)],
    )
    s = SpanningTreeStructure(frozenset({0, 1, 2}), frozenset({3, 4}), frozenset())
    # both off-tree edges violate with reduced cost -1; lowest id wins
    assert entering_edge(net, s) == 3

    cheaper = FlowNetwork.from_data(
        4,
        [(0, 1, 5, 0), (1, 2, 5, 0), (1, 3, 5, 0), (0, 2, 5, -1), (0, 3, 5, -2)],
    )
    assert entering_edge(cheaper, s) == 4


def test_entering_edge_none_when_optimal():
    net = square_network()
    s = SpanningTreeStructure(frozenset({0, 1, 2}), frozenset({3}), frozenset())
    # tree carries everything through the cheap route already
    assert entering_edge(net, s) is None
    # the truly optimal structure after solving reports no candidate
    trace = ns_solve(net, SpanningTreeStructure(frozenset({0, 2, 3}), frozenset({1}), frozenset()))
    assert entering_edge(net, trace.final_structure) is None


def test_pivot_swaps_cheap_route_into_tree():
    net = square_network()
    s = SpanningTreeStructure(frozenset({0, 2, 3}), frozenset({1}), frozenset())
    step, structure, flow = pivot(net, s, 1)
    assert step.cycle == ((1, True), (3, False), (2, False), (0, True))
    assert step.amount == 2
    assert not step.degenerate
    assert step.entering_reduced_cost == -8
    # two blockers drain together; the lower edge id leaves
    assert step.leaving == 2
    assert flow.values == (Fraction(2), Fraction(2), Fraction(0), Fraction(0))
    assert structure.tree_edges == frozenset({0, 1, 3})
    assert structure.lower == frozenset({2})
    assert structure.upper == frozenset()
    assert entering_edge(net, structure) is None


def test_pivot_entering_edge_can_block_itself():
    net = square_network(middle_cap=1)
    s = SpanningTreeStructure(frozenset({0, 2, 3}), frozenset({1}), frozenset())
    step, structure, flow = pivot(net, s, 1)
    assert step.leaving == 1
    assert step.amount == 1
    assert structure.tree_edges == s.tree_edges
    assert structure.upper == frozenset({1})
    assert structure.lower == frozenset()
    assert flow.values == (Fraction(1), Fraction(1), Fraction(1), Fraction(1))
    assert entering_edge(net, structure) is None


def test_pivot_degenerate_when_blocking_headroom_is_zero():
    net = FlowNetwork.from_data(
        3, [(0, 1, 2, 0), (1, 2, 2, 0), (0, 2, 2, -1)]
    )
    s = SpanningTreeStructure(frozenset({0, 1}), frozenset({2}), frozenset())
    step, structure, flow = pivot(net, s, 2)
    assert step.degenerate
    assert step.amount == 0
    assert flow.values == (Fraction(0), Fraction(0), Fraction(0))
    assert step.leaving == 0
    assert structure.tree_edges == frozenset({1, 2})


def test_pivot_leaving_rank_overrides_edge_id():
    net = FlowNetwork.from_data(
        4,
        [
            (0, 1, 4, 1),
            (1, 3, 4, 1),
            (0, 2, 4, 5),
            (2, 3, 4, 5, 0),
        ],
        budgets=[2, 0, 0, -2],
    )
    s = SpanningTreeStructure(frozenset({0, 2, 3}), frozenset({1}), frozenset())
    step, _, _ = pivot(net, s, 1)
    # rank 0 beats the lower edge id among the two blockers
    assert step.leaving == 3


def test_pivot_strongly_feasible_takes_last_blocker_from_apex():
    net = FlowNetwork.from_data(
        4,
        [
            (0, 1, 4, 1),
            (1, 3, 4, 1),
            (0, 2, 4, 5),
            (2, 3, 4, 5, 0),
        ],
        budgets=[2, 0, 0, -2],
    )
    s = SpanningTreeStructure(frozenset({0, 2, 3}), frozenset({1}), frozenset())
    step, _, _ = pivot(net, s, 1, strongly_feasible=True)
    # walking 0 -> 1 -> 3 -> 2 -> 0 the later blocker is edge 2, rank ignored
    assert step.leaving == 2


def test_ns_solve_square_in_one_pivot():
    net = square_network()
    s = SpanningTreeStructure(frozenset({0, 2, 3}), frozenset({1}), frozenset())
    trace = ns_solve(net, s)
    assert trace.termination == "optimal"
    assert trace.pivot_count == 1
    assert trace.nondegenerate_count == 1
    assert flow_cost(net, trace.final_flow) == 4
    assert verify_optimality(net, trace.final_flow) is None


def test_ns_solve_rejects_broken_structure():
    net = square_network()
    s = SpanningTreeStructure(frozenset({0, 2}), frozenset({1, 3}), frozenset())
    with pytest.raises(InfeasibleStructureError):
        ns_solve(net, s)


def test_ns_solve_iteration_cap_carries_partial_trace():
    net = square_network()
    s = SpanningTreeStructure(frozenset({0, 2, 3}), frozenset({1}), frozenset())
    with pytest.raises(IterationCapExceeded) as info:
        ns_solve(net, s, iteration_cap=0)
    assert info.value.trace is not None
    assert info.value.trace.termination == "iteration_cap_hit"
    assert info.value.trace.pivot_count == 0


def test_basic_structure_from_flow_reproduces_flow_on_random_instances():
    rng = random.Random(72)
    built = 0
    for _ in range(80):
        net = random_network(rng, rng.randint(3, 7), rng.randint(3, 10), with_budgets=True)
        try:
            f = initial_feasible_flow(net)
            s, f2 = basic_structure_from_flow(net, f)
        except (InfeasibleError, InfeasibleStructureError):
            continue
        assert validate_structure(net, s) is None
        assert check_feasible(net, f2) is None
        assert tree_flow(net, s) == f2
        # flattening interior cycles never makes the flow cost worse
        assert flow_cost(net, f2) <= flow_cost(net, f)
        built += 1
    assert built > 20


def test_ns_solve_agrees_with_cycle_canceling_on_random_instances():
    rng = random.Random(73)
    solved = 0
    for _ in range(60):
        net = random_network(rng, rng.randint(3, 6), rng.randint(3, 9), with_budgets=True)
        try:
            f = initial_feasible_flow(net)
            s, f2 = basic_structure_from_flow(net, f)
        except (InfeasibleError, InfeasibleStructureError):
            continue
        ns_trace = ns_solve(net, s)
        mmcc_trace = mmcc_solve(net)
        assert verify_optimality(net, ns_trace.final_flow) is None
        assert flow_cost(net, ns_trace.final_flow) == flow_cost(net, mmcc_trace.final_flow)
        solved += 1
    assert solved > 15


def test_ns_solve_incremental_and_full_potentials_agree_end_to_end():
    # after every pivot, the kernel prices the next one with potentials
    # it updates in place; they must pick the entering edge and reduced
    # cost that potentials computed afresh from the tree it has reached do
    rng = random.Random(74)
    compared = 0
    for _ in range(40):
        net = random_network(rng, rng.randint(3, 6), rng.randint(3, 9), with_budgets=True)
        try:
            f = initial_feasible_flow(net)
            s, _ = basic_structure_from_flow(net, f)
        except (InfeasibleError, InfeasibleStructureError):
            continue
        pivots = ns_solve(net, s).pivots
        for cap in range(len(pivots) + 1):
            try:
                reached = ns_solve(net, s, iteration_cap=cap).final_structure
            except IterationCapExceeded as exc:
                reached = exc.trace.final_structure
            entering = entering_edge(net, reached)
            if cap == len(pivots):
                assert entering is None
                continue
            assert entering == pivots[cap].entering
            pot = compute_potentials(net, reached)
            assert reduced_cost(net, pot, entering) == pivots[cap].entering_reduced_cost
        compared += 1
    assert compared > 10


def test_ns_solve_strongly_feasible_also_reaches_optimum():
    rng = random.Random(75)
    solved = 0
    for _ in range(40):
        net = random_network(rng, rng.randint(3, 6), rng.randint(3, 9), with_budgets=True)
        try:
            f = initial_feasible_flow(net)
            s, _ = basic_structure_from_flow(net, f)
        except (InfeasibleError, InfeasibleStructureError):
            continue
        trace = ns_solve(net, s, strongly_feasible=True)
        assert verify_optimality(net, trace.final_flow) is None
        solved += 1
    assert solved > 10


def test_nondegenerate_cycle_paths_full_cycle_and_skipped_nodes():
    net = square_network()
    s = SpanningTreeStructure(frozenset({0, 2, 3}), frozenset({1}), frozenset())
    trace = ns_solve(net, s)
    whole = nondegenerate_cycle_paths(net, trace)
    assert whole == [((1, 3, 2, 0, 1), Fraction(2))]
    skipped = nondegenerate_cycle_paths(net, trace, skip_nodes={2})
    assert skipped == [((0, 1, 3), Fraction(2))]


def test_nondegenerate_cycle_paths_rejects_fragmented_chains():
    net = square_network()
    s = SpanningTreeStructure(frozenset({0, 2, 3}), frozenset({1}), frozenset())
    trace = ns_solve(net, s)
    with pytest.raises(ValueError):
        nondegenerate_cycle_paths(net, trace, skip_nodes={0, 3})


def assert_replays_reference(net, structure, **options):
    trace = ns_solve(net, structure, **options)
    pivots, flow, final = reference_solve(net, structure, **options)
    assert trace.termination == "optimal"
    assert trace.pivots == pivots
    assert trace.final_flow == flow
    assert trace.final_structure == final
    return trace


OPTIONS = [{}, {"strongly_feasible": True}]
OPTION_IDS = ["default", "strongly_feasible"]


@pytest.mark.parametrize(
    "params, cost_seed",
    [
        pytest.param(params, seed, id="%d-%d-%d-seed%d" % (params + (seed,)))
        for params, seeds in (((6, 10, 64), range(3)), ((8, 16, 128), range(2)))
        for seed in seeds
    ],
)
@pytest.mark.parametrize("options", OPTIONS, ids=OPTION_IDS)
def test_ns_solve_replays_reference_on_ns_lower(params, cost_seed, options):
    inst, structure = gen_ns_lower_bound(NsParams(*params))
    net = inst.realize(sample_costs(inst, cost_seed))
    trace = assert_replays_reference(net, structure, **options)
    assert trace.nondegenerate_count > 0 and trace.degenerate_count > 0


@st.composite
def random_starts(draw):
    """A realized ``gen_random_smoothed`` network with the tree that
    ``basic_structure_from_flow`` builds from its first feasible flow."""
    n = draw(st.integers(3, 9))
    m = draw(st.integers(n - 1, n * (n - 1) // 2))
    phi = draw(st.sampled_from([4, 16, 256]))
    inst = gen_random_smoothed(n, m, phi, draw(st.integers(0, 2**32 - 1)))
    net = inst.realize(sample_costs(inst, draw(st.integers(0, 2**32 - 1))))
    try:
        flow = initial_feasible_flow(net)
    except InfeasibleError:
        assume(False)
    structure, _ = basic_structure_from_flow(net, flow)
    return net, structure


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(random_starts(), st.booleans())
def test_ns_solve_replays_reference_on_random_instances(start, strongly):
    net, structure = start
    assert_replays_reference(net, structure, strongly_feasible=strongly)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(random_starts())
def test_ns_solve_optimal_cost_matches_networkx(start):
    net, structure = start
    # integer-scaled copy: costs by their common denominator, capacities
    # and budgets by theirs
    cost_scale = lcm(*(e.cost.denominator for e in net.edges))
    flow_scale = lcm(
        *(e.capacity.denominator for e in net.edges if e.capacity is not None),
        *(b.denominator for b in net.budgets),
    )
    graph = nx.DiGraph()
    for v, budget in enumerate(net.budgets):
        graph.add_node(v, demand=int(-budget * flow_scale))
    for e in net.edges:
        attrs = {"weight": int(e.cost * cost_scale)}
        if e.capacity is not None:
            attrs["capacity"] = int(e.capacity * flow_scale)
        graph.add_edge(e.tail, e.head, **attrs)
    expected = Fraction(nx.min_cost_flow_cost(graph), cost_scale * flow_scale)
    assert flow_cost(net, ns_solve(net, structure).final_flow) == expected


@pytest.mark.parametrize("options", OPTIONS, ids=OPTION_IDS)
def test_ns_solve_replays_reference_through_ties_and_ranks(options):
    # costs in {-3, ..., 3} tie in pricing and in the ratio test, and
    # random leaving ranks compete with edge ids
    rng = random.Random(76)
    replayed = 0
    for _ in range(100):
        base = random_network(rng, rng.randint(3, 7), rng.randint(3, 12), with_budgets=True)
        net = replace(
            base,
            edges=tuple(
                replace(e, cost=Fraction(rng.randint(-3, 3)), leaving_rank=rng.randint(0, 2))
                for e in base.edges
            ),
        )
        try:
            s, _ = basic_structure_from_flow(net, initial_feasible_flow(net))
        except (InfeasibleError, InfeasibleStructureError):
            continue
        assert_replays_reference(net, s, **options)
        replayed += 1
    assert replayed > 25


def test_ns_solve_flips_every_edge_of_an_empty_tree():
    # one node, an empty tree and two negative self-loops: both pivots
    # are bound flips, the first priced afresh and the second taken from
    # the order kept since the first
    net = FlowNetwork.from_data(1, [(0, 0, 1, -1), (0, 0, 2, -2)])
    s = SpanningTreeStructure(frozenset(), frozenset({0, 1}), frozenset())
    trace = assert_replays_reference(net, s)
    assert [(p.entering, p.leaving, p.amount) for p in trace.pivots] == [(1, 1, 2), (0, 0, 1)]
    assert trace.final_structure.upper == frozenset({0, 1})


def flip_heavy_start(rng):
    """A random tree whose edges carry 5 to 15 units below capacity 20,
    and off-tree edges at their bounds, mostly of capacity 1, with costs
    in {-2, ..., 2}: most pivots flip the entering edge to its other
    bound, and many prices tie."""
    n = rng.randint(3, 7)
    edges, flows = [], []
    for v in range(1, n):
        u = rng.randrange(v)
        a, b = (u, v) if rng.random() < 0.5 else (v, u)
        edges.append((a, b, 20, rng.randint(-2, 2)))
        flows.append(rng.randint(5, 15))
    lower, upper = set(), set()
    for idx in range(n - 1, n - 1 + rng.randint(n, 3 * n)):
        a, b = rng.sample(range(n), 2)
        cap = rng.choice((1, 1, 1, 30))
        edges.append((a, b, cap, rng.randint(-2, 2)))
        at_capacity = rng.random() < 0.5
        (upper if at_capacity else lower).add(idx)
        flows.append(cap if at_capacity else 0)
    budgets = [0] * n
    for (a, b, _, _), f in zip(edges, flows):
        budgets[a] += f
        budgets[b] -= f
    net = FlowNetwork.from_data(n, edges, budgets)
    return net, SpanningTreeStructure(frozenset(range(n - 1)), frozenset(lower), frozenset(upper))


@pytest.mark.parametrize("options", OPTIONS, ids=OPTION_IDS)
def test_ns_solve_replays_reference_through_runs_of_tied_flips(options):
    rng = random.Random(14)
    tied = changed = 0
    for _ in range(60):
        net, s = flip_heavy_start(rng)
        pivots = assert_replays_reference(net, s, **options).pivots
        flips = [p.entering == p.leaving for p in pivots]
        changed += not all(flips)
        # pivots i and i + 1 both follow a flip, so both come from the
        # order kept since pivot i - 1, and they tie on price
        tied += any(
            flips[i - 1]
            and flips[i]
            and abs(pivots[i].entering_reduced_cost) == abs(pivots[i + 1].entering_reduced_cost)
            for i in range(1, len(pivots) - 1)
        )
    assert tied > 15 and changed > 25


def ring_network(caps, ranks=(1,) * 6, reversed_edge=None):
    """Tree edges 0..4 on the path 0 -> 1 -> ... -> 5 (edge i from i to
    i + 1) and the lower edge 5 -> 0, whose cost of -10 makes it enter.
    Hung from node 3, the cycle is edge 5, the climb along edges 0, 1, 2
    to the apex and the descent along edges 3, 4: positions 1 to 3 lie
    before the apex, 4 and 5 after it.  ``reversed_edge`` turns one tree
    edge round and sends 3 units along it, so the cycle meets it
    backward with room 3."""
    edges = [(i, i + 1, caps[i], 1, ranks[i]) for i in range(5)] + [(5, 0, caps[5], -10, ranks[5])]
    budgets = [0] * 6
    if reversed_edge is not None:
        a, b, cap, cost, rank = edges[reversed_edge]
        edges[reversed_edge] = (b, a, cap, cost, rank)
        budgets[b], budgets[a] = 3, -3
    net = FlowNetwork.from_data(6, edges, budgets)
    return net, SpanningTreeStructure(frozenset(range(5)), frozenset({5}), frozenset(), root=3)


@pytest.mark.parametrize(
    "caps, ranks, reversed_edge, default, strongly",
    [
        # blockers at positions 1, 3, 4 and 5 with ranks 2, 1, 0, 1: the
        # least rank leaves by default, the last one before the apex
        # under the strongly feasible rule
        ((2, 5, 2, 2, 2, 5), (2, 1, 1, 0, 1, 1), None, 3, 2),
        # uncapacitated forward steps have no limit: blockers 1 and 3
        ((None, 2, None, 2, None, None), (1, 1, 1, 0, 1, 1), None, 3, 1),
        # no capacity at all, but a backward step holding 3 units
        ((None,) * 6, (1,) * 6, 1, 1, 1),
    ],
    ids=["ranked_blockers", "uncapacitated_forward", "uncapacitated_but_backward"],
)
def test_ns_solve_ratio_test_on_a_ring(caps, ranks, reversed_edge, default, strongly):
    net, s = ring_network(caps, ranks, reversed_edge)
    for options, leaving in (({}, default), ({"strongly_feasible": True}, strongly)):
        first = assert_replays_reference(net, s, **options).pivots[0]
        assert first.cycle == tuple((e, e != reversed_edge) for e in (5, 0, 1, 2, 3, 4))
        assert (first.entering, first.leaving) == (5, leaving)
        assert first.amount == (3 if reversed_edge is not None else 2)


def test_ns_solve_warm_start_ignores_stale_potentials():
    # a warm start from the final structure of another cost draw must
    # price with the new costs, end optimal and replay the reference
    inst = gen_random_smoothed(10, 25, 4, 0)
    net0 = inst.realize(sample_costs(inst, 0))
    net = inst.realize(sample_costs(inst, 2))
    start, _ = basic_structure_from_flow(net0, initial_feasible_flow(net0))
    warm = ns_solve(net0, start).final_structure
    trace = ns_solve(net, warm)
    assert trace.termination == "optimal"
    assert verify_optimality(net, trace.final_flow) is None
    pivots, flow, _ = reference_solve(net, warm)
    assert pivots == trace.pivots
    assert verify_optimality(net, flow) is None
    cold, _ = basic_structure_from_flow(net, initial_feasible_flow(net))
    assert flow_cost(net, trace.final_flow) == flow_cost(net, ns_solve(net, cold).final_flow)


def test_ns_solve_scales_rational_capacities_and_budgets():
    net = FlowNetwork.from_data(
        4,
        [
            (0, 1, "5/2", "1/2"),
            (1, 3, "7/3", "1/3"),
            (0, 2, 4, 5),
            (2, 3, 4, "9/2"),
        ],
        budgets=["7/2", 0, 0, "-7/2"],
    )
    s = SpanningTreeStructure(frozenset({0, 2, 3}), frozenset({1}), frozenset())
    trace = assert_replays_reference(net, s)
    assert [p.amount for p in trace.pivots] == [Fraction(7, 3)]
    # cost 1/3, potential -1/2 at its tail and -19/2 at its head
    assert trace.pivots[0].entering_reduced_cost == Fraction(-26, 3)
    assert trace.final_flow.values == (
        Fraction(7, 3),
        Fraction(7, 3),
        Fraction(7, 6),
        Fraction(7, 6),
    )
    assert check_feasible(net, trace.final_flow) is None
    assert verify_optimality(net, trace.final_flow) is None


def test_ns_solve_raises_on_uncapacitated_negative_cycle():
    net = FlowNetwork.from_data(3, [(0, 1, None, -1), (1, 2, None, -1), (2, 0, None, -1)])
    s = SpanningTreeStructure(frozenset({0, 1}), frozenset({2}), frozenset())
    for options in OPTIONS:
        with pytest.raises(UnboundedCycleError):
            ns_solve(net, s, **options)
        with pytest.raises(UnboundedCycleError):
            pivot(net, s, entering_edge(net, s), **options)


def test_ns_solve_iteration_cap_trace_holds_the_flow_and_structure_reached():
    inst, structure = gen_ns_lower_bound(NsParams(6, 10, 64))
    net = inst.realize(sample_costs(inst, 0))
    with pytest.raises(IterationCapExceeded) as info:
        ns_solve(net, structure, iteration_cap=5)
    trace = info.value.trace
    pivots, flow, final = reference_solve(net, structure, limit=5)
    assert trace.termination == "iteration_cap_hit"
    assert trace.pivots == pivots
    assert trace.final_flow == flow
    assert trace.final_structure == final


def test_basic_structure_from_flow_handles_a_long_interior_cycle():
    # every edge strictly between its bounds: the search for a free
    # cycle must walk all 1500 nodes deep
    n = 1500
    net = FlowNetwork.from_data(n, [(v, (v + 1) % n, 2, 1) for v in range(n)])
    s, flat = basic_structure_from_flow(net, Flow((Fraction(1),) * n))
    assert validate_structure(net, s) is None
    assert flat.values == (Fraction(0),) * n
    assert tree_flow(net, s) == flat
    assert s.upper == frozenset() and len(s.lower) == 1


def test_basic_structure_from_flow_on_an_uncapacitated_free_cycle():
    # a directed 3-cycle of uncapacitated edges, each carrying 1: with a
    # negative cycle cost nothing bounds the push; with a zero cost the
    # flow drains the other way, down to zero
    one = Flow((Fraction(1),) * 3)
    negative = FlowNetwork.from_data(3, [(0, 1, None, 1), (1, 2, None, 1), (2, 0, None, -3)])
    with pytest.raises(UnboundedCycleError, match="free cycle with negative cost and no cap"):
        basic_structure_from_flow(negative, one)
    zero = FlowNetwork.from_data(3, [(0, 1, None, 1), (1, 2, None, 1), (2, 0, None, -2)])
    s, flat = basic_structure_from_flow(zero, one)
    assert flat.values == (Fraction(0),) * 3
    assert s == SpanningTreeStructure(frozenset({0, 1}), frozenset({2}), frozenset())


def test_basic_structure_from_flow_rejects_flows_as_mmcc_does():
    # a negative flow, a flow off conservation, and a flow above its
    # capacity that also breaks conservation
    net = FlowNetwork.from_data(3, [(0, 1, 2, 1), (1, 2, 2, 1), (0, 2, 2, 3)], [1, 0, -1])
    cases = [
        ((-1, 0, 1), CapacityViolation, "edge 0 carries negative flow -1"),
        ((1, 0, 0), InfeasibleError, "stored starting flow: conservation: node 1 is off by 1"),
        ((3, 3, -2), CapacityViolation, "edge 0 carries 3 above capacity 2"),
    ]
    for values, error, message in cases:
        flow = Flow.from_values(values)
        with pytest.raises(error) as info:
            basic_structure_from_flow(net, flow)
        assert str(info.value) == message
        # the same error as MMCC from that stored flow
        with pytest.raises(error) as again:
            net._start.arcs_at(net, flow)
        assert str(again.value) == message


def random_feasible_flows(rng):
    """Networks with fractional capacities, a quarter of the edges
    uncapacitated, each with its computed start and flows reached from it
    by random cycle pushes: some to a bound, most to the interior, so
    they hold free cycles."""
    while True:
        n = rng.randint(3, 8)
        edges = []
        for t, h in random_simple_digraph(rng, n, rng.randint(n, 3 * n)):
            cap = None if rng.random() < 0.25 else Fraction(rng.randint(1, 6), rng.choice((1, 2, 3)))
            edges.append((t, h, cap, Fraction(rng.randint(-9, 9), rng.randint(1, 5))))
        budgets = [Fraction(0)] * n
        for _ in range(n // 2):
            a, b = rng.sample(range(n), 2)
            amount = Fraction(rng.randint(1, 4), rng.choice((1, 2)))
            budgets[a] += amount
            budgets[b] -= amount
        net = FlowNetwork.from_data(n, edges, budgets)
        try:
            start = initial_feasible_flow(net)
        except InfeasibleError:
            continue
        yield net, start
        values = list(start.values)
        for _ in range(rng.randint(1, 4)):
            push_random_cycle(rng, net, values)
            yield net, Flow(tuple(values))


def push_random_cycle(rng, net, values):
    """Push along the cycle that a random edge closes with a path back,
    if any, by a random share of its headroom in a random direction."""
    e = rng.randrange(net.edge_count)
    tail, head = net.edges[e].tail, net.edges[e].head
    # a breadth-first path from head back to tail, avoiding edge e
    back = {head: None}
    queue = [head]
    for v in queue:
        for i, edge in enumerate(net.edges):
            if i != e and v in (edge.tail, edge.head):
                w = edge.head if edge.tail == v else edge.tail
                if w not in back:
                    back[w] = (v, i, edge.tail == v)
                    queue.append(w)
    if tail not in back:
        return
    cycle, v = [(e, True)], tail
    while v != head:
        v, i, along = back[v]
        cycle.append((i, along))
    if rng.random() < 0.5:
        cycle = [(i, not along) for i, along in cycle]
    caps = [net.edges[i].capacity for i, _ in cycle]
    rooms = [
        values[i] if not along else (None if cap is None else cap - values[i])
        for (i, along), cap in zip(cycle, caps)
    ]
    bounded = [r for r in rooms if r is not None]
    limit = min(bounded) if bounded else Fraction(rng.randint(1, 4))
    amount = limit if rng.random() < 0.3 else limit * Fraction(rng.randint(1, 5), 6)
    for i, along in cycle:
        values[i] += amount if along else -amount


def outcome(build, net, flow):
    try:
        return build(net, flow)
    except (UnboundedCycleError, InfeasibleStructureError) as exc:
        return type(exc), str(exc)


def test_basic_structure_from_flow_matches_the_fraction_reference():
    rng = random.Random(91)
    compared = pushed = unbounded = uncapacitated = 0
    flows = random_feasible_flows(rng)
    while compared < 400 or unbounded < 3:
        net, flow = next(flows)
        expected = outcome(reference_basic_structure, net, flow)
        # the start itself, an equal copy of it and other flows
        assert outcome(basic_structure_from_flow, net, flow) == expected
        assert outcome(basic_structure_from_flow, net, Flow(tuple(flow.values))) == expected
        compared += 1
        if expected[0] is UnboundedCycleError:
            unbounded += 1
        elif type(expected[0]) is SpanningTreeStructure:
            pushed += expected[1] != flow
            uncapacitated += any(e.capacity is None and f > 0 for e, f in zip(net.edges, flow.values))
    assert pushed > 100 and uncapacitated > 100


def test_basic_structure_from_flow_reads_the_start_it_shares():
    # the computed start is recognised by identity: its arcs are read, not
    # built again, and never pushed on
    rng = random.Random(92)
    for net, flow in itertools.islice(random_feasible_flows(rng), 200):
        start = net._start
        if flow is not start.flow:
            continue
        rooms = list(start.kept.room)
        built = []
        init = core._ResidualArcs.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core._ResidualArcs, "__init__", counted)
            got = outcome(basic_structure_from_flow, net, flow)
        assert built == []
        assert start.kept.room == rooms
        assert got == outcome(reference_basic_structure, net, flow)


def test_ns_solve_hangs_the_tree_once(monkeypatch):
    calls = []
    hang = netsimplex._hang

    def counting(*args):
        calls.append(1)
        return hang(*args)

    monkeypatch.setattr(netsimplex, "_hang", counting)
    inst, structure = gen_ns_lower_bound(NsParams(6, 10, 64))
    ns_solve(inst.realize(sample_costs(inst, 0)), structure)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "budgets, whole, thirds",
    [
        (
            (-1, 1, 0),
            "tree edge 0 needs flow -1 outside [0, 2]",
            "tree edge 0 needs flow -1/3 outside [0, 2/3]",
        ),
        (
            (0, -1, 1),
            "tree edge 1 needs flow -1 outside [0, None]",
            "tree edge 1 needs flow -1/3 outside [0, None]",
        ),
        (
            (5, 0, -5),
            "tree edge 0 needs flow 5 outside [0, 2]",
            "tree edge 0 needs flow 5/3 outside [0, 2/3]",
        ),
        (
            (1, 0, 0),
            "budgets do not balance through the tree",
            "budgets do not balance through the tree",
        ),
    ],
    ids=["backwards", "backwards_uncapacitated", "overfull", "unbalanced"],
)
def test_ns_solve_rejects_a_start_as_tree_flow_does(budgets, whole, thirds):
    # the kernel fills the start in integers scaled by the capacities
    # and budgets, and must print the same Fractions that tree_flow does
    s = SpanningTreeStructure(frozenset({0, 1}), frozenset(), frozenset())
    for unit, expected in ((Fraction(1), whole), (Fraction(1, 3), thirds)):
        net = FlowNetwork.from_data(
            3, [(0, 1, 2 * unit, 1), (1, 2, None, 1)], budgets=[b * unit for b in budgets]
        )
        with pytest.raises(InfeasibleStructureError) as reference:
            tree_flow(net, s)
        assert str(reference.value) == expected
        with pytest.raises(InfeasibleStructureError) as raised:
            ns_solve(net, s)
        assert str(raised.value) == expected


def test_ns_solve_starts_from_the_tree_flow():
    inst, lower = gen_ns_lower_bound(NsParams(6, 10, 64))
    ns_net = inst.realize(sample_costs(inst, 0))
    rand = gen_random_smoothed(10, 25, 4, 0)
    rand_net = rand.realize(sample_costs(rand, 0))
    basic, _ = basic_structure_from_flow(rand_net, initial_feasible_flow(rand_net))
    for net, s in ((ns_net, lower), (rand_net, basic)):
        with pytest.raises(IterationCapExceeded) as info:
            ns_solve(net, s, iteration_cap=0)
        assert info.value.trace.final_flow == tree_flow(net, s)
