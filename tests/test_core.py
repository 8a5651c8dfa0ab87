"""Core type and operation tests."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest

from flowlab import core
from flowlab.core import (
    CapacityViolation,
    CostInterval,
    Cycle,
    Edge,
    EmptyCycleError,
    Flow,
    FlowNetwork,
    InfeasibleError,
    ResidualEdge,
    ResidualNetwork,
    SmoothedInstance,
    Violation,
    check_feasible,
    flow_cost,
    rational,
    residual,
    validate_instance,
    validate_network,
    verify_optimality,
)

from flowlab.experiment import ALGORITHMS, solve
from flowlab.generators import (
    MmccGeneralParams,
    gen_mmcc_general,
    gen_random_smoothed,
    sample_costs,
)
from flowlab.maxflow import solve_max_flow
from flowlab.mmcc import initial_feasible_flow, mmcc_solve
from flowlab.ssp import concentrate_budgets

from conftest import (
    find_any_cycle,
    random_capacity_respecting_flow,
    random_network,
)
from reference import (
    ZeroResidualCapacityError,
    augment_cycle,
    reference_check_feasible,
    reference_verify_optimality,
)


def net_from(node_count, edges, budgets=None):
    return FlowNetwork.from_data(node_count, edges, budgets)


def network_builds(node_count, edges, budgets):
    """Ways to build the network of the ``(tail, head, capacity, cost)``
    tuples ``edges``: the constructor, ``from_data`` and
    ``dataclasses.replace`` of a network without edges."""
    typed = tuple(Edge(t, h, Fraction(c), Fraction(k)) for t, h, c, k in edges)
    budgets = tuple(map(Fraction, budgets))
    bare = FlowNetwork(node_count, (), (Fraction(0),) * node_count)
    return {
        "constructor": lambda: FlowNetwork(node_count, typed, budgets),
        "from_data": lambda: FlowNetwork.from_data(node_count, edges, budgets),
        "replace": lambda: replace(bare, edges=typed, budgets=budgets),
    }


def assert_refused(message, builds):
    """Every build of ``builds`` raises ``ValueError`` with ``message``."""
    for name, build in builds.items():
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message, name


def test_rational_rejects_floats():
    with pytest.raises(TypeError):
        rational(0.1)
    assert rational("1/10") == Fraction(1, 10)
    assert rational(3) == 3


def test_rational_passes_a_fraction_through():
    third = Fraction(1, 3)
    assert rational(third) is third
    assert type(rational(3)) is Fraction and type(rational("3")) is Fraction


def test_validate_minimal_ok():
    net = net_from(2, [(0, 1, 1, 0)], [0, 0])
    assert validate_network(net) is None


def test_validate_antiparallel_pair():
    net = net_from(2, [(0, 1, 1, 0), (1, 0, 1, 0)], [0, 0])
    bad = validate_network(net)
    assert bad is not None and bad.kind == "antiparallel_pair"


def test_validate_self_loop():
    net = net_from(2, [(0, 0, 1, 0)], [0, 0])
    bad = validate_network(net)
    assert bad is not None and bad.kind == "self_loop"


def test_validate_duplicate_edge():
    net = net_from(3, [(0, 1, 1, 0), (0, 1, 2, 1)], [0, 0, 0])
    bad = validate_network(net)
    assert bad is not None and bad.kind == "duplicate_edge"


def test_validate_negative_capacity():
    net = net_from(2, [(0, 1, -1, 0)], [0, 0])
    bad = validate_network(net)
    assert bad is not None and bad.kind == "negative_capacity"


def test_validate_budget_imbalance():
    net = net_from(2, [(0, 1, 1, 0)], [1, -2])
    bad = validate_network(net)
    assert bad is not None and bad.kind == "budget_imbalance"


def test_validate_disconnected_warns_but_passes():
    net = net_from(4, [(0, 1, 1, 0), (2, 3, 1, 0)], [0, 0, 0, 0])
    with pytest.warns(UserWarning, match="weakly connected"):
        assert validate_network(net) is None


def test_validate_bad_endpoint():
    # the network refuses the edge when it is built, so validate_network
    # never meets it
    with pytest.raises(ValueError, match="^edge 0 references a missing node$"):
        net_from(2, [(0, 5, 1, 0)], [0, 0])


@pytest.mark.parametrize("head", [5, 2, -1, -2], ids=["far", "next", "minus_one", "minus_n"])
def test_certificate_rejects_a_missing_node(head):
    # no network or residual network with the edge can be built, so
    # check_feasible and the certificate never meet it; a negative head
    # must not wrap round to a real node
    builds = network_builds(2, [(0, 1, 1, 0), (0, head, 1, 0)], [0, 0])
    builds["residual"] = lambda: ResidualNetwork(
        2, (ResidualEdge(0, 1, 1, 0, 0, True), ResidualEdge(0, head, 1, 0, 1, True))
    )
    assert_refused("edge 1 references a missing node", builds)
    assert_refused("edge 0 references a missing node", network_builds(0, [(0, 1, 1, 0)], []))


@pytest.mark.parametrize("head", [5, -1], ids=["far", "minus_one"])
def test_solvers_reject_a_missing_node(head):
    # a head of -1 must not wrap round to node 1 and carry flow there:
    # no solver can be handed the network, since it cannot be built
    assert_refused(
        "edge 0 references a missing node", network_builds(2, [(0, head, 1, -1)], [0, 0])
    )


@pytest.mark.parametrize("head", [2, 3], ids=["new_source", "new_sink"])
def test_budget_widening_rejects_a_missing_node(head):
    # node 2 and node 3 are the source and sink that concentrate_budgets
    # adds, so the widened network alone could not tell the edge is
    # broken; the network refuses it before it is widened
    builds = network_builds(2, [(0, 1, 1, 1), (0, head, 1, -1)], [1, -1])
    assert_refused("edge 1 references a missing node", builds)


def test_a_negative_head_does_not_wrap_round_to_a_node():
    # with the head -1 read as node 1, the tree checks accepted the edge,
    # compute_potentials gave (0, 1) through it and format_network wrote
    # it as the arc "a 1 0", into a node that DIMACS numbering lacks
    with pytest.raises(ValueError, match="^edge 0 references a missing node$"):
        FlowNetwork(2, (Edge(0, -1, 1, -1),), (0, 0))


def test_names_and_labels_must_match_the_nodes_and_edges():
    # one name for three nodes used to build, and check_feasible then
    # raised IndexError from name_of(2); surplus labels were dropped
    edges = [(0, 1, 1, 0), (1, 2, 1, 0)]
    net = FlowNetwork.from_data(3, edges, [0, 0, 1], ["a", "b", "c"], ["x", "y"])
    assert check_feasible(net, Flow.zero(2)).detail == "node c is off by 1"
    cases = {
        "expected 3 node names, got 1": {"node_names": ("a",)},
        "expected 2 edge labels, got 3": {"edge_labels": ("x", "y", "z")},
    }
    for message, meta in cases.items():
        builds = {
            "constructor": lambda: FlowNetwork(net.node_count, net.edges, net.budgets, **meta),
            "from_data": lambda: FlowNetwork.from_data(3, edges, [0, 0, 1], **meta),
            "replace": lambda: replace(net, **meta),
        }
        assert_refused(message, builds)


def test_residual_zero_flow_has_forward_edges_only():
    net = net_from(2, [(0, 1, 3, 5)], [0, 0])
    r = residual(net, Flow.zero(1))
    assert len(r.edges) == 1
    e = r.edges[0]
    assert (e.tail, e.head, e.capacity, e.cost, e.forward) == (0, 1, 3, 5, True)


def test_residual_saturated_flow_has_backward_edge_only():
    net = net_from(2, [(0, 1, 3, 5)], [0, 0])
    r = residual(net, Flow.from_values([3]))
    assert len(r.edges) == 1
    e = r.edges[0]
    assert (e.tail, e.head, e.capacity, e.cost, e.forward) == (1, 0, 3, -5, False)


def test_residual_interior_flow_has_both_directions():
    net = net_from(2, [(0, 1, 3, 5)], [0, 0])
    r = residual(net, Flow.from_values([1]))
    directions = {(e.tail, e.head): (e.capacity, e.cost) for e in r.edges}
    assert directions == {(0, 1): (2, 5), (1, 0): (1, -5)}


def test_residual_uncapacitated_edge():
    net = net_from(2, [(0, 1, None, 2)], [0, 0])
    r = residual(net, Flow.from_values([7]))
    caps = {(e.tail, e.head): e.capacity for e in r.edges}
    assert caps == {(0, 1): None, (1, 0): 7}


def test_residual_rejects_capacity_violation():
    net = net_from(2, [(0, 1, 3, 5)], [0, 0])
    with pytest.raises(CapacityViolation):
        residual(net, Flow.from_values([4]))
    with pytest.raises(CapacityViolation):
        residual(net, Flow.from_values([-1]))


def test_residual_edge_count_bounds():
    rng = random.Random(7)
    for _ in range(60):
        net = random_network(rng, rng.randint(2, 8), rng.randint(1, 12))
        flow = random_capacity_respecting_flow(rng, net)
        r = residual(net, flow)
        m = net.edge_count
        assert m <= 2 * m or m == 0
        assert len(r.edges) <= 2 * m
        if all(flow[i] > 0 for i in range(m)):
            assert len(r.edges) >= m
        # at most one residual edge per ordered pair
        pairs = [(e.tail, e.head) for e in r.edges]
        assert len(pairs) == len(set(pairs))


def test_flow_cost_zero_flow():
    net = net_from(2, [(0, 1, 1, 9)], [0, 0])
    assert flow_cost(net, Flow.zero(1)) == 0


def test_flow_cost_single_edge_exact():
    net = net_from(2, [(0, 1, 5, "3/7")], [0, 0])
    assert flow_cost(net, Flow.from_values([2])) == Fraction(6, 7)


def test_flow_cost_matches_naive_sum_any_order():
    rng = random.Random(11)
    for _ in range(40):
        net = random_network(rng, rng.randint(2, 7), rng.randint(1, 10))
        flow = random_capacity_respecting_flow(rng, net)
        order = list(range(net.edge_count))
        rng.shuffle(order)
        total = Fraction(0)
        for idx in order:
            total += net.edges[idx].cost * flow[idx]
        assert flow_cost(net, flow) == total


def test_check_feasible_zero_budgets_zero_flow():
    net = net_from(3, [(0, 1, 1, 0), (1, 2, 1, 0)], [0, 0, 0])
    assert check_feasible(net, Flow.zero(2)) is None


def test_check_feasible_reports_conservation_node():
    net = net_from(2, [(0, 1, 1, 0)], [1, -1])
    bad = check_feasible(net, Flow.zero(1))
    assert bad is not None and bad.kind == "conservation"
    assert "0" in bad.detail


def test_check_feasible_reports_capacity_edge():
    net = net_from(2, [(0, 1, 1, 0)], [0, 0])
    bad = check_feasible(net, Flow.from_values([2]))
    assert bad is not None and bad.kind == "capacity"


def test_check_feasible_rejects_a_wrong_budget_count():
    # the network refuses the budgets when it is built, so check_feasible
    # never meets them
    edges = [(0, 1, 1, 0), (1, 2, 1, 0)]
    for budgets in ((1, -1), (1, 0, 0, -1)):
        message = "expected 3 budgets, got %d" % len(budgets)
        assert_refused(message, network_builds(3, edges, budgets))
    with pytest.raises(ValueError, match="flow has 1 values for 2 edges"):
        check_feasible(net_from(3, edges, [0, 0, 0]), Flow.zero(1))


def _box_flow(rng, net):
    """Rational flow values inside each edge's capacity, or up to 6 on
    an uncapacitated edge; conservation is not attempted."""
    values = []
    for e in net.edges:
        top = 6 if e.capacity is None else e.capacity
        d = rng.randint(1, 4)
        values.append(Fraction(rng.randint(0, int(top * d)), d))
    return values


def test_check_feasible_matches_reference_on_random_networks():
    # rational and unbounded capacities, rational nonzero budgets, and
    # flows inside the capacity box, above it, negative, and feasible
    # ones from max flow, some of them nudged off conservation
    rng = random.Random(12)
    seen = Counter()
    for _ in range(200):
        base = random_network(
            rng, rng.randint(2, 8), rng.randint(1, 14), with_budgets=rng.random() < 0.7
        )
        share = rng.randint(1, 3)
        net = FlowNetwork(
            base.node_count,
            tuple(
                Edge(
                    e.tail,
                    e.head,
                    None if rng.random() < 0.15 else e.capacity / rng.randint(1, 3),
                    e.cost,
                )
                for e in base.edges
            ),
            tuple(b / share for b in base.budgets),
            node_names=tuple("v%d" % v for v in range(base.node_count))
            if rng.random() < 0.3
            else None,
        )
        inside = _box_flow(rng, net)
        above, negative = list(inside), list(inside)
        capped = [i for i, e in enumerate(net.edges) if e.capacity is not None]
        if capped:
            i = rng.choice(capped)
            above[i] = net.edges[i].capacity + Fraction(1, rng.randint(1, 4))
        negative[rng.randrange(net.edge_count)] = -Fraction(1, rng.randint(1, 4))
        flows = [inside, above, negative]
        try:
            feasible = list(initial_feasible_flow(net).values)
        except InfeasibleError:
            pass
        else:
            nudged = list(feasible)
            i = rng.randrange(net.edge_count)
            nudged[i] = max(Fraction(0), nudged[i] - Fraction(1, rng.randint(2, 5)))
            flows += [feasible, nudged]
        for values in flows:
            flow = Flow(tuple(values))
            expected = reference_check_feasible(net, flow)
            assert check_feasible(net, flow) == expected
            seen[None if expected is None else expected.kind] += 1
    assert seen["capacity"] > 300 and seen["conservation"] > 150 and seen[None] > 150


def test_augment_cycle_amount_is_min_residual():
    # triangle with residual capacities 3, 1, 2
    net = net_from(3, [(0, 1, 3, 1), (1, 2, 1, 1), (2, 0, 2, -3)], [0, 0, 0])
    r = residual(net, Flow.zero(3))
    cyc = Cycle.from_edges(r.edges)
    flow, delta = augment_cycle(net, Flow.zero(3), cyc)
    assert delta == 1
    assert flow.values == (1, 1, 1)
    r2 = residual(net, flow)
    pairs = {(e.tail, e.head) for e in r2.edges}
    assert (1, 2) not in pairs  # saturated
    assert (2, 1) in pairs


def test_augment_cycle_empty_rejected():
    net = net_from(2, [(0, 1, 1, 0)], [0, 0])
    with pytest.raises(EmptyCycleError):
        augment_cycle(net, Flow.zero(1), Cycle(edges=(), total_cost=Fraction(0), mean_cost=Fraction(0)))


def test_augment_cycle_stale_cycle_rejected():
    net = net_from(3, [(0, 1, 1, 1), (1, 2, 1, 1), (2, 0, 1, -3)], [0, 0, 0])
    r = residual(net, Flow.zero(3))
    cyc = Cycle.from_edges(r.edges)
    flow, _ = augment_cycle(net, Flow.zero(3), cyc)
    with pytest.raises(ZeroResidualCapacityError):
        augment_cycle(net, flow, cyc)


def test_augment_preserves_feasibility_and_cost_identity():
    rng = random.Random(23)
    done = 0
    while done < 100:
        net = random_network(rng, rng.randint(3, 8), rng.randint(3, 12))
        flow = random_capacity_respecting_flow(rng, net)
        r = residual(net, flow)
        found = find_any_cycle(r)
        if found is None:
            continue
        cyc = Cycle.from_edges(found)
        new_flow, delta = augment_cycle(net, flow, cyc)
        assert delta > 0
        # capacity bounds hold afterwards
        for idx, e in enumerate(net.edges):
            assert new_flow[idx] >= 0
            if e.capacity is not None:
                assert new_flow[idx] <= e.capacity
        # node balances unchanged by a cycle
        for v in range(net.node_count):
            before = sum(flow[i] for i, e in enumerate(net.edges) if e.head == v) - sum(
                flow[i] for i, e in enumerate(net.edges) if e.tail == v
            )
            after = sum(new_flow[i] for i, e in enumerate(net.edges) if e.head == v) - sum(
                new_flow[i] for i, e in enumerate(net.edges) if e.tail == v
            )
            assert before == after
        # cost moves exactly by delta * cycle cost; strict decrease iff negative
        assert flow_cost(net, new_flow) - flow_cost(net, flow) == delta * cyc.total_cost
        done += 1


def test_verify_optimality_negative_triangle():
    net = net_from(3, [(0, 1, 1, 1), (1, 2, 1, 1), (2, 0, 1, -3)], [0, 0, 0])
    witness = verify_optimality(net, Flow.zero(3))
    assert witness is not None
    assert witness.total_cost == -1
    assert witness.mean_cost == Fraction(-1, 3)


def test_verify_optimality_positive_costs_zero_flow():
    net = net_from(3, [(0, 1, 1, 1), (1, 2, 1, 2), (2, 0, 1, 3)], [0, 0, 0])
    assert verify_optimality(net, Flow.zero(3)) is None


def test_verify_optimality_witness_is_valid_cycle():
    rng = random.Random(31)
    witnesses = 0
    for _ in range(80):
        net = random_network(rng, rng.randint(3, 7), rng.randint(3, 10))
        flow = random_capacity_respecting_flow(rng, net)
        witness = verify_optimality(net, flow)
        if witness is None:
            continue
        witnesses += 1
        assert witness.total_cost < 0
        # every witness edge really has residual capacity
        _, delta = augment_cycle(net, flow, witness)
        assert delta > 0
    assert witnesses > 5


def test_verify_optimality_matches_reference_on_mmcc_starting_flows():
    for params, pair_seed in (((6, 12, 64), 0), ((8, 16, 256), 1)):
        inst = gen_mmcc_general(MmccGeneralParams(*params), pair_seed)
        for cost_seed in range(4):
            net_costs = sample_costs(inst, cost_seed)
            net = inst.realize(net_costs)
            witness = verify_optimality(net, inst.starting_flow)
            assert witness is not None
            assert witness == reference_verify_optimality(net, inst.starting_flow)
            final = mmcc_solve(inst, net_costs).final_flow
            assert verify_optimality(net, final) is None
            assert reference_verify_optimality(net, final) is None


def test_verify_optimality_matches_reference_on_random_networks():
    # zero flows of random networks with negative cycles, random flows
    # inside the capacity box, rational capacities and uncapacitated
    # edges, then the optimal flows cycle canceling reaches
    rng = random.Random(33)
    witnesses = optimal = 0
    for _ in range(150):
        base = random_network(rng, rng.randint(2, 8), rng.randint(1, 14))
        net = FlowNetwork(
            base.node_count,
            tuple(
                Edge(
                    e.tail,
                    e.head,
                    None if rng.random() < 0.15 else e.capacity / rng.randint(1, 3),
                    e.cost,
                )
                for e in base.edges
            ),
            base.budgets,
        )
        flows = [Flow.zero(net.edge_count), random_capacity_respecting_flow(rng, net)]
        for flow in flows:
            try:
                expected = reference_verify_optimality(net, flow)
            except CapacityViolation as exc:
                with pytest.raises(CapacityViolation) as info:
                    verify_optimality(net, flow)
                assert str(info.value) == str(exc)
                continue
            assert verify_optimality(net, flow) == expected
            witnesses += expected is not None
        if all(e.capacity is not None for e in net.edges):
            final = mmcc_solve(net).final_flow
            assert verify_optimality(net, final) is None
            assert reference_verify_optimality(net, final) is None
            optimal += 1
    assert witnesses > 50 and optimal > 40


def test_verify_optimality_keeps_its_input_errors():
    net = net_from(2, [(0, 1, 2, 1)], [0, 0])
    with pytest.raises(ValueError, match="flow has 2 values for 1 edges"):
        verify_optimality(net, Flow.from_values([0, 0]))
    with pytest.raises(CapacityViolation, match="edge 0 carries negative flow -1"):
        verify_optimality(net, Flow.from_values([-1]))
    with pytest.raises(CapacityViolation, match="edge 0 carries 3 above capacity 2"):
        verify_optimality(net, Flow.from_values([3]))


def test_residual_arcs_report_the_first_bad_edge():
    # what ``residual`` and the solvers built on the integer arcs raise,
    # and in which order: the flow's length, then edge by edge, and on
    # one edge (of negative capacity) a negative flow before one above
    # capacity
    net = net_from(3, [(0, 1, 3, 1), (1, 2, 3, 1), (0, 2, None, 1)], [0, 0, 0])
    negative_cap = net_from(2, [(0, 1, -3, 1)], [0, 0])
    cases = [
        (net, [1, -1], ValueError, "flow has 2 values for 3 edges"),
        (net, [1, 4, -1], CapacityViolation, "edge 1 carries 4 above capacity 3"),
        (net, [1, -1, 0], CapacityViolation, "edge 1 carries negative flow -1"),
        (net, ["7/2", 0, -1], CapacityViolation, "edge 0 carries 7/2 above capacity 3"),
        (net, [0, 0, -1], CapacityViolation, "edge 2 carries negative flow -1"),
        (negative_cap, [-1], CapacityViolation, "edge 0 carries negative flow -1"),
    ]
    for network, values, error, message in cases:
        flow = Flow.from_values(values)
        with pytest.raises(error) as info:
            residual(network, flow)
        assert str(info.value) == message
        if len(flow) != network.edge_count:
            continue  # a smoothed instance rejects it when it is built
        m = network.edge_count
        intervals = (CostInterval(Fraction(0), Fraction(1)),) * m
        inst = SmoothedInstance(network, intervals, Fraction(1), flow)
        with pytest.raises(error) as info:
            mmcc_solve(inst, [Fraction(0)] * m)
        assert str(info.value) == message


def test_cycle_from_edges_validates_closure():
    e1 = ResidualEdge(0, 1, Fraction(1), Fraction(1), 0, True)
    e2 = ResidualEdge(1, 2, Fraction(1), Fraction(1), 1, True)
    with pytest.raises(ValueError):
        Cycle.from_edges([e1, e2])


def test_cost_interval_bounds():
    iv = CostInterval(Fraction(1, 4), Fraction(1, 2))
    assert iv.hi == Fraction(3, 4)
    assert iv.contains(Fraction(1, 4)) and iv.contains(Fraction(3, 4))
    assert not iv.contains(Fraction(7, 8))
    with pytest.raises(ValueError):
        CostInterval(Fraction(0), Fraction(-1))
    assert CostInterval(Fraction(2), Fraction(0)).hi == 2


def _random_interval(rng):
    """Zero, small and wide widths; small and 2**36-sized denominators."""
    den = rng.choice([1, 3, 2 ** rng.randint(30, 36), rng.getrandbits(36) | 1])
    lo = Fraction(rng.randint(-(10 * den), 10 * den), den)
    widths = [Fraction(0), Fraction(1, 64), Fraction(1, den)]
    width = rng.choice(widths + [Fraction(rng.randint(1, 9), rng.randint(1, 5))])
    return CostInterval(lo, width)


def test_cost_interval_contains_matches_the_fraction_comparison():
    rng = random.Random(13)
    seen = Counter()
    for _ in range(400):
        iv = _random_interval(rng)
        lo, hi = iv.lo, iv.lo + iv.width
        step = Fraction(1, rng.choice([1, 7, 2**36]))
        inside = lo + iv.width * Fraction(rng.randint(0, 1000), 1000)
        costs = [lo, hi, lo - step, hi + step, inside, Fraction(lo.numerator, lo.denominator)]
        costs += [int(lo), int(lo) + 1, float(inside)]
        for cost in costs:
            expected = lo <= cost <= hi
            assert iv.contains(cost) is expected, (iv, cost)
            seen[expected] += 1
    assert seen[True] > 1000 and seen[False] > 1000
    # int bounds, and a bound that is neither an int nor a Fraction
    assert CostInterval(1, 2).contains(3) and not CostInterval(1, 2).contains(Fraction(7, 2))
    assert CostInterval(0.5, Fraction(1, 2)).contains(Fraction(1))
    assert not CostInterval(0.5, Fraction(1, 2)).contains(Fraction(1, 4))


def test_realize_keeps_its_messages_and_its_float_check():
    net = net_from(3, [(0, 1, 1, 0), (1, 2, 1, 0)], [0, 0, 0])
    den = 2**36
    intervals = (
        CostInterval(Fraction(1, den), Fraction(1, 64)),
        CostInterval(Fraction(-5, 3), Fraction(0)),
    )
    inst = SmoothedInstance(net, intervals, Fraction(64))
    top = Fraction(1, den) + Fraction(1, 64)
    realized = inst.realize([str(top), "-5/3"])
    assert [e.cost for e in realized.edges] == [top, Fraction(-5, 3)]
    assert inst.realize([Fraction(1, den), Fraction(-5, 3)]).edges[0].cost == Fraction(1, den)
    first = "outside its interval [1/68719476736, 1073741825/68719476736]"
    cases = [
        ([top + Fraction(1, den), -2], "cost 536870913/34359738368 for edge (0,1) " + first),
        ([Fraction(0), Fraction(-5, 3)], "cost 0 for edge (0,1) " + first),
        ([top, -2], "cost -2 for edge (1,2) outside its interval [-5/3, -5/3]"),
        ([top], "expected 2 costs, got 1"),
    ]
    for costs, message in cases:
        with pytest.raises(ValueError) as info:
            inst.realize(costs)
        assert str(info.value) == message
    with pytest.raises(TypeError, match="refusing to convert float"):
        inst.realize([top, -5 / 3])


def _fused_cost_loop(net):
    """The scaled arc costs as ``_ResidualArcs``'s constructor once built them."""
    scale = lcm(*(e.cost.denominator for e in net.edges))
    cost = []
    for e in net.edges:
        c = e.cost.numerator * (scale // e.cost.denominator)
        cost += (c, -c)
    return scale, cost


def test_residual_arcs_scale_the_costs_as_the_fused_loop_did():
    rng = random.Random(14)
    nets = [net_from(2, [], [0, 0]), net_from(2, [(0, 1, 1, "-7/2")], [0, 0])]
    for n in range(2, 9):
        nets.append(random_network(rng, n, rng.randint(1, 3 * n)))
    for seed in range(3):
        inst = gen_random_smoothed(10, 25, 256, seed)
        nets.append(inst.realize(sample_costs(inst, seed)))
    for net in nets:
        # the arcs read the network's cost layer, which scales on first read
        layer = net._costs
        assert layer._paired is None and layer._scale is None
        arcs = core._ResidualArcs(net, layer=layer)
        scale, cost = _fused_cost_loop(net)
        assert (arcs.cost_scale, arcs.cost) == (scale, cost)
        assert all(type(c) is int for c in arcs.cost)
        assert arcs.cost is arcs.cost is layer.paired


def test_max_flow_and_residual_never_scale_the_costs(monkeypatch):
    def refuse(self):
        raise AssertionError("costs scaled")

    # costs are scaled in the cost layer only
    monkeypatch.setattr(core._Costs, "paired", property(refuse))
    monkeypatch.setattr(core._Costs, "scale", property(refuse))
    inst = gen_random_smoothed(8, 20, 64, 3)
    net = inst.realize(sample_costs(inst, 0))
    value, flow = solve_max_flow(net, 0, 7)
    assert check_feasible(net, initial_feasible_flow(net)) is None
    assert residual(net, flow).edge_count > 0
    # the shared start: read from the instance network and another
    # realization, copied for MMCC and network simplex, and widened
    other = inst.realize(sample_costs(inst, 1))
    assert initial_feasible_flow(inst.network) == initial_feasible_flow(other)
    assert other._start.arcs_at(other, None).flow() == initial_feasible_flow(net)
    assert concentrate_budgets(other)[3] > 0
    with pytest.raises(AssertionError, match="costs scaled"):
        verify_optimality(net, flow)


def test_smoothed_instance_realize_checks_containment():
    net = net_from(2, [(0, 1, 1, 0)], [0, 0])
    inst = SmoothedInstance(
        network=net,
        intervals=(CostInterval(Fraction(0), Fraction(1, 2)),),
        phi=Fraction(2),
    )
    realized = inst.realize([Fraction(1, 4)])
    assert realized.edges[0].cost == Fraction(1, 4)
    with pytest.raises(ValueError):
        inst.realize([Fraction(3, 4)])
    assert validate_instance(inst) is None


def test_validate_instance_flags_narrow_interval():
    net = net_from(2, [(0, 1, 1, 0)], [0, 0])
    inst = SmoothedInstance(
        network=net,
        intervals=(CostInterval(Fraction(0), Fraction(1, 8)),),
        phi=Fraction(4),
    )
    bad = validate_instance(inst)
    assert bad is not None and bad.kind == "interval_too_narrow"


def test_smoothed_instance_rejects_a_starting_flow_of_the_wrong_length():
    net = net_from(3, [(0, 1, 1, 0), (1, 2, 1, 0)], [0, 0, 0])
    intervals = (CostInterval(Fraction(0), Fraction(1)),) * 2
    with pytest.raises(ValueError, match="one starting flow value per edge is required"):
        SmoothedInstance(net, intervals, Fraction(1), Flow.zero(1))
    inst = SmoothedInstance(net, intervals, Fraction(1), Flow.from_values([2, 0]))
    assert validate_instance(inst) == Violation("capacity", "edge 0 carries 2")


def first_feasible_random(n, m, phi):
    """The first of the ``gen_random_smoothed(n, m, phi, seed)``
    instances, seed 0 on, whose budgets can be met."""
    for seed in range(100):
        inst = gen_random_smoothed(n, m, phi, seed)
        try:
            initial_feasible_flow(inst.network)
        except InfeasibleError:
            continue
        return inst


def test_final_flows_hold_one_exact_fraction_per_distinct_value():
    integral = first_feasible_random(10, 25, 64)
    edges = tuple(replace(e, capacity=e.capacity + Fraction(1, 2)) for e in integral.network.edges)
    halves = replace(integral, network=replace(integral.network, edges=edges))
    assert Fraction(7, 2) in {e.capacity for e in edges}
    for k, inst in enumerate((integral, halves)):
        costs = sample_costs(inst, k)
        net = inst.realize(costs)
        flows = [solve(inst, costs, algorithm).final_flow for algorithm in ALGORITHMS]
        flows.append(initial_feasible_flow(net))
        flows.append(solve_max_flow(net, 0, net.node_count - 1)[1])
        for flow in flows:
            values = flow.values
            # never an ``int``, even where the scaled value divides evenly
            assert all(type(v) is Fraction for v in values)
            # equal values are one object, unequal ones never
            assert len({id(v) for v in values}) == len(set(values))
        if inst is halves:
            assert any(v.denominator == 2 for flow in flows for v in flow.values)
