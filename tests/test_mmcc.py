"""Cycle-canceling solver tests."""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction
from math import lcm

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from flowlab.core import (
    Flow,
    FlowNetwork,
    InfeasibleError,
    IterationCapExceeded,
    UnboundedCycleError,
    check_feasible,
    flow_cost,
    verify_optimality,
)
from flowlab.formats import format_flow, format_smoothed
from flowlab.generators import (
    MmccGeneralParams,
    NsParams,
    gen_mmcc_general,
    gen_mmcc_large_phi,
    gen_ns_lower_bound,
    gen_random_smoothed,
    sample_costs,
)
from flowlab.mincycle import _MeanSearch
from flowlab.mmcc import (
    MmccTrace,
    default_iteration_cap,
    falling_mean_violation,
    initial_feasible_flow,
    mmcc_solve,
    shrink_violation,
)
from flowlab.netsimplex import basic_structure_from_flow

from conftest import random_network
from reference import augment_cycle, reference_mmcc, reference_run


def net_from(node_count, edges, budgets=None):
    return FlowNetwork.from_data(node_count, edges, budgets)


def test_initial_flow_zero_budgets():
    net = net_from(3, [(0, 1, 2, 1), (1, 2, 2, 1)], [0, 0, 0])
    assert initial_feasible_flow(net) == Flow.zero(2)


def test_initial_flow_single_unit():
    net = net_from(2, [(0, 1, 1, 4)], [1, -1])
    assert initial_feasible_flow(net).values == (1,)


def test_initial_flow_infeasible():
    net = net_from(2, [(0, 1, 1, 4)], [2, -2])
    with pytest.raises(InfeasibleError):
        initial_feasible_flow(net)


@pytest.mark.parametrize("budgets", [(0, -1), (1, -2)], ids=["no_supply", "short_supply"])
def test_unbalanced_budgets_have_no_start_and_no_optimum(budgets):
    net = net_from(2, [(0, 1, 1, 1)], budgets)
    message = "budgets sum to -1, not zero"
    with pytest.raises(InfeasibleError, match=message):
        initial_feasible_flow(net)
    with pytest.raises(InfeasibleError, match=message):
        mmcc_solve(net)


def test_initial_flow_respects_feasibility_on_random_instances():
    rng = random.Random(12)
    feasible = 0
    for _ in range(60):
        net = random_network(rng, rng.randint(3, 8), rng.randint(3, 14), with_budgets=True)
        try:
            flow = initial_feasible_flow(net)
        except InfeasibleError:
            continue
        assert check_feasible(net, flow) is None
        feasible += 1
    assert feasible > 10


def scaled_graph(net):
    """The networkx copy of a capacitated ``net``: costs scaled to
    integers by their common denominator, capacities and budgets by
    theirs.  Returns the graph, the cost scale and the flow scale."""
    cost_scale = lcm(*(e.cost.denominator for e in net.edges))
    flow_scale = lcm(
        *(e.capacity.denominator for e in net.edges), *(b.denominator for b in net.budgets)
    )
    graph = nx.DiGraph()
    for v, b in enumerate(net.budgets):
        graph.add_node(v, demand=-int(b * flow_scale))
    for e in net.edges:
        graph.add_edge(
            e.tail,
            e.head,
            weight=int(e.cost * cost_scale),
            capacity=int(e.capacity * flow_scale),
        )
    return graph, cost_scale, flow_scale


def feasible_start_grid():
    """``(net, flow or InfeasibleError)`` for every random smoothed draw
    of the grid, realized at a cost seed equal to its pair seed."""
    for n in range(2, 17, 2):
        top = n * (n - 1) // 2
        for m in sorted({n - 1, n, 2 * n, top}):
            if not 1 <= m <= top:
                continue
            for phi in (4, 64):
                for seed in range(4):
                    inst = gen_random_smoothed(n, m, phi, seed)
                    net = inst.realize(sample_costs(inst, seed))
                    try:
                        yield net, initial_feasible_flow(net)
                    except InfeasibleError as exc:
                        yield net, exc


def test_feasible_starts_are_pinned():
    # starting flows and infeasibility messages over the random grid,
    # the tree structures hung from the feasible ones, and the
    # ns_lower instances whose rail capacities come from max flow
    digest = hashlib.sha256()
    feasible = infeasible = 0
    for net, start in feasible_start_grid():
        if isinstance(start, InfeasibleError):
            digest.update(str(start).encode())
            infeasible += 1
            continue
        digest.update(format_flow(net, start).encode())
        structure, flow = basic_structure_from_flow(net, start)
        digest.update(repr((sorted(structure.tree_edges), sorted(structure.upper))).encode())
        digest.update(format_flow(net, flow).encode())
        feasible += 1
    for k in (6, 8, 10):
        digest.update(format_smoothed(*gen_ns_lower_bound(NsParams(k, 2 * k, 128))).encode())
    assert (feasible, infeasible) == (80, 144)
    assert digest.hexdigest() == (
        "7b23b7f3572155dcb4f299c6d6be7eb5bbe8ed49531ef2bdd2b192776f8c938d"
    )


def test_initial_flow_infeasible_exactly_when_networkx_is():
    # every edge of a random smoothed draw is capacitated, so networkx
    # decides feasibility on the integer-scaled copy without unbounded cases
    for net, start in feasible_start_grid():
        graph, _, _ = scaled_graph(net)
        if isinstance(start, InfeasibleError):
            with pytest.raises(nx.NetworkXUnfeasible):
                nx.network_simplex(graph)
        else:
            assert check_feasible(net, start) is None
            nx.network_simplex(graph)


def test_mmcc_on_already_optimal_instance():
    net = net_from(3, [(0, 1, 2, 1), (1, 2, 2, 3)], [1, 0, -1])
    trace = mmcc_solve(net)
    assert trace.iteration_count == 0
    assert trace.termination == "optimal"
    assert flow_cost(net, trace.final_flow) == 4


def test_mmcc_improves_expensive_route():
    # expensive direct edge, cheap two-hop detour
    net = net_from(
        3,
        [(0, 2, 2, 10), (0, 1, 2, 1), (1, 2, 2, 1)],
        [2, 0, -2],
    )
    trace = mmcc_solve(net)
    assert trace.termination == "optimal"
    assert check_feasible(net, trace.final_flow) is None
    assert verify_optimality(net, trace.final_flow) is None
    assert flow_cost(net, trace.final_flow) == 4
    for it in trace.iterations:
        assert it.mean_cost < 0
        assert it.amount > 0


def test_mmcc_random_instances_reach_optimality():
    rng = random.Random(55)
    solved = 0
    for _ in range(80):
        net = random_network(rng, rng.randint(3, 7), rng.randint(3, 12), with_budgets=True)
        # negative costs allowed; capacities finite, so cost is bounded
        try:
            trace = mmcc_solve(net)
        except InfeasibleError:
            continue
        assert check_feasible(net, trace.final_flow) is None
        assert verify_optimality(net, trace.final_flow) is None
        costs = [it.mean_cost for it in trace.iterations]
        assert all(c < 0 for c in costs)
        # mean costs never improve as the run proceeds
        assert all(a <= b for a, b in zip(costs, costs[1:]))
        solved += 1
    assert solved > 10


def test_mmcc_cost_strictly_decreases_each_iteration():
    rng = random.Random(56)
    for _ in range(20):
        net = random_network(rng, rng.randint(3, 7), rng.randint(4, 12), with_budgets=True)
        try:
            trace = mmcc_solve(net)
        except InfeasibleError:
            continue
        iterations = trace.iterations
        if not iterations:
            continue
        # replay and watch the cost drop
        flow = initial_feasible_flow(net)
        cost = flow_cost(net, flow)
        for it in iterations:
            flow, amount = augment_cycle(net, flow, it.cycle)
            new_cost = flow_cost(net, flow)
            assert new_cost < cost
            assert amount == it.amount
            cost = new_cost


def test_iteration_cap_raises_with_partial_trace():
    net = net_from(
        3,
        [(0, 2, 2, 10), (0, 1, 2, 1), (1, 2, 2, 1)],
        [2, 0, -2],
    )
    with pytest.raises(IterationCapExceeded) as info:
        mmcc_solve(net, iteration_cap=0)
    trace = info.value.trace
    assert trace is not None
    assert trace.termination == "iteration_cap_hit"
    assert trace.iteration_count == 0
    assert trace.final_flow is not None


def test_default_iteration_cap_formula():
    assert default_iteration_cap(3, 5) == 8 * 3 * 25 + 15


def test_halving_violation_detects_slow_decay():
    ok = [Fraction(-8), Fraction(-8), Fraction(-4), Fraction(-2)]
    # shrinking by a factor of 1 - 1/2 is halving
    assert shrink_violation(ok, 2, 2) is None
    bad = [Fraction(-8), Fraction(-8), Fraction(-5), Fraction(-2)]
    assert shrink_violation(bad, 2, 2) == 0
    # shorter than the window: vacuously fine
    assert shrink_violation([Fraction(-1)], 2, 5) is None
    with pytest.raises(ValueError):
        shrink_violation(ok, 2, 0)
    # below one node, 1 - 1/n is undefined or above 1
    for nodes in (0, -1):
        with pytest.raises(ValueError, match="nodes must be positive"):
            shrink_violation(bad, nodes, 2)


def test_falling_mean_violation_detects_a_drop():
    assert falling_mean_violation([Fraction(-3), Fraction(-3), Fraction(-1, 2)]) is None
    assert falling_mean_violation([Fraction(-3), Fraction(-2), Fraction(-5, 2)]) == 1
    assert falling_mean_violation([]) is None


def test_shrink_violation_detects_slow_decay():
    # 3 nodes: each window of 2 must shrink |mean| to at most 2/3 of it
    ok = [Fraction(-9), Fraction(-8), Fraction(-6), Fraction(-16, 3)]
    assert shrink_violation(ok, 3, 2) is None
    bad = [Fraction(-9), Fraction(-8), Fraction(-6), Fraction(-11, 2)]
    assert shrink_violation(bad, 3, 2) == 1
    assert shrink_violation([Fraction(-1)], 3, 5) is None
    with pytest.raises(ValueError):
        shrink_violation(ok, 3, 0)


def assert_goldberg_tarjan(net, trace):
    """Goldberg and Tarjan's invariants on a canceling run: the minimum
    mean never falls, and its magnitude shrinks by (1 - 1/n) over
    every m cancellations."""
    means = trace.mean_costs()
    assert falling_mean_violation(means) is None
    assert shrink_violation(means, net.node_count, net.edge_count) is None


def test_smoothed_instance_requires_costs():
    from flowlab.core import CostInterval, SmoothedInstance

    net = net_from(2, [(0, 1, 1, 0)], [0, 0])
    inst = SmoothedInstance(
        network=net, intervals=(CostInterval(Fraction(0), Fraction(1)),), phi=Fraction(1)
    )
    with pytest.raises(ValueError):
        mmcc_solve(inst)
    with pytest.raises(ValueError):
        mmcc_solve(net, costs=[Fraction(1, 2)])


def outcome(solve, *args):
    """Iterations and final flow of a run, or the type and message of
    the error it raised."""
    try:
        result = solve(*args)
    except (InfeasibleError, UnboundedCycleError) as exc:
        return type(exc), str(exc)
    if isinstance(result, tuple):
        return result
    assert result.termination == "optimal"
    if isinstance(result, MmccTrace):
        assert_goldberg_tarjan(args[0], result)
    return result.iterations, result.final_flow


def assert_replays_reference(inst, costs):
    trace = mmcc_solve(inst, costs)
    net = inst.realize(costs)
    iterations, flow = reference_mmcc(net, inst.starting_flow)
    assert trace.termination == "optimal"
    assert_goldberg_tarjan(net, trace)
    assert trace.iterations == iterations
    assert trace.final_flow == flow
    return trace


@pytest.mark.parametrize("cost_seed", range(3))
def test_mmcc_solve_replays_reference_on_mmcc_general(cost_seed):
    inst = gen_mmcc_general(MmccGeneralParams(8, 16, 256))
    trace = assert_replays_reference(inst, sample_costs(inst, cost_seed))
    assert trace.iteration_count == 62


@pytest.mark.parametrize("n, m", [(4, 9), (5, 10)])
def test_mmcc_solve_replays_reference_on_mmcc_large_phi(n, m):
    # costs here are too fine for the table to be held in floats
    inst = gen_mmcc_large_phi(n, m)
    trace = assert_replays_reference(inst, sample_costs(inst, 0))
    assert trace.iteration_count >= 2 * m * n


def random_net(rng, bounded=False):
    """A network with negative and rational costs, rational and, unless
    ``bounded``, unbounded capacities, and rational budgets."""
    n = rng.randint(3, 7)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = []
    for a, b in rng.sample(pairs, rng.randint(n, len(pairs))):
        tail, head = (a, b) if rng.random() < 0.5 else (b, a)
        cap = Fraction(rng.randint(0, 6), rng.randint(1, 3))
        if not bounded and rng.random() < 0.4:
            cap = None
        edges.append((tail, head, cap, Fraction(rng.randint(-9, 9), rng.randint(1, 5))))
    budgets = [Fraction(0)] * n
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(range(n), 2)
        amount = Fraction(rng.randint(1, 4), rng.randint(1, 2))
        budgets[a] += amount
        budgets[b] -= amount
    return FlowNetwork.from_data(n, edges, budgets)


def test_mmcc_solve_replays_reference_on_random_networks():
    rng = random.Random(57)
    kinds = {"solved": 0, "several": 0, InfeasibleError: 0, UnboundedCycleError: 0}
    for _ in range(600):
        net = random_net(rng)
        got = outcome(mmcc_solve, net)
        assert got == outcome(reference_run, net)
        if isinstance(got[0], type):
            kinds[got[0]] += 1
        else:
            kinds["solved"] += 1
            kinds["several"] += len(got[0]) > 1
    assert min(kinds.values()) >= 10, kinds


def test_mmcc_solve_replays_reference_through_ties():
    # small integer costs: many equally cheap walks into the same node,
    # so the cycle depends on which arc the search tries first
    rng = random.Random(59)
    several = 0
    for _ in range(400):
        n = rng.randint(3, 7)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        edges = [
            (a, b, rng.randint(1, 3), rng.randint(-3, 2)) if rng.random() < 0.5
            else (b, a, rng.randint(1, 3), rng.randint(-3, 2))
            for a, b in rng.sample(pairs, rng.randint(n, len(pairs)))
        ]
        net = net_from(n, edges, [0] * n)
        got = outcome(mmcc_solve, net)
        assert got == outcome(reference_run, net)
        several += len(got[0]) > 1
    assert several > 50


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_mmcc_solve_matches_reference_on_drawn_networks(rng):
    net = random_net(rng)
    assert outcome(mmcc_solve, net) == outcome(reference_run, net)


def test_mmcc_solve_raises_on_uncapacitated_negative_cycle():
    # 0 -> 1 -> 2 -> 0 costs -1 and no edge on it has a capacity
    net = net_from(
        3, [(0, 1, None, -2), (1, 2, None, 0), (2, 0, None, 1), (0, 2, 4, -1)], [0, 0, 0]
    )
    with pytest.raises(UnboundedCycleError, match="cost is unbounded") as info:
        mmcc_solve(net)
    assert outcome(reference_run, net) == (UnboundedCycleError, str(info.value))


def test_mmcc_solve_iteration_cap_trace_holds_the_first_cancellations():
    inst = gen_mmcc_general(MmccGeneralParams(8, 16, 256))
    costs = sample_costs(inst, 0)
    with pytest.raises(IterationCapExceeded, match="no optimum after 3 cycle cancellations") as info:
        mmcc_solve(inst, costs, iteration_cap=3)
    iterations, flow = reference_mmcc(inst.realize(costs), inst.starting_flow, limit=3)
    trace = info.value.trace
    assert trace.termination == "iteration_cap_hit"
    assert trace.iterations == iterations
    assert trace.final_flow == flow
    assert flow != inst.starting_flow


def test_mmcc_solve_rejects_a_stored_start_that_breaks_conservation():
    inst = gen_mmcc_general(MmccGeneralParams(6, 12, 64))
    costs = sample_costs(inst, 0)
    values = list(inst.starting_flow.values)
    # one more unit on an idle edge, still within its capacity
    e = next(i for i, (edge, f) in enumerate(zip(inst.network.edges, values))
             if f == 0 and (edge.capacity is None or edge.capacity >= 1))
    values[e] = Fraction(1)
    broken = replace(inst, starting_flow=Flow(tuple(values)))
    bad = check_feasible(broken.realize(costs), broken.starting_flow)
    assert bad.kind == "conservation"
    with pytest.raises(InfeasibleError) as info:
        mmcc_solve(broken, costs)
    assert str(info.value) == "stored starting flow: conservation: " + bad.detail
    assert mmcc_solve(inst, costs).termination == "optimal"


def test_mmcc_solve_optimal_cost_matches_networkx():
    rng = random.Random(58)
    checked = 0
    for _ in range(200):
        net = random_net(rng, bounded=True)
        graph, cost_scale, flow_scale = scaled_graph(net)
        try:
            trace = mmcc_solve(net)
        except InfeasibleError:
            with pytest.raises(nx.NetworkXUnfeasible):
                nx.min_cost_flow_cost(graph)
            continue
        expected = Fraction(nx.min_cost_flow_cost(graph), cost_scale * flow_scale)
        assert flow_cost(net, trace.final_flow) == expected
        checked += 1
    assert checked > 50


def with_rational_bounds(inst):
    """``inst`` with every capacity raised by 1/3 and every budget
    halved: a feasible instance stays feasible, and the lcm of its
    capacity and budget denominators is 6."""
    net = inst.network
    edges = tuple(replace(e, capacity=e.capacity + Fraction(1, 3)) for e in net.edges)
    budgets = tuple(b / 2 for b in net.budgets)
    return replace(inst, network=replace(net, edges=edges, budgets=budgets))


def test_mmcc_from_max_flows_integers_replays_the_run_from_the_same_flow_stored():
    feasible = []
    for seed in range(16):
        inst = gen_random_smoothed(10, 25, 64, seed)
        try:
            initial_feasible_flow(inst.network)
        except InfeasibleError:
            continue
        feasible.append(inst)
    rational = with_rational_bounds(feasible[0])
    assert lcm(*(e.capacity.denominator for e in rational.network.edges),
               *(b.denominator for b in rational.network.budgets)) == 6
    cancelled = 0
    for k, inst in enumerate(feasible + [rational]):
        costs = sample_costs(inst, k)
        net = inst.realize(costs)
        stored = replace(inst, starting_flow=initial_feasible_flow(net))
        trace = mmcc_solve(inst, costs)
        # equal traces: the same cycles, rooms, means and amounts step
        # for step, and the same final flow
        assert trace == mmcc_solve(stored, costs)
        assert trace == mmcc_solve(net)
        cancelled += trace.iteration_count > 0
    assert len(feasible) >= 5 and cancelled >= 4
    # the last run is the rational one, whose start is in sixths
    assert any(it.amount.denominator > 1 for it in trace.iterations)


def test_mmcc_without_a_stored_flow_raises_initial_feasible_flows_error():
    inst = gen_random_smoothed(8, 20, 16, 0)
    costs = sample_costs(inst, 0)
    message = "budgets require 4 units but only 0 can be routed"
    for run in (
        lambda: initial_feasible_flow(inst.realize(costs)),
        lambda: mmcc_solve(inst, costs),
        lambda: mmcc_solve(inst.realize(costs)),
    ):
        with pytest.raises(InfeasibleError) as info:
            run()
        assert str(info.value) == message


def with_uncapacitated_edges(inst):
    """``inst`` with every third edge's capacity lifted: a feasible
    instance stays feasible."""
    net = inst.network
    edges = tuple(replace(e, capacity=None) if i % 3 == 0 else e for i, e in enumerate(net.edges))
    return replace(inst, network=replace(net, edges=edges))


def kept_arc_set_instances():
    yield gen_mmcc_general(MmccGeneralParams(12, 48, 4096)), 0
    yield gen_mmcc_general(MmccGeneralParams(12, 48, 4096)), 1
    yield gen_mmcc_large_phi(5, 10), 0
    for seed in range(12):
        inst = with_uncapacitated_edges(gen_random_smoothed(10, 30, 64, seed))
        try:
            initial_feasible_flow(inst.network)
        except InfeasibleError:
            continue
        yield inst, seed


def test_the_search_keeps_the_arcs_with_room_across_cancellations(monkeypatch):
    # MMCC's search updates its arc set, and the first rows of its table
    # kept with it, after each push for the cycle's arcs and their
    # reverses only; replaying the records on fresh arcs must give,
    # before every search, exactly the arcs with room, and a search set
    # up afresh over them must start from the same rows
    searched = []
    search = _MeanSearch.__call__

    def recorded(self, *args, **kwargs):
        places = self.present.values()
        assert sorted(places) == list(range(len(self.present_ids))) and len(self.present_arcs) == len(places)
        assert [self.present_ids[i] for i in places] == list(self.present)
        assert [self.present_arcs[i] for i in places] == [self.table_arcs[a] for a in self.present]
        assert self.first_rows == _MeanSearch(self.n, self.arcs, sorted(self.present)).first_rows
        searched.append(set(self.present))
        return search(self, *args, **kwargs)

    monkeypatch.setattr(_MeanSearch, "__call__", recorded)
    runs = cancelled = unbounded = 0
    for inst, seed in kept_arc_set_instances():
        searched.clear()
        trace = mmcc_solve(inst, sample_costs(inst, seed))
        res = inst.network._start.arcs_at(inst.network, inst.starting_flow)
        assert len(searched) == trace.iteration_count + 1
        for arcs_searched, (arcs, _, amount) in zip(searched, trace._records):
            assert arcs_searched == set(res.with_room())
            res.push(arcs, amount)
        assert searched[-1] == set(res.with_room())
        unbounded += None in res.room
        cancelled += trace.iteration_count > 0
        runs += 1
    assert runs >= 12 and cancelled >= 10 and unbounded == runs
