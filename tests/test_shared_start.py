"""The computed start that every realization of one instance shares,
and the cost layer that every solve of one cost draw shares.

A network's maximum-flow start, budget widening and arcs at zero flow
depend on its capacities and budgets only, so ``realize`` hands the
instance network's to every realization, and each is computed once.
A cost draw is checked and scaled once, and its layer is shared by the
realization, MMCC, network simplex, the widening for SSP and the
certificates.  These tests check that sharing changes nothing: no
trace, flow or error text, and no push of one solve leaks into the next.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from flowlab import core
from flowlab.core import (
    CapacityViolation,
    CostInterval,
    Flow,
    FlowNetwork,
    InfeasibleError,
    SmoothedInstance,
    residual,
    verify_optimality,
)
from flowlab.experiment import ALGORITHMS, solve
from flowlab.generators import gen_random_smoothed, sample_costs
from flowlab.mincycle import _MeanSearch, karp_min_mean
from flowlab.mmcc import initial_feasible_flow, mmcc_solve
from flowlab.netsimplex import basic_structure_from_flow, ns_solve
from flowlab.ssp import concentrate_budgets, ssp_solve, zero_budget_copy

from reference import reference_karp, reference_mmcc, reference_ssp


def feasible_instances(count=4):
    found = []
    for seed in range(40):
        inst = gen_random_smoothed(12, 36, 64, seed)
        try:
            initial_feasible_flow(replace(inst.network))
        except InfeasibleError:
            continue
        found.append(inst)
        if len(found) == count:
            return found
    raise AssertionError("too few feasible draws")


def cross_check_calls(inst, costs):
    """The calls of perfbench's cross_check solve, in its order."""
    net = inst.realize(costs)
    warm = initial_feasible_flow(net)
    by_cycles = mmcc_solve(inst, costs)
    structure, _ = basic_structure_from_flow(net, warm)
    by_pivots = ns_solve(net, structure)
    by_paths = ssp_solve(*concentrate_budgets(net))
    return by_cycles, by_pivots, by_paths


def without_start(inst):
    """``inst`` on an equal network that has computed no start yet."""
    return replace(inst, network=replace(inst.network))


def test_every_solver_gives_equal_traces_when_one_instance_is_solved_again():
    for k, inst in enumerate(feasible_instances()):
        costs, other = sample_costs(inst, k), sample_costs(inst, k + 100)
        first = {alg: solve(inst, costs, alg) for alg in ALGORITHMS}
        # another cost draw in between, on the same shared start
        for alg in ALGORITHMS:
            solve(inst, other, alg)
        fresh = without_start(inst)
        for alg in ALGORITHMS:
            again = solve(inst, costs, alg)
            # ``==`` on traces compares the steps and the final flow
            assert again == first[alg]
            assert again.final_flow == first[alg].final_flow
            assert solve(fresh, costs, alg) == first[alg]


def test_the_cross_check_calls_give_equal_traces_when_repeated():
    for k, inst in enumerate(feasible_instances()):
        costs = sample_costs(inst, k)
        first = cross_check_calls(inst, costs)
        assert sum(t.step_count for t in first) > 0
        assert cross_check_calls(inst, costs) == first
        assert cross_check_calls(without_start(inst), costs) == first


def test_realizations_share_the_instance_networks_start():
    inst = feasible_instances(1)[0]
    a, b = inst.realize(sample_costs(inst, 0)), inst.realize(sample_costs(inst, 1))
    assert a._start is b._start is inst.network._start
    flow = initial_feasible_flow(a)
    # the maximum flow ran once, for all three networks
    kept = inst.network._start.kept
    assert initial_feasible_flow(b) == initial_feasible_flow(inst.network) == flow
    assert inst.network._start.kept is kept


def test_a_push_in_one_solve_never_reaches_the_next_start():
    for k, inst in enumerate(feasible_instances()):
        costs = sample_costs(inst, k)
        net = inst.realize(costs)
        before = initial_feasible_flow(net)
        trace = mmcc_solve(inst, costs)
        solve(inst, costs, "ns")
        assert trace.final_flow != before or trace.step_count == 0
        assert initial_feasible_flow(net) == before
        assert initial_feasible_flow(inst.network) == before
        assert initial_feasible_flow(replace(net)) == before


def test_an_infeasible_instance_raises_the_same_text_every_time():
    inst = gen_random_smoothed(8, 20, 16, 0)
    costs = sample_costs(inst, 0)
    message = "budgets require 4 units but only 0 can be routed"
    for run in (
        lambda: initial_feasible_flow(inst.network),
        lambda: initial_feasible_flow(inst.network),
        lambda: initial_feasible_flow(inst.realize(costs)),
        lambda: initial_feasible_flow(inst.realize(costs)),
        lambda: mmcc_solve(inst, costs),
        lambda: solve(inst, costs, "ns"),
    ):
        with pytest.raises(InfeasibleError) as info:
            run()
        assert str(info.value) == message
    # the text is kept, never the exception and its traceback
    assert inst.network._start.kept == message


def test_replaced_networks_compute_their_own_start():
    inst = feasible_instances(1)[0]
    net = inst.realize(sample_costs(inst, 0))
    flow = initial_feasible_flow(net)
    assert any(flow.values)
    # new capacities: every edge closed, so no budget can be routed
    closed = replace(net, edges=tuple(replace(e, capacity=Fraction(0)) for e in net.edges))
    assert closed._start is not net._start
    with pytest.raises(InfeasibleError, match="but only 0 can be routed"):
        initial_feasible_flow(closed)
    zero = zero_budget_copy(net)
    assert zero._start is not net._start
    assert not any(initial_feasible_flow(zero).values)
    # the original keeps its own
    assert initial_feasible_flow(net) == flow


def test_the_widening_is_built_once_per_instance(monkeypatch):
    # the max-flow start, every solver and every widening for SSP read
    # the one widened network of the instance's start; a realization and
    # the network ``concentrate_budgets`` returns are copies with new costs
    inst = without_start(feasible_instances(1)[0])
    built = []
    check = FlowNetwork.__post_init__
    monkeypatch.setattr(FlowNetwork, "__post_init__", lambda net: built.append(net) or check(net))
    for seed in range(3):
        costs = sample_costs(inst, seed)
        cross_check_calls(inst, costs)
        for alg in ALGORITHMS:
            solve(inst, costs, alg)
        concentrate_budgets(inst.realize(costs))
    assert len(built) == 1
    assert built[0].node_count == inst.network.node_count + 2


def test_one_cost_draw_is_checked_and_scaled_once(monkeypatch):
    inst = feasible_instances(1)[0]
    costs = sample_costs(inst, 0)
    layers, checks, scaled = [], [], []
    init, contains, scale = core._Costs.__init__, CostInterval.contains, core._scaled_all
    monkeypatch.setattr(
        core._Costs, "__init__", lambda self, *args: layers.append(self) or init(self, *args)
    )
    monkeypatch.setattr(
        CostInterval, "contains", lambda self, cost: checks.append(cost) or contains(self, cost)
    )
    monkeypatch.setattr(
        core, "_scaled_all", lambda values, *rest: scaled.append(values) or scale(values, *rest)
    )
    # the cross_check calls, then a certificate of each flow
    net = inst.realize(costs)
    warm = initial_feasible_flow(net)
    by_cycles = mmcc_solve(inst, costs)
    structure, _ = basic_structure_from_flow(net, warm)
    by_pivots = ns_solve(net, structure)
    wide, source, sink, demand = concentrate_budgets(net)
    by_paths = ssp_solve(wide, source, sink, demand)
    cut = Flow(by_paths.final_flow.values[: net.edge_count])
    for flow in (by_cycles.final_flow, by_pivots.final_flow, cut):
        assert verify_optimality(net, flow) is None
    # each cost checked once, and one layer for the draw; the widening's
    # is a padded copy of it
    layer = net._costs
    assert checks == list(costs)
    assert layers == [layer]
    assert wide._costs.values == layer.values + (Fraction(0),) * (wide.edge_count - net.edge_count)
    assert wide._costs.scale == layer.scale
    # the costs were scaled to integers once, for all three solvers and
    # the certificates
    assert [values for values in scaled if values is layer.values] == [layer.values]
    assert wide._costs.paired[: len(layer.paired)] == layer.paired


def test_the_zero_flow_arcs_are_built_once_per_instance(monkeypatch):
    # the arcs of the budget widening at zero flow, which max flow, NS
    # and SSP read: no other arcs are built, since each solver copies them
    # or the max flow's
    inst = without_start(feasible_instances(1)[0])
    built, pushed = [], []
    init, push = core._ResidualArcs.__init__, core._ResidualArcs.push

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(core._ResidualArcs, "__init__", counted)
    monkeypatch.setattr(
        core._ResidualArcs, "push", lambda self, *args: pushed.append(self) or push(self, *args)
    )
    for seed in range(3):
        costs = sample_costs(inst, seed)
        cross_check_calls(inst, costs)
        for alg in ALGORITHMS:
            solve(inst, costs, alg)
        wide, *_ = concentrate_budgets(inst.realize(costs))
        if seed == 0:
            zero = inst.network._start.zero_arcs(inst.network)
            rooms = list(zero.room)
        assert wide._start.zero_arcs(wide) is zero
    assert built == [zero]
    assert len(zero.room) == 2 * wide.edge_count
    assert zero.layer is None
    assert pushed and all(res is not zero for res in pushed)
    assert zero.room == rooms
    assert not any(zero.room[1::2])


def widened_by_hand(net):
    """``concentrate_budgets(net)`` built from plain tuples: a network
    that computes its own start."""
    n = net.node_count
    edges = [(e.tail, e.head, e.capacity, e.cost) for e in net.edges]
    for v, b in enumerate(net.budgets):
        if b > 0:
            edges.append((n, v, b, 0))
        elif b < 0:
            edges.append((v, n + 1, -b, 0))
    demand = sum((b for b in net.budgets if b > 0), Fraction(0))
    return FlowNetwork.from_data(n + 2, edges), n, n + 1, demand


def ssp_outcome(wide, source, sink, demand):
    try:
        trace = ssp_solve(wide, source, sink, demand)
    except InfeasibleError as exc:
        return str(exc)
    return trace, trace.final_flow


def test_ssp_on_a_widening_equals_ssp_on_the_same_network_built_by_hand():
    infeasible = gen_random_smoothed(8, 20, 16, 0)
    draws = [(inst, sample_costs(inst, k)) for k, inst in enumerate(feasible_instances())]
    draws.append((infeasible, sample_costs(infeasible, 0)))
    for inst, costs in draws:
        net = inst.realize(costs)
        wide = concentrate_budgets(net)
        by_hand = widened_by_hand(net)
        assert wide[0] == by_hand[0] and wide[1:] == by_hand[1:]
        got = ssp_outcome(*wide)
        assert got == ssp_outcome(*by_hand)
        # its own start lays out the same arcs as the shared one
        own, shared = by_hand[0]._start.zero_arcs(by_hand[0]), wide[0]._start.zero_arcs(wide[0])
        assert shared is net._start.zero_arcs(net)
        assert (own.tail, own.head, own.room, own.flow_scale) == (
            shared.tail, shared.head, shared.room, shared.flow_scale
        )
    assert got == "no residual path left with 4 of 4 still to ship"


def test_a_negative_capacity_raises_where_the_widening_is_built():
    # the widening lays out its arcs when it is built, so
    # ``concentrate_budgets`` raises the text that SSP on the same
    # network built by hand raises, as the max-flow start does
    net = FlowNetwork.from_data(3, [(0, 1, 2, 1), (1, 2, -1, 1)], [1, 0, -1])
    for run in (
        lambda: concentrate_budgets(net),
        lambda: concentrate_budgets(net),
        lambda: ssp_solve(*widened_by_hand(net)),
        lambda: initial_feasible_flow(net),
    ):
        with pytest.raises(CapacityViolation) as info:
            run()
        assert str(info.value) == "edge 1 carries 0 above capacity -1"


def test_a_demand_finer_than_the_capacities_gets_arcs_of_its_own():
    # integer capacities, a third of a unit: the start's arcs are in
    # whole units, so SSP scales its own
    net = FlowNetwork.from_data(3, [(0, 1, 2, 1), (1, 2, 2, 1), (0, 2, 1, 3)])
    assert net._start.zero_arcs(net).flow_scale == 1
    rooms = net._start.zero_arcs(net).room[:]
    trace = ssp_solve(net, 0, 2, Fraction(7, 3))
    steps, flow = reference_ssp(net, 0, 2, Fraction(7, 3))
    assert trace.steps == steps and trace.final_flow == flow
    assert [s.amount for s in steps] == [Fraction(2), Fraction(1, 3)]
    assert net._start.zero_arcs(net).flow_scale == 1
    assert net._start.zero_arcs(net).room == rooms


def test_the_last_search_of_a_solve_skips_the_min_max_step(monkeypatch):
    # cross_check-sized draws, under the 18 nodes at which a search may
    # stop early: every search builds the full table, and every one but
    # the last, which finds no negative cycle, takes Karp's min-max step
    searches, steps = [], []
    call, least_worst = _MeanSearch.__call__, _MeanSearch._least_worst

    def counted(self, *args, **kwargs):
        searches.append(self)
        return call(self, *args, **kwargs)

    monkeypatch.setattr(_MeanSearch, "__call__", counted)
    monkeypatch.setattr(
        _MeanSearch, "_least_worst", lambda search, *args: steps.append(search) or least_worst(search, *args)
    )
    rng = random.Random(28)
    solved = 0
    while solved < 20:
        n = rng.randint(10, 16)
        m, phi = rng.randint(2 * n, 4 * n), rng.choice((16, 64, 256))
        inst = gen_random_smoothed(n, m, phi, rng.getrandbits(32))
        costs = sample_costs(inst, rng.getrandbits(32))
        searches.clear()
        steps.clear()
        try:
            trace = mmcc_solve(inst, costs)
        except InfeasibleError:
            continue
        assert len(searches) == trace.iteration_count + 1
        assert len(steps) == len(searches) - 1
        iterations, flow = reference_mmcc(inst.realize(costs), initial_feasible_flow(inst.network))
        assert trace.iterations == iterations and trace.final_flow == flow
        solved += 1


def test_karp_still_returns_a_cycle_when_no_mean_is_negative():
    for k, inst in enumerate(feasible_instances()):
        net = inst.realize(sample_costs(inst, k))
        r = residual(net, mmcc_solve(net).final_flow)
        cycle = karp_min_mean(r)
        assert cycle is not None and cycle.mean_cost >= 0
        assert cycle == reference_karp(r)


def tiny_instance():
    """One edge whose cost lies in [0, 1/2]."""
    net = FlowNetwork.from_data(2, [(0, 1, 1, 0)], [1, -1])
    return SmoothedInstance(net, (CostInterval(Fraction(0), Fraction(1, 2)),), Fraction(2))


def test_an_equal_tuple_holding_a_float_still_raises():
    inst = tiny_instance()
    kept = (Fraction(1, 2),)
    assert inst.realize(kept).edges[0].cost == Fraction(1, 2)
    # equal, but not the kept tuple: the float is refused, never looked up
    assert (0.5,) == kept
    for run in (lambda: inst.realize((0.5,)), lambda: mmcc_solve(inst, (0.5,))):
        with pytest.raises(TypeError, match="refusing to convert float 0.5"):
            run()


def test_a_list_changed_between_calls_is_checked_again():
    inst = tiny_instance()
    costs = [Fraction(1, 4)]
    assert inst.realize(costs).edges[0].cost == Fraction(1, 4)
    costs[0] = Fraction(1, 3)
    assert inst.realize(costs).edges[0].cost == Fraction(1, 3)
    assert mmcc_solve(inst, costs).final_flow == Flow((Fraction(1),))
    costs[0] = Fraction(3, 4)
    for run in (lambda: inst.realize(costs), lambda: mmcc_solve(inst, costs)):
        with pytest.raises(ValueError, match=r"cost 3/4 for edge \(0,1\) outside"):
            run()


def test_a_bad_cost_raises_the_same_text_every_time():
    inst = tiny_instance()
    inst.realize((Fraction(1, 4),))
    message = "cost 3/4 for edge (0,1) outside its interval [0, 1/2]"
    bad = (Fraction(3, 4),)
    for run in (
        lambda: inst.realize(bad),
        lambda: inst.realize(bad),
        lambda: mmcc_solve(inst, bad),
        lambda: solve(inst, bad, "ns"),
    ):
        with pytest.raises(ValueError) as info:
            run()
        assert str(info.value) == message
    # an int cost takes the general check, and gives the same text
    with pytest.raises(ValueError) as info:
        inst.realize((1,))
    assert str(info.value) == "cost 1 for edge (0,1) outside its interval [0, 1/2]"


def test_copies_never_inherit_a_stale_cost_layer():
    inst = feasible_instances(1)[0]
    costs = sample_costs(inst, 0)
    net = inst.realize(costs)
    assert net._costs.values == tuple(e.cost for e in net.edges)
    zero = zero_budget_copy(net)
    assert zero._costs is net._costs
    assert zero._costs.values == net._costs.values
    dearer = replace(net, edges=tuple(replace(e, cost=e.cost + 1) for e in net.edges))
    assert dearer._costs.values == tuple(e.cost + 1 for e in net.edges)
    assert dearer._costs.scale == net._costs.scale
    # an instance with narrower intervals checks the same tuple again
    narrow = replace(
        inst, intervals=tuple(CostInterval(i.lo, Fraction(0)) for i in inst.intervals)
    )
    with pytest.raises(ValueError, match="outside its interval"):
        narrow.realize(costs)
    with pytest.raises(ValueError, match="outside its interval"):
        mmcc_solve(narrow, costs)
    assert inst.realize(costs)._costs is net._costs
