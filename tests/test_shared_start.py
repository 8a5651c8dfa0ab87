"""The computed start that every realization of one instance shares.

A network's maximum-flow start and budget widening depend on its
capacities and budgets only, so ``realize`` hands the instance
network's to every realization, and each is computed once.  These tests
check that sharing it changes nothing: no trace, flow or error text,
and no push of one solve leaks into the next.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from flowlab.core import FlowNetwork, InfeasibleError
from flowlab.experiment import ALGORITHMS, solve
from flowlab.generators import gen_random_smoothed, sample_costs
from flowlab.mmcc import initial_feasible_flow, mmcc_solve
from flowlab.netsimplex import basic_structure_from_flow, ns_solve
from flowlab.ssp import concentrate_budgets, ssp_solve, zero_budget_copy


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
    routed = inst.network._start.routed
    assert initial_feasible_flow(b) == initial_feasible_flow(inst.network) == flow
    assert inst.network._start.routed is routed


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
    assert inst.network._start.routed == message


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


def test_the_computed_start_builds_no_widened_network(monkeypatch):
    inst = without_start(feasible_instances(1)[0])
    costs = sample_costs(inst, 0)
    built = []
    check = FlowNetwork.__post_init__
    monkeypatch.setattr(FlowNetwork, "__post_init__", lambda net: built.append(net) or check(net))
    initial_feasible_flow(inst.network)
    mmcc_solve(inst, costs)
    assert built == []
    solve(inst, costs, "ns")
    # the realization only, with the instance's nodes
    assert [net.node_count for net in built] == [inst.network.node_count]
    # the widened network is built when it is asked for
    concentrate_budgets(inst.network)
    assert built[-1].node_count == inst.network.node_count + 2
