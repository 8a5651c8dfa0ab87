"""The one solver entry point: ``solve`` and the ``Trace`` it returns."""

import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from flowlab.core import (
    CapacityViolation,
    CostInterval,
    Cycle,
    Flow,
    FlowLabError,
    FlowNetwork,
    InfeasibleError,
    IterationCapExceeded,
    ResidualEdge,
    SmoothedInstance,
    UnboundedCycleError,
    flow_cost,
    verify_optimality,
)
from flowlab.experiment import solve
from flowlab.generators import (
    MmccGeneralParams,
    NsParams,
    gen_mmcc_general,
    gen_ns_lower_bound,
    gen_random_smoothed,
    sample_costs,
)
from flowlab.mmcc import MmccIteration, initial_feasible_flow, mmcc_solve
from flowlab.netsimplex import (
    InfeasibleStructureError,
    NsPivot,
    basic_structure_from_flow,
    ns_solve,
)
from flowlab.ssp import NegativeCycleError, SspStep, concentrate_budgets, ssp_solve

NS_LOWER, NS_TREE = gen_ns_lower_bound(NsParams(6, 10, 64))
# seed 1 draws a feasible instance with no stored flow; seed 0 is infeasible
RANDOM = gen_random_smoothed(8, 20, 16, 1)
CASES = {
    "mmcc_general": (gen_mmcc_general(MmccGeneralParams(6, 12, 64)), None),
    "ns_lower_tree": (NS_LOWER, NS_TREE),
    "ns_lower_flow": (NS_LOWER, None),
    "random": (RANDOM, None),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_solve_replays_the_direct_calls(case):
    inst, stored_tree = CASES[case]
    costs = sample_costs(inst, 0)
    net = inst.realize(costs)
    tree = stored_tree
    if tree is None:
        start = inst.starting_flow
        tree, _ = basic_structure_from_flow(
            net, initial_feasible_flow(net) if start is None else start
        )
    direct = {
        ("mmcc", False): mmcc_solve(inst, costs),
        ("ns", False): ns_solve(net, tree),
        ("ns", True): ns_solve(net, tree, strongly_feasible=True),
        ("ssp", False): ssp_solve(*concentrate_budgets(net)),
    }
    assert len(direct["ssp", False].final_flow) > net.edge_count
    for (algorithm, strong), want in direct.items():
        trace = solve(inst, costs, algorithm, structure=stored_tree, strongly_feasible=strong)
        assert trace.termination == "optimal"
        assert trace.steps == want.steps
        assert trace.final_flow == Flow(want.final_flow.values[: net.edge_count])
        assert len(trace.final_flow) == net.edge_count


@pytest.mark.parametrize("algorithm", ["mmcc", "ns"])
def test_solve_checks_a_stored_start_before_mmcc_and_ns(algorithm):
    inst = gen_mmcc_general(MmccGeneralParams(4, 8, 64))
    values = list(inst.starting_flow.values)
    # the first positive stored value, one unit lower
    first = next(i for i, f in enumerate(values) if f > 0)
    values[first] -= 1
    broken = replace(inst, starting_flow=Flow(tuple(values)))
    costs = sample_costs(broken, 0)
    with pytest.raises(InfeasibleError) as info:
        solve(broken, costs, algorithm)
    assert str(info.value) == "stored starting flow: conservation: node a is off by 1"
    # SSP ships the budgets and never reads a stored start
    trace = solve(broken, costs, "ssp")
    assert trace.termination == "optimal"
    assert verify_optimality(broken.realize(costs), trace.final_flow) is None


def _triangle_with_stored_flow(caps, budgets, values) -> SmoothedInstance:
    net = FlowNetwork.from_data(
        3, [(0, 1, caps[0], 1), (1, 2, caps[1], 1), (0, 2, caps[2], 3)], budgets=budgets
    )
    intervals = tuple(CostInterval(e.cost, Fraction(1)) for e in net.edges)
    return SmoothedInstance(net, intervals, Fraction(1), Flow.from_values(values))


@pytest.mark.parametrize("algorithm", ["mmcc", "ns"])
@pytest.mark.parametrize(
    "caps, budgets, values, message",
    [
        # the bad edge ends up off the tree
        ((5, 5, 1), (4, 0, -4), (1, 1, 3), "edge 2 carries 3 above capacity 1"),
        # the bad edge ends up in the tree
        ((1, 5, 5), (2, 0, -2), (2, 2, 0), "edge 0 carries 2 above capacity 1"),
    ],
)
def test_solve_rejects_a_stored_start_above_capacity(algorithm, caps, budgets, values, message):
    inst = _triangle_with_stored_flow(caps, budgets, values)
    with pytest.raises(CapacityViolation) as info:
        solve(inst, [e.cost for e in inst.network.edges], algorithm)
    assert str(info.value) == message


_UNBOUNDED = ([(0, 1, None, -1), (1, 2, None, -1), (2, 0, None, -1), (0, 3, 2, 1)], [1, 0, 0, -1])
_OVER_CAPACITY = ([(0, 1, 1, 1), (1, 2, 1, 1)], [2, 0, -2])
_UNBALANCED = ([(0, 1, 1, 1)], [1, 0])
_UNBALANCED_ERROR = (InfeasibleError, "budgets sum to 1, not zero")


@pytest.mark.parametrize(
    "edges, budgets, algorithm, error, message",
    [
        (*_UNBOUNDED, "mmcc", UnboundedCycleError,
         "every cycle edge is uncapacitated; cost is unbounded"),
        (*_UNBOUNDED, "ns", UnboundedCycleError,
         "pivot cycle has unlimited headroom; cost is unbounded"),
        (*_UNBOUNDED, "ssp", NegativeCycleError,
         "path costs keep dropping; negative residual cycle"),
        (*_OVER_CAPACITY, "mmcc", InfeasibleError,
         "budgets require 2 units but only 1 can be routed"),
        (*_OVER_CAPACITY, "ns", InfeasibleError,
         "budgets require 2 units but only 1 can be routed"),
        (*_OVER_CAPACITY, "ssp", InfeasibleError,
         "no residual path left with 1 of 2 still to ship"),
        (*_UNBALANCED, "mmcc", *_UNBALANCED_ERROR),
        (*_UNBALANCED, "ns", *_UNBALANCED_ERROR),
        (*_UNBALANCED, "ssp", *_UNBALANCED_ERROR),
    ],
)
def test_each_solver_raises_its_pinned_error(edges, budgets, algorithm, error, message):
    net = FlowNetwork.from_data(len(budgets), edges, budgets=budgets)
    intervals = tuple(CostInterval(e.cost, Fraction(0)) for e in net.edges)
    inst = SmoothedInstance(net, intervals, Fraction(1))
    with pytest.raises(FlowLabError) as info:
        solve(inst, [e.cost for e in net.edges], algorithm)
    assert type(info.value) is error
    assert str(info.value) == message


def _random_agreement_case(rng, nodes=(2, 6)):
    """A network on ``nodes[0]`` to ``nodes[1]`` nodes with rational
    budgets that sum to zero, rational and unbounded capacities and
    rational costs, a third of them negative; some are disconnected,
    infeasible or unbounded."""
    n = rng.randint(*nodes)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = []
    for a, b in rng.sample(pairs, rng.randint(min(n - 1, len(pairs)), len(pairs))):
        tail, head = (a, b) if rng.randrange(2) else (b, a)
        cap = None if rng.randrange(3) == 0 else Fraction(rng.randint(0, 9), rng.randint(1, 3))
        edges.append((tail, head, cap, Fraction(rng.randint(-5, 9), rng.randint(1, 3))))
    budgets = [
        Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if rng.randrange(2) else Fraction(0)
        for _ in range(n - 1)
    ]
    budgets.append(-sum(budgets))
    return FlowNetwork.from_data(n, edges, budgets=budgets)


def _outcome(inst, algorithm):
    """The solver's trace, or the class of its error."""
    try:
        return solve(inst, [e.cost for e in inst.network.edges], algorithm)
    except FlowLabError as exc:
        return type(exc)


def _assert_three_solvers_agree(net):
    """SSP answers for the others only when the zero flow of the widening
    leaves no negative residual cycle, and raises exactly when it does,
    at any demand, zero included; NS needs a spanning tree.  Past those
    two, the error class or the flow's cost agree.  Returns MMCC's error
    class, or ``Fraction`` for a cost, whether NS had no tree, and
    whether the widening's zero flow had a negative cycle."""
    inst = SmoothedInstance(
        net, tuple(CostInterval(e.cost, Fraction(0)) for e in net.edges), Fraction(1)
    )
    traces = {algorithm: _outcome(inst, algorithm) for algorithm in ("mmcc", "ns", "ssp")}
    got = {
        algorithm: t if isinstance(t, type) else flow_cost(net, t.final_flow)
        for algorithm, t in traces.items()
    }
    widened = concentrate_budgets(net)[0]
    negative = verify_optimality(widened, Flow.zero(widened.edge_count)) is not None
    graph = nx.DiGraph()
    graph.add_nodes_from(range(net.node_count))
    graph.add_edges_from((e.tail, e.head) for e in net.edges)
    no_tree = not nx.is_weakly_connected(graph) and got["mmcc"] is not InfeasibleError
    assert (got["ns"] is InfeasibleStructureError) == no_tree
    assert (got["ssp"] is NegativeCycleError) == negative
    assert got["mmcc"] is not UnboundedCycleError or negative
    answers = {got["mmcc"]}
    answers |= set() if no_tree else {got["ns"]}
    answers |= set() if negative else {got["ssp"]}
    assert len(answers) == 1, got
    kind = got["mmcc"] if isinstance(got["mmcc"], type) else Fraction
    return kind, no_tree, negative


def test_three_solvers_agree_on_random_small_networks():
    rng = random.Random(10)
    seen = Counter()
    for _ in range(2000):
        net = _random_agreement_case(rng)
        kind, no_tree, negative = _assert_three_solvers_agree(net)
        seen[kind] += 1
        seen["no tree"] += no_tree
        if negative:
            seen["negative", kind] += 1
            seen["negative at zero demand"] += not any(net.budgets)
    # every kind of input, and of answer on a negative cycle, turns up
    assert seen[Fraction] > 800 and seen[InfeasibleError] > 800
    assert seen["no tree"] > 10
    assert seen["negative", Fraction] > 50 and seen["negative", InfeasibleError] > 30
    assert seen["negative", UnboundedCycleError] > 5
    assert seen["negative at zero demand"] > 10


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(7, 14))
def test_three_solvers_agree_on_wider_random_networks(rng, n):
    _assert_three_solvers_agree(_random_agreement_case(rng, (n, n)))


def test_solve_needs_costs():
    for algorithm in ("mmcc", "ns", "ssp"):
        with pytest.raises(ValueError, match="a smoothed instance needs sampled costs"):
            solve(NS_LOWER, None, algorithm)


def test_solve_rejects_unknown_algorithms_and_misplaced_options():
    inst, tree = CASES["ns_lower_tree"]
    costs = sample_costs(inst, 0)
    with pytest.raises(ValueError, match="unknown algorithm 'dual'"):
        solve(inst, costs, "dual")
    with pytest.raises(ValueError, match="strongly_feasible applies to the ns algorithm only"):
        solve(inst, costs, "ssp", strongly_feasible=True)
    strong = solve(inst, costs, "ns", structure=tree, strongly_feasible=True)
    assert strong.steps == ns_solve(inst.realize(costs), tree, strongly_feasible=True).steps


def test_capped_and_finished_traces_read_their_termination():
    inst = CASES["mmcc_general"][0]
    costs = sample_costs(inst, 0)
    net = inst.realize(costs)
    tree, _ = basic_structure_from_flow(net, inst.starting_flow)
    capped = {
        "mmcc": lambda: mmcc_solve(inst, costs, iteration_cap=1),
        "ns": lambda: ns_solve(net, tree, iteration_cap=1),
        "ssp": lambda: ssp_solve(*concentrate_budgets(net), iteration_cap=1),
    }
    for algorithm, run in capped.items():
        with pytest.raises(IterationCapExceeded) as info:
            run()
        assert info.value.trace.termination == "iteration_cap_hit", algorithm
        assert info.value.trace.step_count == 1, algorithm
        finished = solve(inst, costs, algorithm)
        assert finished.termination == "optimal", algorithm
        assert finished.step_count > 1, algorithm


def test_import_flowlab_leaves_the_command_line_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, flowlab; print(sorted({'flowlab.cli', 'argparse'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.fixture
def built(monkeypatch):
    """Counts the step objects, and the cycles and residual edges of
    MMCC's steps, constructed while the test runs."""
    counts = Counter()
    for cls in (NsPivot, MmccIteration, SspStep, Cycle, ResidualEdge):

        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def _assert_counts_read_the_records(trace, built):
    """The counts, read before any step exists, equal those of the
    built steps."""
    counts = (trace.step_count, trace.nondegenerate_count, trace.degenerate_count)
    assert not built
    steps = trace.steps
    degenerate = sum(getattr(step, "degenerate", False) for step in steps)
    assert counts == (len(steps), len(steps) - degenerate, degenerate)
    return degenerate


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_solve_builds_no_step_objects(case, built):
    inst, stored_tree = CASES[case]
    costs = sample_costs(inst, 0)
    traces = {alg: solve(inst, costs, alg, structure=stored_tree) for alg in ("mmcc", "ns", "ssp")}
    assert not built
    assert sum(trace.step_count for trace in traces.values()) > 0


def test_counts_read_the_records_on_criterion_4s_grid(built):
    # criterion 4: ns_lower(6, 10, 64) from its stored tree, cost seeds 0-19
    for seed in range(20):
        trace = ns_solve(NS_LOWER.realize(sample_costs(NS_LOWER, seed)), NS_TREE)
        assert _assert_counts_read_the_records(trace, built) > 0
        built.clear()


def test_counts_read_the_records_of_a_capped_trace(built):
    inst = CASES["mmcc_general"][0]
    costs = sample_costs(inst, 0)
    net = NS_LOWER.realize(sample_costs(NS_LOWER, 0))
    capped = {
        "mmcc": lambda: mmcc_solve(inst, costs, iteration_cap=5),
        # the first 100 of 142 pivots hold degenerate ones
        "ns": lambda: ns_solve(net, NS_TREE, iteration_cap=100),
        "ssp": lambda: ssp_solve(*concentrate_budgets(net), iteration_cap=7),
    }
    degenerate = {}
    for algorithm, run in capped.items():
        with pytest.raises(IterationCapExceeded) as info:
            run()
        trace = info.value.trace
        assert trace.termination == "iteration_cap_hit"
        degenerate[algorithm] = _assert_counts_read_the_records(trace, built)
        assert len(trace.steps) == {"mmcc": 5, "ns": 100, "ssp": 7}[algorithm]
        built.clear()
    assert degenerate["mmcc"] == degenerate["ssp"] == 0 < degenerate["ns"] < 100


def test_steps_are_built_on_each_read(built):
    # a trace keeps its records only: each read of the steps builds a new
    # list of new step objects, equal to the last
    inst = CASES["mmcc_general"][0]
    costs = sample_costs(inst, 0)
    net = NS_LOWER.realize(sample_costs(NS_LOWER, 0))
    traces = {
        "MmccIteration": mmcc_solve(inst, costs),
        "NsPivot": ns_solve(net, NS_TREE),
        "SspStep": ssp_solve(*concentrate_budgets(net)),
    }
    for name, trace in traces.items():
        first = trace.steps
        assert built[name] == len(first) == trace.step_count > 0
        second = trace.steps
        assert built[name] == 2 * trace.step_count
        assert second == first and second is not first
        assert all(a is not b for a, b in zip(first, second))
        assert pickle.loads(pickle.dumps(trace)).steps == first
    mmcc_trace = traces["MmccIteration"]
    built.clear()
    iterations = mmcc_trace.iterations
    assert built["Cycle"] == len(iterations) == mmcc_trace.step_count
    assert built["ResidualEdge"] == sum(len(it.cycle) for it in iterations)
    assert iterations == mmcc_trace.steps
    assert traces["NsPivot"].pivots == traces["NsPivot"].steps
    # equality compares the steps, and a trace equals a fresh run of itself
    assert traces["NsPivot"] == ns_solve(net, NS_TREE)
    assert traces["NsPivot"] != ns_solve(NS_LOWER.realize(sample_costs(NS_LOWER, 1)), NS_TREE)
    assert traces["NsPivot"] != traces["SspStep"]


@pytest.mark.parametrize("algorithm", ["mmcc", "ns", "ssp"])
def test_traces_pickle_before_and_after_their_steps_are_read(algorithm):
    inst, tree = CASES["ns_lower_tree"]
    trace = solve(inst, sample_costs(inst, 0), algorithm, structure=tree)
    unread = pickle.loads(pickle.dumps(trace))
    assert unread.step_count == trace.step_count
    assert unread == trace
    assert pickle.loads(pickle.dumps(trace)) == trace
