"""The one solver entry point: ``solve`` and the ``Trace`` it returns."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from flowlab.core import Flow, InfeasibleError, IterationCapExceeded, verify_optimality
from flowlab.experiment import solve
from flowlab.generators import (
    MmccGeneralParams,
    NsParams,
    gen_mmcc_general,
    gen_ns_lower_bound,
    gen_random_smoothed,
    sample_costs,
)
from flowlab.mmcc import initial_feasible_flow, mmcc_solve
from flowlab.netsimplex import basic_structure_from_flow, ns_solve
from flowlab.ssp import concentrate_budgets, ssp_solve

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
        "mmcc": mmcc_solve(inst, costs),
        "ns": ns_solve(net, tree),
        "ssp": ssp_solve(*concentrate_budgets(net)),
    }
    assert len(direct["ssp"].final_flow) > net.edge_count
    for algorithm, want in direct.items():
        trace = solve(inst, costs, algorithm, structure=stored_tree)
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
