"""One solver entry point, and the seeded experiments built on it.

``solve`` runs minimum-mean cycle canceling, network simplex or
successive shortest paths on one realization of a smoothed instance
and returns its ``Trace``.  ``run_experiment`` sweeps seeds over one
instance family and renders a CSV report whose schema is frozen under
the version tag in its first line.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import Flow, SmoothedInstance, Trace, flow_cost, verify_optimality
from .generators import (
    MmccGeneralParams,
    NsParams,
    gen_mmcc_general,
    gen_mmcc_large_phi,
    gen_ns_lower_bound,
    gen_random_smoothed,
    predicted_mmcc_general_iterations,
    predicted_mmcc_large_phi_iterations,
    predicted_ns_pivots,
    sample_costs,
)
from .mmcc import initial_feasible_flow, mmcc_solve
from .netsimplex import basic_structure_from_flow, ns_solve
from .ssp import concentrate_budgets, ssp_solve

__all__ = [
    "ALGORITHMS", "CSV_COLUMNS", "CSV_HEADER", "ExperimentSpec", "FAMILIES", "run_experiment",
    "solve",
]

# family -> (generate, predict): generate(n, m, phi, seed) returns an
# instance and its stored tree or None, and predict(inst, n, m, phi) the
# predicted iteration count of each algorithm that has one
FAMILIES = {
    "mmcc_general": (
        lambda n, m, phi, seed: (gen_mmcc_general(MmccGeneralParams(n, m, phi), seed), None),
        lambda inst, n, m, phi: {
            "mmcc": predicted_mmcc_general_iterations(MmccGeneralParams(n, m, phi))
        },
    ),
    "mmcc_large_phi": (
        lambda n, m, phi, seed: (gen_mmcc_large_phi(n, m, seed), None),
        lambda inst, n, m, phi: {"mmcc": predicted_mmcc_large_phi_iterations(n, m)},
    ),
    "ns_lower": (
        lambda n, m, phi, seed: gen_ns_lower_bound(NsParams(n, m, phi), seed),
        lambda inst, n, m, phi: {"ns": predicted_ns_pivots(inst)},
    ),
    "random": (
        lambda n, m, phi, seed: (gen_random_smoothed(n, m, phi, seed), None),
        lambda inst, n, m, phi: {},
    ),
}
ALGORITHMS = ("mmcc", "ns", "ssp")

CSV_HEADER = "# flowlab-experiment-v1"
CSV_COLUMNS = (
    "family", "n", "m", "phi", "seed", "algorithm", "iterations", "nondegenerate_iterations",
    "degenerate_iterations", "final_cost", "predicted_iterations", "match",
)


def solve(
    instance: SmoothedInstance, costs, algorithm: str, *, structure=None, strongly_feasible=False
) -> Trace:
    """Run one solver on the realization of ``instance`` at ``costs``.

    ``mmcc`` starts from the stored flow, or a computed one, and ``ns``
    from ``structure``, else from the basic structure of that start; a
    stored flow off conservation raises ``InfeasibleError`` for both,
    and one outside its capacity bounds ``CapacityViolation``.
    ``strongly_feasible`` applies to ``ns`` only.  ``ssp`` ships the
    budgets from one source to one sink, and its final flow is cut back
    to the instance's edges.
    """
    if costs is None:
        raise ValueError("a smoothed instance needs sampled costs")
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if strongly_feasible and algorithm != "ns":
        raise ValueError("strongly_feasible applies to the ns algorithm only")
    if algorithm == "mmcc":
        return mmcc_solve(instance, costs)
    net = instance.realize(costs)
    if algorithm == "ssp":
        trace = ssp_solve(*concentrate_budgets(net))
        trace.final_flow = Flow(trace.final_flow.values[: net.edge_count])
        return trace
    if structure is None:
        flow = instance.starting_flow
        if flow is None:
            flow = initial_feasible_flow(net)
        # a stored flow is checked there as MMCC's start checks it
        structure, _ = basic_structure_from_flow(net, flow)
    return ns_solve(net, structure, strongly_feasible=strongly_feasible)


@dataclass(frozen=True)
class ExperimentSpec:
    """One batch run: a family, its parameters, seeds, and solvers."""

    family: str
    n: int
    m: int
    phi: Optional[Fraction]
    seeds: tuple[int, ...]
    algorithm: str = "mmcc"
    pair_seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.algorithm != "all" and self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.family == "mmcc_large_phi":
            if self.phi is not None:
                raise ValueError("phi is fixed by the mmcc_large_phi family")
        elif self.phi is None:
            raise ValueError("phi is required for this family")


def run_experiment(spec: ExperimentSpec) -> tuple[str, bool]:
    """Run every (seed, algorithm) cell and render the CSV report.

    A row matches when its final flow verifies optimal, all algorithms
    run on the same seed agree on the final cost, and, where a family
    carries an iteration-count prediction for that algorithm, the
    measured non-degenerate count equals it.  The second return value
    is the conjunction over rows.
    """
    algorithms = ALGORITHMS if spec.algorithm == "all" else (spec.algorithm,)
    generate, predict = FAMILIES[spec.family]

    def instance(seed: int):
        inst, structure = generate(spec.n, spec.m, spec.phi, seed)
        return inst, structure, predict(inst, spec.n, spec.m, spec.phi)

    # a random instance is drawn per seed; the others are fixed by the
    # pair seed and built once
    shared = None if spec.family == "random" else instance(spec.pair_seed)
    lines = [CSV_HEADER, ",".join(CSV_COLUMNS)]
    all_match = True
    for seed in sorted(spec.seeds):
        inst, structure, predicted = shared if shared is not None else instance(seed)
        costs = sample_costs(inst, seed)
        net = inst.realize(costs)
        traces = {alg: solve(inst, costs, alg, structure=structure) for alg in algorithms}
        cost = {alg: flow_cost(net, t.final_flow) for alg, t in traces.items()}
        agree = len(set(cost.values())) == 1
        for alg, t in traces.items():
            want = predicted.get(alg)
            match = agree and verify_optimality(net, t.final_flow) is None
            if want is not None:
                match = match and t.nondegenerate_count == want
            all_match = all_match and match
            row = (spec.family, spec.n, spec.m, inst.phi, seed, alg, t.step_count,
                   t.nondegenerate_count, t.degenerate_count, cost[alg],
                   "" if want is None else want, "true" if match else "false")
            lines.append(",".join(map(str, row)))
    return "\n".join(lines) + "\n", all_match
