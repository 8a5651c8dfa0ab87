"""Command-line front end: generate, solve, verify, and batch experiments.

Four subcommands.  ``gen`` writes an instance file, ``solve`` runs one
solver on one realization, ``verify`` checks a flow file against an
instance, and ``experiment`` sweeps seeds and emits a CSV report whose
schema is frozen under the version tag in its first line.  All
randomness sits behind explicit seeds, so identical invocations produce
byte-identical output.
"""

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .core import (
    Flow,
    FlowLabError,
    check_feasible,
    flow_cost,
    verify_optimality,
)
from .formats import (
    format_smoothed,
    parse_network,
    parse_smoothed,
    read_flow,
    read_smoothed,
    write_flow,
)
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
_ALGORITHMS = ("mmcc", "ns", "ssp")

CSV_HEADER = "# flowlab-experiment-v1"
CSV_COLUMNS = (
    "family",
    "n",
    "m",
    "phi",
    "seed",
    "algorithm",
    "iterations",
    "nondegenerate_iterations",
    "degenerate_iterations",
    "final_cost",
    "predicted_iterations",
    "match",
)


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
        if self.algorithm != "all" and self.algorithm not in _ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.family == "mmcc_large_phi":
            if self.phi is not None:
                raise ValueError("phi is fixed by the mmcc_large_phi family")
        elif self.phi is None:
            raise ValueError("phi is required for this family")


def _power_of_two(value: Fraction) -> bool:
    return (
        value.denominator == 1
        and value.numerator >= 1
        and value.numerator & (value.numerator - 1) == 0
    )


def _validated_phi(family: str, phi: Optional[Fraction]) -> Optional[Fraction]:
    if family == "mmcc_large_phi":
        if phi is not None:
            raise ValueError("phi is fixed by the mmcc_large_phi family")
        return None
    if phi is None:
        raise ValueError("--phi is required for this family")
    if family != "random" and not _power_of_two(phi):
        raise ValueError(
            "the command line accepts power-of-two phi only; "
            "other rationals work through the library interface"
        )
    return phi


def _solve(inst, structure, costs, algorithm: str, *, strongly_feasible: bool = False) -> dict:
    """Run one solver on one realization, from the stored tree if any."""
    net = inst.realize(costs)
    if algorithm == "mmcc":
        trace = mmcc_solve(inst, costs)
        flow = trace.final_flow
        counts = (trace.iteration_count, trace.iteration_count, 0)
    elif algorithm == "ns":
        if structure is None:
            start = inst.starting_flow
            if start is None:
                start = initial_feasible_flow(net)
            structure, start = basic_structure_from_flow(net, start)
        trace = ns_solve(net, structure, strongly_feasible=strongly_feasible)
        flow = trace.final_flow
        counts = (trace.pivot_count, trace.nondegenerate_count, trace.degenerate_count)
    else:
        wide, source, sink, demand = concentrate_budgets(net)
        trace = ssp_solve(wide, source, sink, demand)
        flow = Flow(trace.final_flow.values[: net.edge_count])
        counts = (trace.step_count, trace.step_count, 0)
    return {
        "net": net,
        "flow": flow,
        "cost": flow_cost(net, flow),
        "iterations": counts[0],
        "nondegenerate": counts[1],
        "degenerate": counts[2],
    }


def run_experiment(spec: ExperimentSpec) -> tuple[str, bool]:
    """Run every (seed, algorithm) cell and render the CSV report.

    A row matches when its final flow verifies optimal, all algorithms
    run on the same seed agree on the final cost, and, where a family
    carries an iteration-count prediction for that algorithm, the
    measured count equals it (non-degenerate pivots for ns, iterations
    otherwise).  The second return value is the conjunction over rows.
    """
    algorithms = _ALGORITHMS if spec.algorithm == "all" else (spec.algorithm,)
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
        results = {alg: _solve(inst, structure, costs, alg) for alg in algorithms}
        agree = len({r["cost"] for r in results.values()}) == 1
        for alg in algorithms:
            r = results[alg]
            want = predicted.get(alg)
            measured = r["nondegenerate"] if alg == "ns" else r["iterations"]
            match = agree and verify_optimality(r["net"], r["flow"]) is None
            if want is not None:
                match = match and measured == want
            all_match = all_match and match
            lines.append(
                ",".join(
                    str(x)
                    for x in (
                        spec.family,
                        spec.n,
                        spec.m,
                        inst.phi,
                        seed,
                        alg,
                        r["iterations"],
                        r["nondegenerate"],
                        r["degenerate"],
                        r["cost"],
                        "" if want is None else want,
                        "true" if match else "false",
                    )
                )
            )
    return "\n".join(lines) + "\n", all_match


def _parse_seeds(text: str) -> tuple[int, ...]:
    """Comma-separated seed list; ``a..b`` expands to the inclusive range."""
    seeds = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            lo, hi = chunk.split("..", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(chunk))
    if not seeds:
        raise ValueError("empty seed list")
    return tuple(seeds)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowlab",
        description="exact minimum-cost flow solvers and adversarial generators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a generated instance file")
    gen.add_argument("--family", choices=tuple(FAMILIES), required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--phi", type=Fraction)
    gen.add_argument("--seed", type=int, default=0, help="structure seed")
    gen.add_argument("--out", help="output path; stdout when omitted")

    solve = sub.add_parser("solve", help="solve one realization of an instance file")
    solve.add_argument("--input", required=True)
    solve.add_argument("--algorithm", choices=_ALGORITHMS, default="mmcc")
    solve.add_argument("--seed", type=int, default=0, help="cost sample seed")
    solve.add_argument("--flow-out", help="write the final flow here")
    solve.add_argument("--strongly-feasible", action="store_true")

    verify = sub.add_parser("verify", help="check a flow file against an instance")
    verify.add_argument("instance")
    verify.add_argument("flow")
    verify.add_argument("--seed", type=int, default=0, help="cost sample seed")

    exp = sub.add_parser("experiment", help="sweep seeds and emit a CSV report")
    exp.add_argument("--family", choices=tuple(FAMILIES), required=True)
    exp.add_argument("--n", type=int, required=True)
    exp.add_argument("--m", type=int, required=True)
    exp.add_argument("--phi", type=Fraction)
    exp.add_argument("--seeds", type=_parse_seeds, required=True)
    exp.add_argument("--algorithm", choices=_ALGORITHMS + ("all",), default="mmcc")
    exp.add_argument("--pair-seed", type=int, default=0)
    exp.add_argument("--out", help="CSV path; stdout when omitted")
    return parser


def _cmd_gen(args) -> int:
    generate, _ = FAMILIES[args.family]
    phi = _validated_phi(args.family, args.phi)
    inst, structure = generate(args.n, args.m, phi, args.seed)
    text = format_smoothed(inst, structure)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_solve(args) -> int:
    if args.strongly_feasible and args.algorithm != "ns":
        raise ValueError("--strongly-feasible applies to --algorithm ns only")
    inst, structure = read_smoothed(args.input)
    costs = sample_costs(inst, args.seed)
    result = _solve(
        inst, structure, costs, args.algorithm, strongly_feasible=args.strongly_feasible
    )
    print(f"algorithm {args.algorithm}")
    print(f"iterations {result['iterations']}")
    print(f"nondegenerate {result['nondegenerate']}")
    print(f"degenerate {result['degenerate']}")
    print(f"cost {result['cost']}")
    if args.flow_out:
        write_flow(result["net"], result["flow"], args.flow_out)
    return 0


def _cmd_verify(args) -> int:
    text = Path(args.instance).read_text()
    smoothed = any(line.split()[:1] == ["phi"] for line in text.splitlines())
    if smoothed:
        inst, _ = parse_smoothed(text)
        net = inst.realize(sample_costs(inst, args.seed))
    else:
        net = parse_network(text)
    flow = read_flow(args.flow, net)
    bad = check_feasible(net, flow)
    if bad is not None:
        print(f"infeasible: {bad.kind}: {bad.detail}")
        return 2
    witness = verify_optimality(net, flow)
    if witness is not None:
        nodes = " ".join(str(v + 1) for v in witness.nodes())
        print("not optimal")
        print(f"negative cycle: nodes {nodes} total cost {witness.total_cost}")
        return 1
    print(f"optimal cost {flow_cost(net, flow)}")
    return 0


def _cmd_experiment(args) -> int:
    spec = ExperimentSpec(
        family=args.family,
        n=args.n,
        m=args.m,
        phi=_validated_phi(args.family, args.phi),
        seeds=args.seeds,
        algorithm=args.algorithm,
        pair_seed=args.pair_seed,
    )
    text, ok = run_experiment(spec)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "experiment": _cmd_experiment,
    }
    try:
        return handlers[args.command](args)
    except (FlowLabError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
