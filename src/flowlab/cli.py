"""Command-line front end: generate, solve, verify, and batch experiments.

Four subcommands.  ``gen`` writes an instance file, ``solve`` runs one
solver on one realization, ``verify`` checks a flow file against an
instance, and ``experiment`` writes ``run_experiment``'s CSV report.
All randomness sits behind explicit seeds, so identical invocations
produce byte-identical output.
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .core import FlowLabError, check_feasible, flow_cost, verify_optimality
from .experiment import ALGORITHMS, FAMILIES, ExperimentSpec, run_experiment, solve
from .formats import (
    format_smoothed,
    parse_network,
    parse_smoothed,
    read_flow,
    read_smoothed,
    write_flow,
)
from .generators import sample_costs


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


class _SeedListError(ValueError, argparse.ArgumentTypeError):
    """A seed list that parses but means nothing.  It is an
    ``ArgumentTypeError`` so that argparse prints its text, where for a
    plain ``ValueError`` it prints ``invalid _parse_seeds value``."""


def _parse_seeds(text: str) -> tuple[int, ...]:
    """Comma-separated seed list; ``a..b`` expands to the inclusive range.
    A chunk that is not an integer or a range, empty ones included, a
    range that ends below its start and a negative seed raise
    ``ValueError``: ``random.Random`` takes the absolute value of a seed,
    so seed -k would repeat seed k."""
    seeds = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        try:
            lo, hi = map(int, chunk.split("..", 1)) if ".." in chunk else (int(chunk),) * 2
        except ValueError:
            raise _SeedListError("seed %r is not an integer" % chunk) from None
        if hi < lo:
            raise _SeedListError("seed range %r ends below its start" % chunk)
        if lo < 0:
            raise _SeedListError("seed %r is negative" % chunk)
        seeds.extend(range(lo, hi + 1))
    return tuple(seeds)


def _parse_seed(text: str) -> int:
    """One seed; a negative one raises as in ``_parse_seeds``, and one
    that is not an integer with argparse's text for ``type=int``."""
    try:
        seed = int(text)
    except ValueError:
        raise _SeedListError("invalid int value: %r" % text) from None
    if seed < 0:
        raise _SeedListError("seed %r is negative" % text)
    return seed


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
    gen.add_argument("--seed", type=_parse_seed, default=0, help="structure seed")
    gen.add_argument("--out", help="output path; stdout when omitted")

    solve = sub.add_parser("solve", help="solve one realization of an instance file")
    solve.add_argument("--input", required=True)
    solve.add_argument("--algorithm", choices=ALGORITHMS, default="mmcc")
    solve.add_argument("--seed", type=_parse_seed, default=0, help="cost sample seed")
    solve.add_argument("--flow-out", help="write the final flow here")
    solve.add_argument("--strongly-feasible", action="store_true")

    verify = sub.add_parser("verify", help="check a flow file against an instance")
    verify.add_argument("instance")
    verify.add_argument("flow")
    verify.add_argument("--seed", type=_parse_seed, default=0, help="cost sample seed")

    exp = sub.add_parser("experiment", help="sweep seeds and emit a CSV report")
    exp.add_argument("--family", choices=tuple(FAMILIES), required=True)
    exp.add_argument("--n", type=int, required=True)
    exp.add_argument("--m", type=int, required=True)
    exp.add_argument("--phi", type=Fraction)
    exp.add_argument("--seeds", type=_parse_seeds, required=True)
    exp.add_argument("--algorithm", choices=ALGORITHMS + ("all",), default="mmcc")
    exp.add_argument("--pair-seed", type=_parse_seed, default=0)
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
    net = inst.realize(costs)
    trace = solve(
        inst, costs, args.algorithm, structure=structure, strongly_feasible=args.strongly_feasible
    )
    print(f"algorithm {args.algorithm}")
    print(f"iterations {trace.step_count}")
    print(f"nondegenerate {trace.nondegenerate_count}")
    print(f"degenerate {trace.degenerate_count}")
    print(f"cost {flow_cost(net, trace.final_flow)}")
    if args.flow_out:
        write_flow(net, trace.final_flow, args.flow_out)
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
