#!/usr/bin/env python3
"""Outside-in benchmark of flowlab's three minimum-cost-flow solvers.

One workload runs per process, as one closed loop with one caller:
each solve starts when the previous one has been certified.  Run from
the repository root:

    python3 perfbench/run.py --workload mmcc_waves --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

The last line of a single-workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics.
Any gate failure makes the exit code non-zero.  See README.md.
"""

import time

_START = time.perf_counter()  # setup_s counts from here

import argparse
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

DEFAULT_SEED = 0  # the seed whose step digests references.json stores
SETUP_REPEATS = 6  # extra set-ups, each in a fresh process, for the setup_s median
TAIL_BEYOND = 10  # samples the reported tail percentile must leave above it
REFERENCE_INTERVAL_S = 0.25  # loop time between two host-speed reference samples
WATCHDOG_S = 170  # a run still going after this long is stopped as failed
MEMORY_CAP_BYTES = 2 << 30  # address-space cap, so a runaway solve fails fast
WORKLOAD_NAMES = ("mmcc_waves", "ns_pivots", "ssp_twin", "cross_check")

END_TO_END_UNITS = {
    "solve_s_p50": "s",
    "solve_s_tail": "s",
    "iterations_per_s": "1/s",
    "verify_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# Per-layer metrics: (metric, unit, root span the calls are counted
# under, layer span, field).  Calls and self time are totals over the
# traced solves divided by their number.
LAYER_METRICS = (
    ("mincycle.karp_min_mean.calls", "calls/solve", "solve", "mincycle.karp_min_mean", "calls"),
    ("mincycle.karp_min_mean.self_s", "s/solve", "solve", "mincycle.karp_min_mean", "self_s"),
    ("core.residual.calls", "calls/solve", "solve", "core.residual", "calls"),
    ("core.residual.self_s", "s/solve", "solve", "core.residual", "self_s"),
    ("core.residual.edges", "edges/solve", "solve", "core.residual", "count"),
    ("core.residual.verify_calls", "calls/solve", "verify", "core.residual", "calls"),
    ("core.augment_cycle.self_s", "s/solve", "solve", "core.augment_cycle", "self_s"),
    ("mmcc.mmcc_solve.self_s", "s/solve", "solve", "mmcc.mmcc_solve", "self_s"),
    ("netsimplex.entering_edge.calls", "calls/solve", "solve", "netsimplex.entering_edge", "calls"),
    ("netsimplex.entering_edge.self_s", "s/solve", "solve", "netsimplex.entering_edge", "self_s"),
    ("netsimplex.pivot.calls", "calls/solve", "solve", "netsimplex.pivot", "calls"),
    ("netsimplex.pivot.self_s", "s/solve", "solve", "netsimplex.pivot", "self_s"),
    ("netsimplex.ns_solve.self_s", "s/solve", "solve", "netsimplex.ns_solve", "self_s"),
    ("ssp.distances_to_sink.calls", "calls/solve", "solve", "ssp.distances_to_sink", "calls"),
    ("ssp.distances_to_sink.self_s", "s/solve", "solve", "ssp.distances_to_sink", "self_s"),
    ("ssp.cheapest_path.self_s", "s/solve", "solve", "ssp.cheapest_path", "self_s"),
    ("ssp.ssp_solve.self_s", "s/solve", "solve", "ssp.ssp_solve", "self_s"),
    ("maxflow.solve_max_flow.calls", "calls/solve", "solve", "maxflow.solve_max_flow", "calls"),
    ("maxflow.solve_max_flow.self_s", "s/solve", "solve", "maxflow.solve_max_flow", "self_s"),
    (
        "netsimplex.basic_structure_from_flow.self_s",
        "s/solve",
        "solve",
        "netsimplex.basic_structure_from_flow",
        "self_s",
    ),
    ("ssp.concentrate_budgets.self_s", "s/solve", "solve", "ssp.concentrate_budgets", "self_s"),
    ("core.realize.self_s", "s/solve", "solve", "core.realize", "self_s"),
    ("solve.other_self_s", "s/solve", "solve", "solve", "self_s"),
    ("core.verify_optimality.self_s", "s/solve", "verify", "core.verify_optimality", "self_s"),
    ("core.check_feasible.self_s", "s/solve", "verify", "core.check_feasible", "self_s"),
    ("generators.gen.self_s", "s/solve", "prep", "generators.gen", "self_s"),
    ("generators.sample_costs.self_s", "s/solve", "prep", "generators.sample_costs", "self_s"),
    ("formats.format_smoothed.self_s", "s/solve", "prep", "formats.format_smoothed", "self_s"),
    ("formats.parse_smoothed.self_s", "s/solve", "prep", "formats.parse_smoothed", "self_s"),
)


# Per-layer metrics read off solver traces and the run itself.
RUN_METRICS = (
    ("mmcc.cancellations", "cancels/solve"),
    ("netsimplex.pivots", "pivots/solve"),
    ("netsimplex.nondegenerate_ratio", "ratio"),
    ("ssp.augmentations", "paths/solve"),
    ("generators.cost_denominator_bits", "bits"),
    ("cross_check.infeasible_draws", "draws"),
    ("trace.overhead_frac", "ratio"),
    ("trace.solves", "solves"),
)


class SetupError(Exception):
    """The program under test could not be loaded."""


class Overrun(Exception):
    """The run outlived its watchdog."""


def _expire(signum, frame):
    raise Overrun("run still going after %d s" % WATCHDOG_S)


def load_flowlab():
    """Import flowlab from this checkout's ``src``, never from an
    installed copy, so the benchmark measures the code beside it."""
    sys.path.insert(0, str(SRC))
    try:
        import flowlab
    except ImportError as err:
        raise SetupError("cannot import flowlab from %s: %s" % (SRC, err)) from err
    if SRC.resolve() not in Path(flowlab.__file__).resolve().parents:
        raise SetupError("flowlab was imported from %s, not from %s" % (flowlab.__file__, SRC))
    import workloads

    return workloads


def tail(samples):
    """The highest percentile that leaves at least ``TAIL_BEYOND``
    samples above it, as (value, percentile); None with too few."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return None
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def setup_in_child(workload: str, seed: int) -> float:
    """One more full set-up, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.split()[-1])


def solve_once(wl_module, wl, workload, inputs, root, first_of_seed0, references):
    """One solve, its certificates and its gate.

    Returns (solve seconds, certificate seconds, step counts, problems).
    """
    with root("solve"):
        started = time.perf_counter()
        solved = wl.solve(inputs)
        elapsed = time.perf_counter() - started
    with root("check"):  # untimed and unreported: gate bookkeeping
        outcome = wl.outcome(inputs, solved)
    certificates, problems = [], []
    for net, flow in outcome.certify:
        with root("verify"):
            started = time.perf_counter()
            infeasible = wl_module.core.check_feasible(net, flow)
            witness = None
            if infeasible is None:
                witness = wl_module.core.verify_optimality(net, flow)
            certificates.append(time.perf_counter() - started)
        if infeasible is not None:
            problems.append("infeasible: %s: %s" % (infeasible.kind, infeasible.detail))
        elif witness is not None:
            problems.append("negative residual cycle, cost %s" % witness.total_cost)
    step_counts = wl_module.counts(outcome.traces)
    problems += wl_module.count_problems(workload, step_counts, references)
    if not outcome.costs_agree:
        problems.append("the solvers disagree on the optimal cost")
    if inputs.original is not None and inputs.original != inputs.instance:
        problems.append("the format round-trip changed the instance")
    if first_of_seed0:
        want = references[workload]["digest_seed%d" % DEFAULT_SEED]
        got = wl_module.digest(outcome.traces)
        if got != want:
            problems.append("step digest %s, reference %s" % (got, want))
    return elapsed, certificates, step_counts, problems


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    signal.signal(signal.SIGALRM, _expire)
    signal.alarm(WATCHDOG_S)
    wl_module = load_flowlab()
    from speed import NOMINAL_S, Speed
    from tracer import Tracer, summarize

    wl = wl_module.WORKLOADS[workload]()
    rng = random.Random("%s:%d" % (workload, seed))
    wl.build()
    inputs = wl.prepare(rng)
    own_setup = time.perf_counter() - _START
    speed = Speed()
    # (raw seconds, index of the reference sample taken just before)
    setup_raw = [(own_setup, speed.measure())]
    if not trace:
        for _ in range(SETUP_REPEATS):
            setup_raw.append((setup_in_child(workload, seed), len(speed.samples) - 1))
            speed.measure()

    references = wl_module.load_references()
    tracer = Tracer()
    solve_raw, traced_raw, verify_raw = [], [], []
    totals = {"cancellations": 0, "pivots": 0, "nondegenerate": 0, "augmentations": 0}
    iteration_total = 0
    denominator_bits = wl_module.cost_denominator_bits(inputs.costs)
    attempted = failed = traced_solves = 0
    reference = len(speed.samples) - 1
    loop_start = last_reference = time.perf_counter()
    index = 0
    # a traced run alternates untraced and traced solves, so the
    # tracing overhead is measured under the same conditions
    while (
        index == 0
        or time.perf_counter() - loop_start < seconds
        or (trace and traced_solves == 0)
    ):
        if time.perf_counter() - last_reference >= REFERENCE_INTERVAL_S:
            reference = speed.measure()
            last_reference = time.perf_counter()
        traced = trace and index % 2 == 1
        root = tracer.root if traced else (lambda name: nullcontext())
        attempted += 1
        if traced:
            tracer.install()
            traced_solves += 1
        try:
            if index > 0:
                with root("prep"):
                    inputs = wl.prepare(rng)
                bits = wl_module.cost_denominator_bits(inputs.costs)
                denominator_bits = max(denominator_bits, bits)
            elapsed, certificates, step_counts, problems = solve_once(
                wl_module, wl, workload, inputs, root,
                index == 0 and seed == DEFAULT_SEED, references,
            )
            (traced_raw if traced else solve_raw).append((elapsed, reference))
            verify_raw += [(t, reference) for t in certificates]
            for kind in totals:
                totals[kind] += step_counts[kind]
            iteration_total += wl_module.iterations(step_counts)
        except Exception:
            # a crash is a failed solve, counted like a wrong answer
            traceback.print_exc()
            problems = ["exception"]
        finally:
            if traced:
                tracer.uninstall()
        if problems:
            failed += 1
            print("solve %d failed: %s" % (index, "; ".join(problems)))
        index += 1
    signal.alarm(0)
    speed.measure()

    print("workload %s seed %d trace %d: %d solves, %d failed, failed_frac %.4g"
          % (workload, seed, trace, attempted, failed, failed / attempted))
    print("host reference median %.4g s, nominal %.4g s; raw median solve %.4g s"
          % (statistics.median(speed.samples), NOMINAL_S,
             statistics.median(t for t, _ in solve_raw) if solve_raw else float("nan")))
    if not solve_raw:
        print("no solve finished")
        return 1
    solve_s = [speed.scale(t, at) for t, at in solve_raw]
    if trace:
        traced_s = [speed.scale(t, at) for t, at in traced_raw]
        metrics = layer_report(
            summarize(tracer.spans), speed.run_factor(), traced_solves, totals,
            len(solve_raw) + len(traced_raw), denominator_bits,
            getattr(wl, "infeasible_draws", 0),
            statistics.median(traced_s) / statistics.median(solve_s) - 1 if traced_s else 0.0,
        )
        for name in sorted(tracer.absent):
            print("absent layer: %s (reported as 0)" % name)
    else:
        metrics = end_to_end_report(
            solve_s,
            [speed.scale(t, at) for t, at in verify_raw],
            [speed.scale(t, at) for t, at in setup_raw],
            iteration_total,
        )
    for name, entry in metrics.items():
        print("%-44s %-14.6g %s" % (name, entry["value"], entry["unit"]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def end_to_end_report(solve_s, verify_s, setup_s, iteration_total) -> dict:
    picked = tail(solve_s)
    if picked is None:
        value, percentile = max(solve_s), 100.0
        note = "fewer than %d samples, so the maximum" % (TAIL_BEYOND + 1)
    else:
        value, percentile = picked
        note = "%d samples above it" % TAIL_BEYOND
    print("solve_s_tail is p%.1f of %d solve samples (%s)" % (percentile, len(solve_s), note))
    values = {
        "solve_s_p50": statistics.median(solve_s),
        "solve_s_tail": value,
        "iterations_per_s": iteration_total / sum(solve_s),
        "verify_s_p50": statistics.median(verify_s),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def layer_report(totals, factor, traced, counts, solves, bits, infeasible, overhead) -> dict:
    metrics = {}
    solve_ns = sum(entry[1] for (root, _), entry in totals.items() if root == "solve")
    for name, unit, root, layer, field in LAYER_METRICS:
        calls, self_ns, count = totals.get((root, layer), (0, 0, 0))
        value = {"calls": calls, "self_s": self_ns * factor / 1e9, "count": count}[field] / traced
        metrics[name] = {"value": value, "unit": unit}
    for (root, layer), entry in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        if root == "solve" and solve_ns:
            print("solve self time %5.1f%%  %s" % (100.0 * entry[1] / solve_ns, layer))
    pivots = counts["pivots"]
    values = {
        "mmcc.cancellations": counts["cancellations"] / solves,
        "netsimplex.pivots": pivots / solves,
        "netsimplex.nondegenerate_ratio": counts["nondegenerate"] / pivots if pivots else 0.0,
        "ssp.augmentations": counts["augmentations"] / solves,
        "generators.cost_denominator_bits": bits,
        "cross_check.infeasible_draws": infeasible,
        "trace.overhead_frac": overhead,
        "trace.solves": traced,
    }
    for name, unit in RUN_METRICS:
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after another, as a table."""
    status = 0
    for workload in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True,
            text=True,
            timeout=600,
        )
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            status = 1
            sys.stderr.write(done.stderr)
        if not lines or not lines[-1].startswith("{"):
            print("%-12s no result (exit %d)" % (workload, done.returncode))
            continue
        result = json.loads(lines[-1])
        failed_frac = result["failed"] / result["attempted"]
        print("%-12s %-44s %-14.6g %s" % (workload, "failed_frac", failed_frac, "1"))
        for name, entry in result["metrics"].items():
            print("%-12s %-44s %-14.6g %s" % (workload, name, entry["value"], entry["unit"]))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        if args.setup_only:
            wl = load_flowlab().WORKLOADS[args.workload]()
            wl.build()
            wl.prepare(random.Random("%s:%d" % (args.workload, args.seed)))
            print(time.perf_counter() - _START)
            return 0
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
