"""The benchmark's four workloads and its correctness gate.

Each workload builds its inputs once (``build``), prepares the inputs
of one solve from the run's random stream (``prepare``), and solves
them (``solve``, the timed part).  Every flowlab function is called
through its module (``mmcc.mmcc_solve``, never a name imported once),
so the tracer's wrappers see the call.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from flowlab import core, formats, generators, mmcc, netsimplex, ssp

REFERENCES = Path(__file__).resolve().parent / "references.json"


@dataclass
class Inputs:
    """What one solve starts from."""

    costs: tuple
    instance: Optional[core.SmoothedInstance] = None
    # cross_check only: the generated instance before the format round-trip
    original: Optional[core.SmoothedInstance] = None


@dataclass
class Outcome:
    """A finished solve: solver traces, and the flows to certify."""

    traces: list
    certify: list  # (network, flow) pairs
    costs_agree: bool = True


def counts(traces) -> dict[str, int]:
    """Iterations by kind, summed over the given solver traces."""
    out = {"cancellations": 0, "pivots": 0, "nondegenerate": 0, "augmentations": 0}
    for trace in traces:
        if isinstance(trace, mmcc.MmccTrace):
            out["cancellations"] += trace.iteration_count
        elif isinstance(trace, netsimplex.NsTrace):
            out["pivots"] += trace.pivot_count
            out["nondegenerate"] += trace.nondegenerate_count
        else:
            out["augmentations"] += trace.step_count
    return out


def iterations(step_counts: dict[str, int]) -> int:
    """Cancellations, pivots (degenerate ones included) and augmentations."""
    return (
        step_counts["cancellations"] + step_counts["pivots"] + step_counts["augmentations"]
    )


def digest(traces) -> str:
    """SHA-256 over the step sequence: cycle edges and amounts,
    entering/leaving/amount, and path/amount."""
    lines = []
    for trace in traces:
        if isinstance(trace, mmcc.MmccTrace):
            for it in trace.iterations:
                edges = " ".join(
                    "%d%s" % (e.edge_id, "+" if e.forward else "-") for e in it.cycle.edges
                )
                lines.append("cycle %s amount %s" % (edges, it.amount))
        elif isinstance(trace, netsimplex.NsTrace):
            for p in trace.pivots:
                lines.append("pivot %d %d amount %s" % (p.entering, p.leaving, p.amount))
        else:
            for step in trace.steps:
                path = " ".join(str(v) for v in step.path)
                lines.append("path %s amount %s" % (path, step.amount))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def cost_denominator_bits(costs) -> int:
    """Bit length of the common denominator of a cost vector."""
    return math.lcm(*(c.denominator for c in costs)).bit_length()


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def count_problems(name: str, step_counts: dict[str, int], references: dict) -> list[str]:
    """Mismatches between measured and stored iteration counts."""
    expected = references.get(name, {}).get("counts", {})
    measured = dict(step_counts)
    measured["degenerate"] = measured["pivots"] - measured["nondegenerate"]
    return [
        "%s: %s is %d, reference %d" % (name, kind, measured[kind], want)
        for kind, want in sorted(expected.items())
        if measured[kind] != want
    ]


class MmccWaves:
    """Minimum-mean cycle canceling from the stored starting flow."""

    name = "mmcc_waves"

    def build(self):
        self.instance = generators.gen_mmcc_general(
            generators.MmccGeneralParams(12, 48, 4096)
        )

    def prepare(self, rng) -> Inputs:
        return Inputs(generators.sample_costs(self.instance, rng.getrandbits(32)))

    def solve(self, inputs: Inputs):
        return mmcc.mmcc_solve(self.instance, inputs.costs)

    def outcome(self, inputs: Inputs, trace) -> Outcome:
        net = self.instance.realize(inputs.costs)
        return Outcome([trace], [(net, trace.final_flow)])


class NsPivots:
    """Network simplex from the stored starting tree."""

    name = "ns_pivots"

    def build(self):
        self.instance, self.structure = generators.gen_ns_lower_bound(
            generators.NsParams(10, 40, 128)
        )

    def prepare(self, rng) -> Inputs:
        return Inputs(generators.sample_costs(self.instance, rng.getrandbits(32)))

    def solve(self, inputs: Inputs):
        net = self.instance.realize(inputs.costs)
        return net, netsimplex.ns_solve(net, self.structure)

    def outcome(self, inputs: Inputs, solved) -> Outcome:
        net, trace = solved
        return Outcome([trace], [(net, trace.final_flow)])


class SspTwin:
    """Successive shortest paths on the detour-free twin of ns_lower."""

    name = "ssp_twin"

    def build(self):
        lower, _ = generators.gen_ns_lower_bound(generators.NsParams(8, 16, 128))
        self.instance = generators.strip_q_chain(lower)
        names = self.instance.network.node_names
        self.source, self.sink = names.index("s"), names.index("t")
        self.demand = generators.predicted_ns_pivots(lower)

    def prepare(self, rng) -> Inputs:
        return Inputs(generators.sample_costs(self.instance, rng.getrandbits(32)))

    def solve(self, inputs: Inputs):
        net = self.instance.realize(inputs.costs)
        trace = ssp.ssp_solve(ssp.zero_budget_copy(net), self.source, self.sink, self.demand)
        return net, trace

    def outcome(self, inputs: Inputs, solved) -> Outcome:
        # the twin keeps the demand as budgets at s and t, so the
        # certificate runs on the realized twin itself
        net, trace = solved
        return Outcome([trace], [(net, trace.final_flow)])


class CrossCheck:
    """All three solvers on random smoothed instances, from a computed
    start, after a format round-trip."""

    name = "cross_check"

    def build(self):
        self.infeasible_draws = 0

    def prepare(self, rng) -> Inputs:
        while True:
            n = rng.randint(10, 16)
            m = rng.randint(2 * n, 4 * n)
            phi = rng.choice((16, 64, 256))
            instance_seed, cost_seed = rng.getrandbits(32), rng.getrandbits(32)
            original = generators.gen_random_smoothed(n, m, phi, instance_seed)
            reread, _ = formats.parse_smoothed(formats.format_smoothed(original))
            try:
                # feasibility does not depend on the sampled costs
                mmcc.initial_feasible_flow(reread.network)
            except core.InfeasibleError:
                self.infeasible_draws += 1
                continue
            costs = generators.sample_costs(reread, cost_seed)
            return Inputs(costs, reread, original)

    def solve(self, inputs: Inputs):
        instance, costs = inputs.instance, inputs.costs
        net = instance.realize(costs)
        warm = mmcc.initial_feasible_flow(net)
        by_cycles = mmcc.mmcc_solve(instance, costs)
        structure, _ = netsimplex.basic_structure_from_flow(net, warm)
        by_pivots = netsimplex.ns_solve(net, structure)
        wide, source, sink, demand = ssp.concentrate_budgets(net)
        by_paths = ssp.ssp_solve(wide, source, sink, demand)
        return net, by_cycles, by_pivots, by_paths

    def outcome(self, inputs: Inputs, solved) -> Outcome:
        net, by_cycles, by_pivots, by_paths = solved
        flows = [
            by_cycles.final_flow,
            by_pivots.final_flow,
            core.Flow(by_paths.final_flow.values[: net.edge_count]),
        ]
        agree = len({core.flow_cost(net, flow) for flow in flows}) == 1
        return Outcome(
            [by_cycles, by_pivots, by_paths], [(net, flow) for flow in flows], agree
        )


WORKLOADS = {w.name: w for w in (MmccWaves, NsPivots, SspTwin, CrossCheck)}
