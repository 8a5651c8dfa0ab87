"""Outside-in spans around flowlab's layer functions.

The tracer replaces each layer function at the module attribute its
caller looks up (``flowlab.mmcc.karp_min_mean`` is the name
``mmcc_solve`` calls, not ``flowlab.mincycle.karp_min_mean``) with a
wrapper that records a span, and puts the original back afterwards.
Nothing under ``src/`` is edited.  Spans stay in memory until the run
ends; self times are computed from them afterwards.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter_ns

# (span name, module, attribute path) for every wrapped lookup.  One
# span name may cover several lookups of the same function.
LAYERS = (
    ("mincycle.karp_min_mean", "flowlab.mmcc", "karp_min_mean"),
    ("core.residual", "flowlab.mmcc", "residual"),
    ("core.residual", "flowlab.ssp", "residual"),
    ("core.residual", "flowlab.core", "residual"),
    ("core.augment_cycle", "flowlab.mmcc", "augment_cycle"),
    ("core.realize", "flowlab.core", "SmoothedInstance.realize"),
    ("core.check_feasible", "flowlab.core", "check_feasible"),
    ("core.verify_optimality", "flowlab.core", "verify_optimality"),
    ("maxflow.solve_max_flow", "flowlab.mmcc", "solve_max_flow"),
    ("mmcc.mmcc_solve", "flowlab.mmcc", "mmcc_solve"),
    ("netsimplex.ns_solve", "flowlab.netsimplex", "ns_solve"),
    ("netsimplex.entering_edge", "flowlab.netsimplex", "entering_edge"),
    ("netsimplex.pivot", "flowlab.netsimplex", "pivot"),
    ("netsimplex.basic_structure_from_flow", "flowlab.netsimplex", "basic_structure_from_flow"),
    ("ssp.ssp_solve", "flowlab.ssp", "ssp_solve"),
    ("ssp.cheapest_path", "flowlab.ssp", "cheapest_path"),
    ("ssp.distances_to_sink", "flowlab.ssp", "distances_to_sink"),
    ("ssp.concentrate_budgets", "flowlab.ssp", "concentrate_budgets"),
    ("generators.gen", "flowlab.generators", "gen_mmcc_general"),
    ("generators.gen", "flowlab.generators", "gen_ns_lower_bound"),
    ("generators.gen", "flowlab.generators", "gen_random_smoothed"),
    ("generators.sample_costs", "flowlab.generators", "sample_costs"),
    ("formats.format_smoothed", "flowlab.formats", "format_smoothed"),
    ("formats.parse_smoothed", "flowlab.formats", "parse_smoothed"),
)

# Work counted at a span boundary, from the wrapped call's result.
COUNTS = {"core.residual": lambda r: len(r.edges)}

# Span record fields.
NAME, START, END, PARENT, ROOT, COUNT = range(6)


class Tracer:
    """Records nested spans; a span's root is the harness span
    (``prep``, ``solve``, ``verify`` or ``check``) that caused it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.absent: set[str] = set()

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        root = index if parent is None else self.spans[parent][ROOT]
        record = [name, perf_counter_ns(), 0, parent, root, 0]
        self.spans.append(record)
        self._stack.append(index)
        return record

    def _close(self, record: list) -> None:
        record[END] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """A harness span that the layer spans opened inside it belong to."""
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if count is not None:
                record[COUNT] = count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, layers=LAYERS) -> None:
        """Wrap every layer lookup that exists.  A lookup a later
        version of the program no longer has is recorded in ``absent``
        and skipped."""
        for name, module_name, path in layers:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.add("%s.%s" % (module_name, path))
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.add("%s.%s" % (module_name, path))
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of its interval that its
    direct children cover (overlapping children are counted once)."""
    children: list[list[int]] = [[] for _ in spans]
    for index, record in enumerate(spans):
        if record[PARENT] is not None:
            children[record[PARENT]].append(index)
    out = []
    for index, record in enumerate(spans):
        start, end = record[START], record[END]
        covered = 0
        reach = start
        for child in sorted(children[index], key=lambda c: spans[c][START]):
            lo = max(spans[child][START], reach)
            hi = min(spans[child][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def summarize(spans: list[list]) -> dict[tuple[str, str], list[int]]:
    """Totals keyed by (root span name, span name): [calls, self ns, count]."""
    totals: dict[tuple[str, str], list[int]] = {}
    for record, own in zip(spans, self_times(spans)):
        key = (spans[record[ROOT]][NAME], record[NAME])
        entry = totals.setdefault(key, [0, 0, 0])
        entry[0] += 1
        entry[1] += own
        entry[2] += record[COUNT]
    return totals
