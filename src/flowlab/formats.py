"""Plain-text interchange for networks and smoothed instances.

The base format follows the classic minimum-cost-flow file convention:
``c`` comment lines, one ``p min <nodes> <arcs>`` problem line, ``n <id>
<budget>`` lines for nodes with nonzero budget, and ``a <src> <dst>
<low> <cap> <cost>`` arc lines, with ids 1-based and ``low`` always 0.
Three documented liberties on top of that: numbers may be exact
rationals written ``num/den``, the capacity field ``inf`` marks an
uncapacitated arc, and ``r <src> <dst> <rank>`` lines carry non-default
leaving ranks.  Display names travel in ``c node <id> <name>`` and
``c arc <src> <dst> <label>`` comments, so a reader that ignores
comments still gets a valid problem.

Smoothed instances extend the base with a ``phi <value>`` line, one
``i <src> <dst> <lo> <width>`` interval line per arc, ``f <src> <dst>
<value>`` starting-flow lines, and, when a spanning structure rides
along, a ``root <id>`` line plus ``t <src> <dst>`` tree-arc lines and
``u <src> <dst>`` lines for arcs held at their capacity bound.
"""

from fractions import Fraction
from pathlib import Path
from typing import Optional

from .core import (
    CostInterval,
    Edge,
    Flow,
    FlowLabError,
    FlowNetwork,
    SmoothedInstance,
)
from .netsimplex import SpanningTreeStructure


class ParseError(FlowLabError):
    """A file or string could not be decoded; carries the line number."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


def _num(value) -> str:
    return "inf" if value is None else str(Fraction(value))


def format_network(net: FlowNetwork) -> str:
    lines = []
    if net.node_names is not None:
        for i, name in enumerate(net.node_names):
            lines.append(f"c node {i + 1} {name}")
    if net.edge_labels is not None:
        for e, label in zip(net.edges, net.edge_labels):
            lines.append(f"c arc {e.tail + 1} {e.head + 1} {label}")
    lines.append(f"p min {net.node_count} {net.edge_count}")
    for i, b in enumerate(net.budgets):
        if b != 0:
            lines.append(f"n {i + 1} {_num(b)}")
    for e in net.edges:
        lines.append(f"a {e.tail + 1} {e.head + 1} 0 {_num(e.capacity)} {_num(e.cost)}")
    for e in net.edges:
        if e.leaving_rank != 1:
            lines.append(f"r {e.tail + 1} {e.head + 1} {e.leaving_rank}")
    return "\n".join(lines) + "\n"


def format_smoothed(
    inst: SmoothedInstance,
    structure: Optional[SpanningTreeStructure] = None,
) -> str:
    net = inst.network
    lines = [format_network(net).rstrip("\n")]
    lines.append(f"phi {_num(inst.phi)}")
    for e, iv in zip(net.edges, inst.intervals):
        lines.append(f"i {e.tail + 1} {e.head + 1} {_num(iv.lo)} {_num(iv.width)}")
    if inst.starting_flow is not None:
        for e, value in zip(net.edges, inst.starting_flow.values):
            lines.append(f"f {e.tail + 1} {e.head + 1} {_num(value)}")
    if structure is not None:
        lines.append(f"root {structure.root + 1}")
        for idx in sorted(structure.tree_edges):
            e = net.edges[idx]
            lines.append(f"t {e.tail + 1} {e.head + 1}")
        for idx in sorted(structure.upper):
            e = net.edges[idx]
            lines.append(f"u {e.tail + 1} {e.head + 1}")
    return "\n".join(lines) + "\n"


class _Document:
    """Mutable bag the line parser fills in before assembly."""

    def __init__(self):
        self.node_count = None
        self.edge_count = None
        self.arcs = []
        self.arc_index = {}
        self.budgets = {}
        self.names = {}
        self.labels = {}
        self.phi = None
        self.intervals = {}
        self.flow = {}
        self.root = None
        self.tree = set()
        self.upper = set()
        self.last_line = 0


_BASE_TAGS = frozenset({"c", "p", "n", "a", "r"})
_SMOOTHED_TAGS = _BASE_TAGS | {"phi", "i", "f", "root", "t", "u"}


def _fraction(token: str, number: int, what: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(number, f"bad {what} {token!r}") from None


def _integer(token: str, number: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(number, f"bad {what} {token!r}") from None


def _node_id(token: str, number: int, doc: _Document) -> int:
    value = _integer(token, number, "node id")
    if not 1 <= value <= doc.node_count:
        raise ParseError(number, f"node id {value} out of range")
    return value - 1


def _arc_ref(tokens, number: int, doc: _Document) -> int:
    tail = _node_id(tokens[0], number, doc)
    head = _node_id(tokens[1], number, doc)
    try:
        return doc.arc_index[(tail, head)]
    except KeyError:
        raise ParseError(number, f"unknown arc {tail + 1} {head + 1}") from None


def _expect(tokens, count: int, number: int):
    if len(tokens) != count:
        raise ParseError(number, f"expected {count} fields, got {len(tokens)}")


def _parse(text: str, allowed: frozenset) -> _Document:
    doc = _Document()
    for number, raw in enumerate(text.splitlines(), start=1):
        doc.last_line = number
        tokens = raw.split()
        if not tokens:
            continue
        tag = tokens[0]
        if tag not in allowed:
            raise ParseError(number, f"unexpected {tag!r} line")
        if tag == "c":
            # well-formed name comments are harvested, the rest ignored
            try:
                if len(tokens) >= 4 and tokens[1] == "node":
                    doc.names[int(tokens[2]) - 1] = " ".join(tokens[3:])
                elif len(tokens) >= 5 and tokens[1] == "arc":
                    key = (int(tokens[2]) - 1, int(tokens[3]) - 1)
                    doc.labels[key] = " ".join(tokens[4:])
            except ValueError:
                pass
            continue
        if tag == "p":
            _expect(tokens, 4, number)
            if doc.node_count is not None:
                raise ParseError(number, "duplicate problem line")
            if tokens[1] != "min":
                raise ParseError(number, f"unsupported problem type {tokens[1]!r}")
            doc.node_count = _integer(tokens[2], number, "node count")
            doc.edge_count = _integer(tokens[3], number, "arc count")
            if doc.node_count < 0 or doc.edge_count < 0:
                raise ParseError(number, "negative size in problem line")
            continue
        if doc.node_count is None:
            raise ParseError(number, f"{tag!r} line before problem line")
        if tag == "n":
            _expect(tokens, 3, number)
            node = _node_id(tokens[1], number, doc)
            if node in doc.budgets:
                raise ParseError(number, f"duplicate budget for node {node + 1}")
            doc.budgets[node] = _fraction(tokens[2], number, "budget")
        elif tag == "a":
            _expect(tokens, 6, number)
            if len(doc.arcs) >= doc.edge_count:
                raise ParseError(number, "more arcs than declared")
            tail = _node_id(tokens[1], number, doc)
            head = _node_id(tokens[2], number, doc)
            if _fraction(tokens[3], number, "lower bound") != 0:
                raise ParseError(number, "nonzero lower bound not supported")
            if tokens[4] == "inf":
                capacity = None
            else:
                capacity = _fraction(tokens[4], number, "capacity")
            cost = _fraction(tokens[5], number, "cost")
            if (tail, head) in doc.arc_index:
                raise ParseError(number, f"duplicate arc {tail + 1} {head + 1}")
            doc.arc_index[(tail, head)] = len(doc.arcs)
            doc.arcs.append([tail, head, capacity, cost, 1])
        elif tag == "r":
            _expect(tokens, 4, number)
            idx = _arc_ref(tokens[1:3], number, doc)
            doc.arcs[idx][4] = _integer(tokens[3], number, "rank")
        elif tag == "phi":
            _expect(tokens, 2, number)
            if doc.phi is not None:
                raise ParseError(number, "duplicate phi line")
            doc.phi = _fraction(tokens[1], number, "phi")
        elif tag == "i":
            _expect(tokens, 5, number)
            idx = _arc_ref(tokens[1:3], number, doc)
            if idx in doc.intervals:
                raise ParseError(number, "duplicate interval line")
            lo = _fraction(tokens[3], number, "interval low end")
            width = _fraction(tokens[4], number, "interval width")
            doc.intervals[idx] = (lo, width)
        elif tag == "f":
            _expect(tokens, 4, number)
            idx = _arc_ref(tokens[1:3], number, doc)
            if idx in doc.flow:
                raise ParseError(number, "duplicate flow line")
            doc.flow[idx] = _fraction(tokens[3], number, "flow value")
        elif tag == "root":
            _expect(tokens, 2, number)
            if doc.root is not None:
                raise ParseError(number, "duplicate root line")
            doc.root = _node_id(tokens[1], number, doc)
        elif tag == "t":
            _expect(tokens, 3, number)
            doc.tree.add(_arc_ref(tokens[1:3], number, doc))
        elif tag == "u":
            _expect(tokens, 3, number)
            doc.upper.add(_arc_ref(tokens[1:3], number, doc))
    if doc.node_count is None:
        raise ParseError(doc.last_line, "missing problem line")
    if len(doc.arcs) != doc.edge_count:
        raise ParseError(
            doc.last_line,
            f"declared {doc.edge_count} arcs, found {len(doc.arcs)}",
        )
    return doc


def _network(doc: _Document) -> FlowNetwork:
    names = None
    if doc.names:
        names = tuple(doc.names.get(i, str(i)) for i in range(doc.node_count))
    labels = None
    if doc.labels:
        labels = tuple(
            doc.labels.get((tail, head), "") for tail, head, *_ in doc.arcs
        )
    return FlowNetwork(
        node_count=doc.node_count,
        edges=tuple(Edge(t, h, cap, cost, rank) for t, h, cap, cost, rank in doc.arcs),
        budgets=tuple(doc.budgets.get(i, Fraction(0)) for i in range(doc.node_count)),
        node_names=names,
        edge_labels=labels,
    )


def parse_network(text: str) -> FlowNetwork:
    return _network(_parse(text, _BASE_TAGS))


def parse_smoothed(text: str):
    """Decode a smoothed instance, returning (instance, structure or None)."""
    doc = _parse(text, _SMOOTHED_TAGS)
    net = _network(doc)
    if doc.phi is None:
        raise ParseError(doc.last_line, "missing phi line")
    intervals = []
    for idx, (tail, head, *_rest) in enumerate(doc.arcs):
        if idx not in doc.intervals:
            raise ParseError(doc.last_line, f"missing interval for arc {tail + 1} {head + 1}")
        lo, width = doc.intervals[idx]
        intervals.append(CostInterval(lo, width))
    starting_flow = None
    if doc.flow:
        starting_flow = Flow(
            tuple(doc.flow.get(i, Fraction(0)) for i in range(len(doc.arcs)))
        )
    structure = None
    if doc.root is not None or doc.tree or doc.upper:
        tree = frozenset(doc.tree)
        upper = frozenset(doc.upper)
        lower = frozenset(range(len(doc.arcs))) - tree - upper
        structure = SpanningTreeStructure(
            tree_edges=tree,
            lower=lower,
            upper=upper,
            root=0 if doc.root is None else doc.root,
        )
    inst = SmoothedInstance(
        network=net,
        intervals=tuple(intervals),
        phi=doc.phi,
        starting_flow=starting_flow,
    )
    return inst, structure


def format_flow(net: FlowNetwork, flow: Flow) -> str:
    """Encode a flow as bare ``f`` lines against a known network."""
    lines = [
        f"f {e.tail + 1} {e.head + 1} {_num(value)}"
        for e, value in zip(net.edges, flow.values)
    ]
    return "\n".join(lines) + "\n"


def parse_flow(text: str, net: FlowNetwork) -> Flow:
    index = {(e.tail, e.head): i for i, e in enumerate(net.edges)}
    values = [Fraction(0)] * net.edge_count
    seen = set()
    for number, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] != "f":
            raise ParseError(number, f"unexpected {tokens[0]!r} line")
        _expect(tokens, 4, number)
        tail = _integer(tokens[1], number, "node id") - 1
        head = _integer(tokens[2], number, "node id") - 1
        if (tail, head) not in index:
            raise ParseError(number, f"unknown arc {tail + 1} {head + 1}")
        idx = index[(tail, head)]
        if idx in seen:
            raise ParseError(number, f"duplicate flow line for arc {tail + 1} {head + 1}")
        seen.add(idx)
        values[idx] = _fraction(tokens[3], number, "flow value")
    return Flow(tuple(values))


def write_dimacs(net: FlowNetwork, path) -> None:
    Path(path).write_text(format_network(net))


def read_dimacs(path) -> FlowNetwork:
    return parse_network(Path(path).read_text())


def write_smoothed(
    inst: SmoothedInstance,
    path,
    structure: Optional[SpanningTreeStructure] = None,
) -> None:
    Path(path).write_text(format_smoothed(inst, structure))


def read_smoothed(path):
    return parse_smoothed(Path(path).read_text())


def write_flow(net: FlowNetwork, flow: Flow, path) -> None:
    Path(path).write_text(format_flow(net, flow))


def read_flow(path, net: FlowNetwork) -> Flow:
    return parse_flow(Path(path).read_text(), net)
