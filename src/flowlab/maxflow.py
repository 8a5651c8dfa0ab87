"""Exact maximum flow via shortest augmenting paths.

Internal plumbing of the feasibility transform: ``initial_feasible_flow``
and MMCC's computed start run ``_augment`` on the arcs of the network
and of its budget widening's supply and drain edges, once per network.
It runs on the paired integer arcs of ``_ResidualArcs``, with
costs and budgets ignored; breadth-first augmentation keeps the
iteration count bounded by the graph size regardless of capacity
magnitudes.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .core import Flow, FlowNetwork, _ResidualArcs

__all__ = ["solve_max_flow"]


def solve_max_flow(net: FlowNetwork, source: int, sink: int) -> tuple[Fraction, Flow]:
    """Maximum flow value from ``source`` to ``sink`` and its edge flows.

    The flow value is always finite when every path from the source
    crosses at least one capacitated edge; an unbounded flow raises
    ``ValueError``, as does a source or sink outside the nodes.
    """
    if source == sink:
        raise ValueError("source and sink must differ")
    if not (0 <= source < net.node_count and 0 <= sink < net.node_count):
        raise ValueError("source and sink must be nodes")
    res = _ResidualArcs(net)
    value = _augment(res, net.node_count, source, sink)
    return Fraction(value, res.flow_scale), res.flow()


def _augment(res: _ResidualArcs, node_count: int, source: int, sink: int) -> int:
    """Push along shortest paths of ``res`` from ``source`` to ``sink``
    until none is left, updating its rooms in place; the value shipped,
    in the flow scale."""
    head, room = res.head, res.room
    out: list[list[int]] = [[] for _ in range(node_count)]
    for a, v in enumerate(res.tail):
        out[v].append(a)

    value = 0
    while True:
        parent_arc = [-1] * node_count
        parent_arc[source] = -2
        queue = deque([source])
        while queue and parent_arc[sink] == -1:
            for a in out[queue.popleft()]:
                w = head[a]
                if parent_arc[w] == -1 and room[a] != 0:
                    parent_arc[w] = a
                    queue.append(w)
        if parent_arc[sink] == -1:
            return value
        path = []
        v = sink
        while v != source:
            a = parent_arc[v]
            path.append(a)
            v = head[a ^ 1]
        bottleneck = min((room[a] for a in path if room[a] is not None), default=None)
        if bottleneck is None:
            raise ValueError("augmenting path with unbounded capacity; flow is infinite")
        res.push(path, bottleneck)
        value += bottleneck
