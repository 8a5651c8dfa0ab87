"""Exact maximum flow via shortest augmenting paths.

It runs ``core._augment``, the loop that a network's computed start
(``core._Start``) runs on its budget widening, on the paired integer
arcs of ``_ResidualArcs``, with costs and budgets ignored;
breadth-first augmentation keeps the iteration count bounded by the
graph size regardless of capacity magnitudes.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Flow, FlowNetwork, _ResidualArcs, _augment

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
