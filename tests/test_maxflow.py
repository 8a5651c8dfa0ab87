import random
from fractions import Fraction

import pytest

from flowlab.core import FlowNetwork
from flowlab.maxflow import solve_max_flow


def max_flow(node_count, arcs, source, sink):
    """``solve_max_flow`` on cost-free ``(tail, head, capacity)`` arcs,
    with the edge flows as a list."""
    net = FlowNetwork.from_data(node_count, [(t, h, c, 0) for t, h, c in arcs])
    value, flow = solve_max_flow(net, source, sink)
    return value, list(flow.values)


def test_single_arc():
    value, flows = max_flow(2, [(0, 1, Fraction(3))], 0, 1)
    assert value == 3 and flows == [3]


def test_classic_diamond():
    arcs = [
        (0, 1, Fraction(3)),
        (0, 2, Fraction(2)),
        (1, 2, Fraction(1)),
        (1, 3, Fraction(2)),
        (2, 3, Fraction(3)),
    ]
    value, flows = max_flow(4, arcs, 0, 3)
    assert value == 5


def test_uncapacitated_middle_edge():
    arcs = [(0, 1, Fraction(4)), (1, 2, None), (2, 3, Fraction(3))]
    value, flows = max_flow(4, arcs, 0, 3)
    assert value == 3
    assert flows == [3, 3, 3]


def test_unbounded_path_rejected():
    with pytest.raises(ValueError):
        max_flow(3, [(0, 1, None), (1, 2, None)], 0, 2)


def test_source_equal_to_sink_rejected():
    with pytest.raises(ValueError, match="source and sink must differ"):
        max_flow(2, [(0, 1, Fraction(1))], 1, 1)


@pytest.mark.parametrize("source, sink", [(0, 5), (0, -1), (-1, 2)])
def test_source_or_sink_outside_the_nodes_rejected(source, sink):
    with pytest.raises(ValueError, match="source and sink must be nodes"):
        max_flow(3, [(0, 1, 2), (1, 2, 3)], source, sink)


def test_fractional_capacities():
    arcs = [(0, 1, Fraction(1, 3)), (0, 1, Fraction(1, 6))]
    # parallel arcs are fine at this layer
    value, flows = max_flow(2, arcs, 0, 1)
    assert value == Fraction(1, 2)


def _flow_is_valid(node_count, arcs, flows, source, sink, value):
    balance = [Fraction(0)] * node_count
    for (tail, to, cap), f in zip(arcs, flows):
        assert f >= 0
        if cap is not None:
            assert f <= cap
        balance[tail] -= f
        balance[to] += f
    for v in range(node_count):
        if v == source:
            assert balance[v] == -value
        elif v == sink:
            assert balance[v] == value
        else:
            assert balance[v] == 0


def _reachable_in_residual(node_count, arcs, flows, source):
    out = {}
    for (tail, to, cap), f in zip(arcs, flows):
        if cap is None or f < cap:
            out.setdefault(tail, []).append(to)
        if f > 0:
            out.setdefault(to, []).append(tail)
    seen = {source}
    stack = [source]
    while stack:
        v = stack.pop()
        for w in out.get(v, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def test_random_flows_carry_min_cut_certificates():
    """Flow validity plus a saturated-cut certificate on random graphs."""
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(3, 8)
        arcs = []
        for _ in range(rng.randint(2, 14)):
            t, h = rng.sample(range(n), 2)
            arcs.append((t, h, Fraction(rng.randint(1, 8))))
        value, flows = max_flow(n, arcs, 0, n - 1)
        _flow_is_valid(n, arcs, flows, 0, n - 1, value)
        side = _reachable_in_residual(n, arcs, flows, 0)
        assert (n - 1) not in side
        cut = sum(
            cap
            for (tail, to, cap) in arcs
            if tail in side and to not in side
        )
        assert value == cut
