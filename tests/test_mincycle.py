"""Minimum-mean cycle tests: Karp against the exhaustive oracle."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from flowlab.core import _MISSING_NODE, ResidualEdge, ResidualNetwork, residual
from flowlab.mincycle import karp_min_mean

from conftest import random_capacity_respecting_flow, random_network
from reference import (
    GraphTooLargeError,
    brute_force_min_mean,
    enumerate_simple_cycles,
    reference_karp,
    walk_cost_table,
)


def residual_net(node_count, arcs):
    """Build a residual network from (tail, head, cost) triples."""
    edges = tuple(
        ResidualEdge(t, h, Fraction(1), Fraction(c), i, True)
        for i, (t, h, c) in enumerate(arcs)
    )
    return ResidualNetwork(node_count=node_count, edges=edges)


def test_triangle_mean():
    r = residual_net(3, [(0, 1, 1), (1, 2, 1), (2, 0, -3)])
    for fn in (karp_min_mean, brute_force_min_mean):
        cycle = fn(r)
        assert cycle is not None
        assert cycle.total_cost == -1
        assert cycle.mean_cost == Fraction(-1, 3)
        assert len(cycle) == 3


def test_two_disjoint_cycles_picks_smaller_mean():
    # two-cycle mean -1/2 beats triangle mean -1/3
    r = residual_net(
        5,
        [(0, 1, 1), (1, 2, 1), (2, 0, -3), (3, 4, -2), (4, 3, 1)],
    )
    for fn in (karp_min_mean, brute_force_min_mean):
        cycle = fn(r)
        assert cycle.mean_cost == Fraction(-1, 2)
        assert set(e.tail for e in cycle.edges) == {3, 4}


def test_acyclic_returns_none():
    r = residual_net(4, [(0, 1, 5), (0, 2, -1), (1, 3, 2), (2, 3, -7)])
    assert karp_min_mean(r) is None
    assert brute_force_min_mean(r) is None


def test_empty_graph():
    r = ResidualNetwork(node_count=3, edges=())
    assert karp_min_mean(r) is None
    assert brute_force_min_mean(r) is None


def test_karp_rejects_edges_outside_the_nodes():
    # a head past the last node, and one that negative indexing would
    # wrap to node 1, closing a cycle of mean -1 through "node -1": the
    # residual network refuses both when built, so Karp never meets them
    beyond = lambda: ResidualNetwork(2, (ResidualEdge(0, 5, 1, -1, 0, True),))
    wrapped = lambda: residual_net(2, [(0, -1, -1), (-1, 0, -1)])
    for build in (beyond, wrapped):
        with pytest.raises(ValueError, match="^%s$" % (_MISSING_NODE % 0)):
            build()


def test_walk_table_matches_direct_recursion():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 6)
        arcs = []
        for t in range(n):
            for h in range(n):
                if t < h and rng.random() < 0.6:
                    if rng.random() < 0.5:
                        arcs.append((t, h, rng.randint(-4, 4)))
                    else:
                        arcs.append((h, t, rng.randint(-4, 4)))
        r = residual_net(n, arcs)
        table = walk_cost_table(r)
        assert table[0] == [0] * n
        for k in range(1, len(table)):
            for v in range(n):
                options = [
                    table[k - 1][e.tail] + e.cost
                    for e in r.edges
                    if e.head == v and table[k - 1][e.tail] is not None
                ]
                expected = min(options) if options else None
                assert table[k][v] == expected


def test_karp_matches_oracle_on_random_graphs():
    rng = random.Random(99)
    agreements = 0
    for _ in range(200):
        n = rng.randint(2, 7)
        arcs = []
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.55:
                    t, h = (a, b) if rng.random() < 0.5 else (b, a)
                    arcs.append((t, h, Fraction(rng.randint(-6, 6), rng.randint(1, 4))))
        r = residual_net(n, arcs)
        got = karp_min_mean(r)
        expected = brute_force_min_mean(r)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert got.mean_cost == expected.mean_cost
            agreements += 1
    assert agreements > 50


def test_karp_matches_oracle_on_residuals_of_flows():
    rng = random.Random(402)
    for _ in range(60):
        net = random_network(rng, rng.randint(3, 7), rng.randint(3, 12))
        flow = random_capacity_respecting_flow(rng, net)
        r = residual(net, flow)
        got = karp_min_mean(r)
        expected = brute_force_min_mean(r)
        if expected is None:
            assert got is None
        else:
            assert got.mean_cost == expected.mean_cost


def test_all_four_node_tournaments_with_small_costs():
    """Exhaustive agreement sweep over 4-node tournaments.

    Every orientation of the 6 node pairs, every cost assignment from
    {-1, 0, 1}; both routines must report the same minimum mean.
    """
    pairs = list(itertools.combinations(range(4), 2))
    rng = random.Random(8)
    checked = 0
    for orientation in itertools.product((0, 1), repeat=6):
        # testing all 729 cost vectors per orientation is slow in exact
        # arithmetic, so sample a fixed pseudo-random quarter of them
        all_costs = list(itertools.product((-1, 0, 1), repeat=6))
        for costs in rng.sample(all_costs, 180):
            arcs = []
            for (a, b), flip, cost in zip(pairs, orientation, costs):
                t, h = (a, b) if flip == 0 else (b, a)
                arcs.append((t, h, cost))
            r = residual_net(4, arcs)
            got = karp_min_mean(r)
            expected = brute_force_min_mean(r)
            assert (got is None) == (expected is None)
            if got is not None:
                assert got.mean_cost == expected.mean_cost
            checked += 1
    assert checked == 64 * 180


def test_karp_cycle_is_usable_witness():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(3, 7)
        arcs = []
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.6:
                    t, h = (a, b) if rng.random() < 0.5 else (b, a)
                    arcs.append((t, h, rng.randint(-5, 5)))
        r = residual_net(n, arcs)
        cycle = karp_min_mean(r)
        if cycle is None:
            continue
        # a simple closed walk whose mean matches its edges
        assert cycle.total_cost == sum(e.cost for e in cycle.edges)
        assert cycle.mean_cost == Fraction(cycle.total_cost, len(cycle))


def test_enumerate_simple_cycles_counts_complete_digraph():
    # complete digraph on 4 nodes: 6 two-cycles, 8 triangles, 6 four-cycles
    arcs = [(a, b, 1) for a in range(4) for b in range(4) if a != b]
    r = residual_net(4, arcs)
    cycles = list(enumerate_simple_cycles(r))
    lengths = {}
    for c in cycles:
        lengths[len(c)] = lengths.get(len(c), 0) + 1
    assert lengths == {2: 6, 3: 8, 4: 6}
    # no duplicates up to rotation
    seen = set()
    for c in cycles:
        nodes = tuple(e.tail for e in c)
        smallest = min(range(len(nodes)), key=lambda i: nodes[i])
        canon = nodes[smallest:] + nodes[:smallest]
        assert canon not in seen
        seen.add(canon)


def test_brute_force_guard():
    arcs = [(i, (i + 1) % 13, 1) for i in range(13)]
    r = residual_net(13, arcs)
    with pytest.raises(GraphTooLargeError):
        brute_force_min_mean(r)
    cycle = brute_force_min_mean(r, node_limit=13)
    assert cycle is not None and cycle.mean_cost == 1


def scaled_costs(r, factor):
    edges = tuple(replace(e, cost=e.cost * factor) for e in r.edges)
    return ResidualNetwork(node_count=r.node_count, edges=edges)


@pytest.mark.parametrize(
    "factor",
    [1, 2**60, 2**1100, Fraction(1, 3**40)],
    ids=["float-table", "integer-table", "exact-quotients", "fine-costs"],
)
def test_karp_returns_the_reference_cycle_through_ties(factor):
    # costs in {-2..2} make many equally cheap walks and equal means;
    # the factors move the table out of float range, and the quotients
    # too, without changing which cycle is returned
    rng = random.Random(404)
    found = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        arcs = [
            (t, h, rng.randint(-2, 2))
            for t in range(n)
            for h in range(n)
            if t != h and rng.random() < 0.45
        ]
        r = scaled_costs(residual_net(n, arcs), factor)
        got = karp_min_mean(r)
        assert got == reference_karp(r)
        found += got is not None
    for _ in range(100):
        net = random_network(rng, rng.randint(3, 7), rng.randint(3, 12))
        r = scaled_costs(residual(net, random_capacity_respecting_flow(rng, net)), factor)
        got = karp_min_mean(r)
        assert got == reference_karp(r)
        found += got is not None
    assert found > 200


def assert_exact_where_means_round_alike(big, seed):
    # costs near -big and big that differ in their last bits: walk
    # means then round to the same float far more often than they are
    # equal, and only exact comparison tells them apart
    rng = random.Random(seed)
    for _ in range(300):
        n = rng.randint(2, 7)
        arcs = [
            (t, h, rng.choice((-1, 1)) * big + rng.randint(-3, 3))
            for t in range(n)
            for h in range(n)
            if t != h and rng.random() < 0.45
        ]
        r = residual_net(n, arcs)
        assert karp_min_mean(r) == reference_karp(r)


def test_karp_compares_exactly_where_means_round_alike():
    assert_exact_where_means_round_alike(2**60, 405)


def test_karp_compares_exactly_where_quotients_are_fractions():
    # the table is too wide for float quotients to order it, so every
    # quotient is a Fraction, though each would still fit in a float
    assert_exact_where_means_round_alike(2**995, 407)


def tied_cycles_net(rng):
    """Vertex-disjoint cycles of mean -1 and one of mean -1/2, with
    nodes downstream of them, on shuffled node labels and arc order:
    many nodes attain the minimum mean together."""
    arcs, placed, node = [], [], 0
    for mean in [Fraction(-1)] * rng.randint(2, 4) + [Fraction(-1, 2)]:
        length = 2 * rng.randint(1, 2) if mean.denominator == 2 else rng.randint(2, 4)
        nodes = list(range(node, node + length))
        node += length
        costs = [rng.randint(-3, 2) for _ in range(length - 1)]
        costs.append(int(mean * length) - sum(costs))
        arcs += zip(nodes, nodes[1:] + nodes[:1], costs)
        placed += nodes
    for _ in range(rng.randint(3, 8)):
        # each new node hangs below one or two placed nodes, so the
        # added arcs close no cycle
        for tail in rng.sample(placed, rng.randint(1, 2)):
            arcs.append((tail, node, rng.randint(-3, 3)))
        placed.append(node)
        node += 1
    labels = list(range(node))
    rng.shuffle(labels)
    rng.shuffle(arcs)
    return residual_net(node, [(labels[t], labels[h], c) for t, h, c in arcs])


def nodes_at_minimum_mean(r):
    """The nodes v whose max over k of (D[n][v] - D[k][v]) / (n - k)
    attains the minimum mean, from the exact table."""
    table = walk_cost_table(r)
    n, last = r.node_count, table[-1]
    worst = {
        v: max((last[v] - table[k][v]) / (n - k) for k in range(n) if table[k][v] is not None)
        for v in range(n)
        if last[v] is not None
    }
    least = min(worst.values())
    return [v for v, w in worst.items() if w == least]


@pytest.mark.parametrize(
    "factor",
    [1, 2**60, 2**1100, Fraction(1, 3**40)],
    ids=["float-table", "integer-table", "exact-quotients", "fine-costs"],
)
def test_karp_returns_the_reference_cycle_among_many_tied_nodes(factor):
    # the min-max step skips nodes by one probe quotient and keeps the
    # rows of tied nodes only; ties between nodes still go to the lowest
    rng = random.Random(406)
    for _ in range(80):
        r = tied_cycles_net(rng)
        assert len(nodes_at_minimum_mean(r)) >= 2
        r = scaled_costs(r, factor)
        assert karp_min_mean(r) == reference_karp(r)

