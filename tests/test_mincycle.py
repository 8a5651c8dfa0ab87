"""Minimum-mean cycle tests: Karp against the exhaustive oracle."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from flowlab.core import _MISSING_NODE, InfeasibleError, ResidualEdge, ResidualNetwork, residual
from flowlab.generators import (
    MmccGeneralParams,
    gen_mmcc_general,
    gen_mmcc_large_phi,
    gen_random_smoothed,
    sample_costs,
)
from flowlab.mincycle import _extend, _MeanSearch, _scaled_arcs, karp_min_mean
from flowlab.mmcc import mmcc_solve

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


def test_a_search_with_no_walk_of_two_arcs_takes_no_candidate(monkeypatch):
    # an out-star has no walk of two arcs, so the levels 5 to 8 that a
    # 20-node search reads for candidates hold no entry, and it has no cycle
    seen = []
    candidate = _MeanSearch._candidate

    def spy(search, table):
        found = candidate(search, table)
        seen.append((len(table) - 1, found))
        return found

    monkeypatch.setattr(_MeanSearch, "_candidate", spy)
    assert karp_min_mean(residual_net(20, [(0, v, v - 10) for v in range(1, 20)])) is None
    assert seen == [(k, None) for k in range(5, 9)]


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
        # the kernel's rows, scaled back, with entries above the limit
        # read as no walk
        scaled, scale = _scaled_arcs(r)
        limit = n * max((abs(c) for _, _, c in scaled), default=0)
        rows = [[0] * n]
        _extend(rows, scaled, n, 2 * limit + 1)
        assert [[None if d > limit else Fraction(d, scale) for d in row] for row in rows] == table


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


def same_search_result(got, want):
    """Equal cycles in walk order and equal means, whatever the
    pairs (num, den) that carry the means."""
    if got is None or want is None:
        return got is want
    return got[0] == want[0] and Fraction(got[1], got[2]) == Fraction(want[1], want[2])


def full_table_search(n, arcs, present):
    """A search over the arcs ``present`` of ``arcs`` that never checks
    the certificate, so it builds all n levels and takes Karp's min-max
    step and cut."""
    search = _MeanSearch(n, arcs, present)
    search.settled = search.candidates_from = n + 1
    return search


def tied_cycles_net(rng):
    """Vertex-disjoint cycles of mean -1 and one of mean -1/2, with
    nodes downstream of them, on shuffled node labels and arc order:
    many nodes attain the minimum mean together.  The nets have 17 to
    30 nodes, so most searches over them stop Karp's table early."""
    arcs, placed, node = [], [], 0
    for mean in [Fraction(-1)] * rng.randint(2, 4) + [Fraction(-1, 2)]:
        length = 2 * rng.randint(1, 2) if mean.denominator == 2 else rng.randint(2, 4)
        nodes = list(range(node, node + length))
        node += length
        costs = [rng.randint(-3, 2) for _ in range(length - 1)]
        costs.append(int(mean * length) - sum(costs))
        arcs += zip(nodes, nodes[1:] + nodes[:1], costs)
        placed += nodes
    for _ in range(rng.randint(10, 14)):
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
    # rows of tied nodes only; a search that stops early takes the
    # lowest node of R_n and the lowest tight arcs instead.  Either way
    # ties between nodes go to the lowest, and between arcs too
    rng = random.Random(406)
    stops = 0
    for _ in range(80):
        r = tied_cycles_net(rng)
        assert len(nodes_at_minimum_mean(r)) >= 2
        r = scaled_costs(r, factor)
        assert karp_min_mean(r) == reference_karp(r)
        # and the min-max step, over the full table, agrees
        arcs, _ = _scaled_arcs(r)
        search = _MeanSearch(r.node_count, arcs, range(len(arcs)))
        full = full_table_search(r.node_count, arcs, range(len(arcs)))
        assert same_search_result(search(), full())
        stops += search._stops
    assert stops >= 70



@pytest.fixture
def full_table_replay(monkeypatch):
    """Compares every ``_MeanSearch`` call made while the test runs with
    the same call on a twin search, set up afresh over the same arcs and
    the same arc set, that never checks, so it builds all n levels, and
    Karp's min-max step and cut.  Yields the searches made, each with
    its number of calls."""
    calls = {}
    search_with_checks = _MeanSearch.__call__

    def compared(search, negative_only=False):
        twin = full_table_search(search.n, search.arcs, sorted(search.present))
        got, full = search_with_checks(search, negative_only), search_with_checks(twin)
        if got is None and negative_only:
            # MMCC's last search: over the full table, no negative cycle
            assert full is None or full[1] >= 0
        else:
            assert same_search_result(got, full)
        assert twin._stops == 0
        calls[search] = calls.get(search, 0) + 1
        return got

    monkeypatch.setattr(_MeanSearch, "__call__", compared)
    yield calls


@pytest.mark.parametrize(
    "instance, integer_table",
    [
        (gen_mmcc_general(MmccGeneralParams(12, 48, 4096)), False),
        (gen_mmcc_general(MmccGeneralParams(8, 16, 256)), False),
        (gen_mmcc_large_phi(4, 9), True),
        (gen_mmcc_large_phi(5, 10), True),
    ],
    ids=["general-12-48-4096", "general-8-16-256", "large-phi-4-9", "large-phi-5-10"],
)
def test_early_stop_returns_the_full_table_answer_on_every_search(full_table_replay, instance, integer_table):
    # tests/reference.py replays MMCC through karp_min_mean, which is
    # the same search; this compares each search, the last one (mean
    # >= 0) included, with the full table's
    for seed in (0, 1):
        mmcc_solve(instance, sample_costs(instance, seed))
    assert len(full_table_replay) == 2
    for search, calls in full_table_replay.items():
        assert search.floats is not integer_table
        assert search._stops >= calls // 2


def test_early_stop_returns_the_full_table_answer_on_random_instances(full_table_replay):
    rng = random.Random(23)
    solved = 0
    while solved < 100:
        n = rng.randint(18, 26)
        inst = gen_random_smoothed(n, rng.randint(2 * n, 4 * n), rng.choice((16, 64, 256)), rng.getrandbits(32))
        try:
            mmcc_solve(inst, sample_costs(inst, rng.getrandbits(32)))
        except InfeasibleError:
            continue
        solved += 1
    assert sum(search._stops for search in full_table_replay) >= 100


def test_early_stop_certifies_most_searches_of_the_mmcc_waves_row(full_table_replay):
    # a fallback to the full table is never wrong, only slow; this keeps
    # the early stop from falling back unseen
    instance = gen_mmcc_general(MmccGeneralParams(12, 48, 4096))
    mmcc_solve(instance, sample_costs(instance, 0))
    [(search, calls)] = full_table_replay.items()
    assert calls == 359
    assert search._stops >= 0.9 * calls
    assert search._rows <= calls * search.n / 4


def certificate_nets():
    """Residual networks of several kinds: tied cycles, random residual
    graphs and the first residual graph of an MMCC solve."""
    rng = random.Random(408)
    nets = [tied_cycles_net(rng) for _ in range(4)]
    for _ in range(4):
        net = random_network(rng, rng.randint(18, 24), rng.randint(40, 70))
        nets.append(residual(net, random_capacity_respecting_flow(rng, net)))
    instance = gen_mmcc_general(MmccGeneralParams(8, 16, 256))
    net = instance.realize(sample_costs(instance, 0))
    nets.append(residual(net, instance.starting_flow))
    return nets


def test_certificate_rejects_a_candidate_next_to_the_minimum_mean():
    # the certificate must not rest on the candidate rule: just above the
    # minimum mean some cycle is negative under c - mean, and just below
    # it no tight walk of n arcs exists; at the minimum mean the full
    # table certifies Karp's own answer
    checked = 0
    for r in certificate_nets():
        arcs, _ = _scaled_arcs(r)
        present = range(len(arcs))
        search = full_table_search(r.node_count, arcs, present)
        level_arcs = [search.table_arcs[a] for a in present]
        table = [[0] * search.n]
        _extend(table, level_arcs, search.n, search.far)
        karp = search()
        if karp is None:
            continue
        mean = Fraction(karp[1], karp[2])
        certified, _ = search._certify(table, mean.numerator, mean.denominator)
        assert same_search_result(certified, karp)
        for offset in (Fraction(1, 2**70), Fraction(1, 7 * search.n)):
            for near in (mean - offset, mean + offset):
                for k in range(1, search.n + 1):
                    assert search._certify(table[: k + 1], near.numerator, near.denominator) is None
        checked += 1
    assert checked >= 8


def full_arc_check(search, table, mean):
    """Whether π(h) <= π(t) + c - mean on every arc of the search's arc
    set, with π(v) = min over j of D_j(v) - j·mean over the rows
    ``table`` that have a walk behind them, in exact arithmetic, and the
    nodes whose π the last row sets alone."""
    rows = [
        [Fraction(int(d)) - j * mean if d <= search.limit else None for d in row]
        for j, row in enumerate(table)
    ]
    columns = list(zip(*rows))
    pi = [min(s for s in column if s is not None) for column in columns]
    frontier = [
        v for v, column in enumerate(columns)
        if column[-1] is not None and all(s is None or column[-1] < s for s in column[:-1])
    ]
    holds = all(pi[h] <= pi[t] + c - mean for t, h, c in (search.arcs[a] for a in search.present))
    return holds, frontier


def test_arc_check_on_the_frontier_agrees_with_the_check_of_every_arc():
    # only arcs out of nodes whose π row k sets alone are read; this
    # compares that answer with a scan of every arc, at every level, for
    # candidates at, just above and just below the minimum mean, on
    # float rows, on float tables taken as integers (offsets of 2^-70
    # push the scaled entries past 2^53) and on an integer table
    instance = gen_mmcc_large_phi(4, 9)
    net = instance.realize(sample_costs(instance, 0))
    seen = {}
    for r in certificate_nets() + [residual(net, instance.starting_flow)]:
        arcs, _ = _scaled_arcs(r)
        present = range(len(arcs))
        search = full_table_search(r.node_count, arcs, present)
        table = [[0] * search.n]
        _extend(table, [search.table_arcs[a] for a in present], search.n, search.far)
        karp = search()
        if karp is None:
            continue
        mean = Fraction(karp[1], karp[2])
        for offset in (0, Fraction(1, 2**70), Fraction(1, 7 * search.n)):
            for near in {mean - offset, mean + offset}:
                for k in range(1, search.n + 1):
                    potentials = search._potentials(table[: k + 1], near.numerator, near.denominator)
                    _, frontier, _, num, _ = potentials
                    got = search._arcs_hold(*potentials)
                    assert (got, frontier) == full_arc_check(search, table[: k + 1], near)
                    if not search.floats:
                        kind = "integer table"
                    else:
                        kind = "float rows" if isinstance(num, float) else "integer rows"
                    seen.setdefault(kind, set()).add(got)
    assert seen == {kind: {False, True} for kind in ("float rows", "integer rows", "integer table")}
