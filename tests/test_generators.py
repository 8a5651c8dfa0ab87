"""Instance family construction: shapes, intervals, budgets, trees."""

import hashlib
import random
from fractions import Fraction

import pytest

from flowlab.core import check_feasible, residual, validate_network
from flowlab.generators import (
    MmccGeneralParams,
    NsParams,
    ParamViolation,
    _bipartite_pairs,
    floor_log2,
    gen_mmcc_general,
    gen_mmcc_large_phi,
    gen_ns_lower_bound,
    gen_random_smoothed,
    predicted_mmcc_general_iterations,
    predicted_mmcc_large_phi_iterations,
    predicted_ns_nondegenerate_pivots,
    predicted_ns_pivots,
    sample_costs,
    strip_q_chain,
)
from flowlab.core import CostInterval, SmoothedInstance, FlowNetwork
from flowlab.formats import format_smoothed
from flowlab.netsimplex import ns_solve, tree_flow, validate_structure
from flowlab.ssp import ssp_solve, zero_budget_copy


def test_floor_log2_values():
    assert floor_log2(1) == 0
    assert floor_log2(64) == 6
    assert floor_log2(Fraction(3, 2)) == 0
    assert floor_log2(Fraction(1, 2)) == -1
    assert floor_log2(255) == 7
    assert floor_log2(256) == 8
    assert floor_log2(Fraction(1, 3)) == -2
    for p in range(1, 65):
        for r in range(1, 65):
            q = Fraction(p, r)
            e = floor_log2(q)
            assert 2**e <= q < 2 ** (e + 1)
    with pytest.raises(ValueError):
        floor_log2(0)


def test_mmcc_general_params_validation_and_counts():
    with pytest.raises(ParamViolation):
        MmccGeneralParams(0, 1, 64)
    with pytest.raises(ParamViolation):
        MmccGeneralParams(4, 3, 64)
    with pytest.raises(ParamViolation):
        MmccGeneralParams(4, 17, 64)
    with pytest.raises(ParamViolation):
        MmccGeneralParams(4, 9, 63)
    assert (MmccGeneralParams(6, 12, 64).w_count, MmccGeneralParams(6, 12, 64).x_count) == (1, 0)
    assert (MmccGeneralParams(8, 16, 256).w_count, MmccGeneralParams(8, 16, 256).x_count) == (2, 1)
    p = MmccGeneralParams(8, 16, 1024)
    assert (p.w_count, p.x_count) == (3, 2)
    # the two ladder sizes never differ by more than one
    for phi in (64, 128, 256, 512, 1024):
        q = MmccGeneralParams(8, 16, phi)
        assert q.x_count in (q.w_count, q.w_count - 1)


def test_bipartite_pairs_cover_both_sides():
    for seed in range(5):
        pairs = _bipartite_pairs(5, 11, seed)
        assert len(pairs) == len(set(pairs)) == 11
        assert {i for i, _ in pairs} == set(range(5))
        assert {j for _, j in pairs} == set(range(5))
    assert _bipartite_pairs(5, 11, 3) == _bipartite_pairs(5, 11, 3)
    assert _bipartite_pairs(5, 11, 3) != _bipartite_pairs(5, 11, 4)


def test_gen_mmcc_general_shape_and_feasibility():
    inst = gen_mmcc_general(MmccGeneralParams(6, 12, 64), 0)
    net = inst.network
    assert net.node_count == 17
    assert net.edge_count == 12 + 4 * 6 + 2 * 1 + 2 * 0
    assert sum(net.budgets) == 0
    assert check_feasible(net, inst.starting_flow) is None
    assert validate_network(net) is None
    assert all(iv.width == Fraction(1, 64) for iv in inst.intervals)
    # expensive rung interval sits just below its power of two
    rung = [e for e, lab in zip(net.edges, net.edge_labels) if lab == "a_w"]
    assert len(rung) == 1
    idx = net.edges.index(rung[0])
    assert inst.intervals[idx].hi == 1  # 2**(2-2*1)
    assert inst.intervals[idx].lo == 1 - Fraction(1, 64)

    other = gen_mmcc_general(MmccGeneralParams(4, 9, 64), 0)
    assert other.network.node_count == 4 + 8 + 1


def test_gen_mmcc_general_residual_shows_negative_return_edges():
    inst = gen_mmcc_general(MmccGeneralParams(6, 12, 64), 0)
    costs = sample_costs(inst, 0)
    net = inst.realize(costs)
    r = residual(net, inst.starting_flow)
    a = net.node_names.index("a")
    w1 = net.node_names.index("w1")
    back = [e for e in r.edges if e.tail == w1 and e.head == a]
    assert len(back) == 1
    assert -1 <= back[0].cost <= -1 + Fraction(1, 64)
    assert back[0].capacity == 12


def test_gen_mmcc_large_phi_shape():
    inst = gen_mmcc_large_phi(4, 9, 0)
    net = inst.network
    assert inst.phi == 6400000
    assert net.node_count == 6 + 4 * 4 + 2 * 3
    assert sum(net.budgets) == 0
    assert check_feasible(net, inst.starting_flow) is None
    # the cheapest x-side rung still clears zero by more than 1/phi
    lows = [
        inst.intervals[i].lo
        for i, lab in enumerate(net.edge_labels)
        if lab == "c_x"
    ]
    assert min(lows) > 0
    path_edges = [lab for lab in net.edge_labels if lab == "a_path"]
    assert len(path_edges) == 4
    with pytest.raises(ParamViolation):
        gen_mmcc_large_phi(3, 9)
    with pytest.raises(ParamViolation):
        gen_mmcc_large_phi(4, 17)


def test_mmcc_family_bytes_are_pinned():
    # node ids, names, labels, edge order, intervals, budgets and
    # starting flows of both two-ladder families, over a grid of sizes
    digest = hashlib.sha256()
    for n in range(1, 7):
        for m in sorted({n, n + 1, 2 * n, n * n}):
            if not n <= m <= n * n:
                continue
            for phi in (64, 128, 256, 1000, 4096, 2 ** 14):
                for seed in range(3):
                    inst = gen_mmcc_general(MmccGeneralParams(n, m, phi), seed)
                    digest.update(format_smoothed(inst).encode())
    for n in range(4, 8):
        for m in sorted({n, 2 * n, n * n}):
            for seed in range(3):
                digest.update(format_smoothed(gen_mmcc_large_phi(n, m, seed)).encode())
    assert digest.hexdigest() == (
        "d1dd90f3d1e2811674fb447e281a845e76c499bf843e42b4d0f32a37ffde89e5"
    )


def test_ns_lower_bytes_are_pinned():
    # names, edges, level capacities, budgets, starting flow and tree of
    # the pivot-forcing family at 1, 3 and 7 levels
    digest = hashlib.sha256()
    for n in range(2, 7):
        for m in sorted({n, 2 * n, n * n}):
            if not n <= m <= n * n:
                continue
            for phi in (64, 256, 4096):
                for seed in range(2):
                    inst = gen_ns_lower_bound(NsParams(n, m, phi), seed)
                    digest.update(format_smoothed(*inst).encode())
    assert digest.hexdigest() == (
        "58bfae34ee76a540f12438e8060268d2b00bc40f35191711239d235c6ace75c1"
    )


def test_ns_params_and_structure():
    p = NsParams(6, 10, 64)
    assert p.level_count == 1
    assert p.chain_length == 6
    inst, structure = gen_ns_lower_bound(p, 0)
    net = inst.network
    assert net.node_count == 52
    assert net.edge_count == 83
    assert len(structure.tree_edges) == 51
    assert structure.upper == frozenset()
    assert validate_structure(net, structure) is None
    # starting flow is the tree flow: everything parked on the detour
    assert tree_flow(net, structure) == inst.starting_flow
    on_chain = [v for v, lab in zip(inst.starting_flow.values, net.edge_labels) if lab == "chain_q"]
    off_chain = [v for v, lab in zip(inst.starting_flow.values, net.edge_labels) if lab != "chain_q"]
    assert all(v == 120 for v in on_chain)
    assert all(v == 0 for v in off_chain)
    assert predicted_ns_pivots(inst) == 120
    # bipartite edges break pivot ties first; everything else is neutral
    for e, lab in zip(net.edges, net.edge_labels):
        assert e.leaving_rank == (0 if lab == "uw" else 1)


def test_ns_level_capacities_double():
    p = NsParams(6, 10, 256)
    assert p.level_count == 3
    inst, structure = gen_ns_lower_bound(p, 0)
    net = inst.network
    rails = [e.capacity for e, lab in zip(net.edges, net.edge_labels) if lab == "rail_s"]
    assert rails == [Fraction(10), Fraction(20)]
    top = {e.capacity for e, lab in zip(net.edges, net.edge_labels) if lab == "supply_a"}
    assert top == {Fraction(40)}
    assert predicted_ns_pivots(inst) == 2 * 6 * 40
    assert validate_structure(net, structure) is None
    assert tree_flow(net, structure) == inst.starting_flow


@pytest.mark.parametrize(
    "n, m, phi, count",
    [(6, 10, 64, 120), (10, 40, 128, 1600), (20, 40, 64, 1120)],
    ids=["n_side", "n_side_phi_128", "phi_side"],
)
def test_ns_nondegenerate_closed_form_matches_a_solve(n, m, phi, count):
    # M = min(n, phi/4 - 2) takes its n side on the first two rows and
    # its phi side (14 < 20) on the last; SSP on the detour-free twin
    # takes one step per non-degenerate pivot
    params = NsParams(n, m, phi)
    assert predicted_ns_nondegenerate_pivots(params) == count
    inst, structure = gen_ns_lower_bound(params, 0)
    assert predicted_ns_pivots(inst) == count
    trace = ns_solve(inst.realize(sample_costs(inst, 0)), structure)
    assert trace.nondegenerate_count == count
    twin = strip_q_chain(inst)
    names = twin.network.node_names
    twin_net = zero_budget_copy(twin.realize(sample_costs(twin, 0)))
    twin_trace = ssp_solve(twin_net, names.index("s"), names.index("t"), count)
    assert twin_trace.step_count == count


def test_ns_nondegenerate_closed_form_matches_the_built_demand():
    # phi that is not a power of two is rounded down, as the levels are
    for n, m, phi in [(4, 4, 64), (4, 16, 100), (9, 20, 256), (12, 30, 300), (30, 31, 128)]:
        params = NsParams(n, m, phi)
        inst, _ = gen_ns_lower_bound(params, 1)
        assert predicted_ns_nondegenerate_pivots(params) == predicted_ns_pivots(inst)


def test_strip_q_chain_keeps_ids_and_prefix():
    inst, _ = gen_ns_lower_bound(NsParams(6, 10, 64), 0)
    twin = strip_q_chain(inst)
    assert twin.network.node_count == 40
    assert twin.network.edge_count == 70
    assert twin.network.edges == inst.network.edges[:70]
    assert twin.network.budgets == inst.network.budgets[:40]
    assert twin.starting_flow is None
    assert twin.intervals == inst.intervals[:70]
    # cost sampling commutes with the trim
    assert sample_costs(twin, 5) == sample_costs(inst, 5)[:70]

    nameless = SmoothedInstance(
        network=FlowNetwork.from_data(2, [(0, 1, 1, 0)]),
        intervals=(CostInterval(Fraction(0), Fraction(1)),),
        phi=Fraction(1),
    )
    with pytest.raises(ValueError):
        strip_q_chain(nameless)


def test_sample_costs_bounds_and_determinism():
    inst = gen_mmcc_general(MmccGeneralParams(6, 12, 64), 0)
    a = sample_costs(inst, 7)
    b = sample_costs(inst, 7)
    c = sample_costs(inst, 8)
    assert a == b
    assert a != c
    for cost, iv in zip(a, inst.intervals):
        assert iv.lo <= cost < iv.hi


def test_sample_costs_degenerate_interval():
    inst = SmoothedInstance(
        network=FlowNetwork.from_data(2, [(0, 1, 1, 5)]),
        intervals=(CostInterval(Fraction(5), Fraction(0)),),
        phi=Fraction(1),
    )
    assert sample_costs(inst, 0) == (Fraction(5),)
    assert sample_costs(inst, 99) == (Fraction(5),)


def test_sample_costs_empirical_mean():
    inst = SmoothedInstance(
        network=FlowNetwork.from_data(2, [(0, 1, 1, 0)]),
        intervals=(CostInterval(Fraction(0), Fraction(1)),),
        phi=Fraction(1),
    )
    total = 0.0
    trials = 100000
    for seed in range(trials):
        total += float(sample_costs(inst, seed)[0])
    mean = total / trials
    sigma = (1 / 12) ** 0.5 / trials ** 0.5
    assert abs(mean - 0.5) <= 3 * sigma


def test_gen_random_smoothed_contract():
    inst = gen_random_smoothed(6, 9, 32, 4)
    net = inst.network
    assert validate_network(net) is None
    assert sum(net.budgets) == 0
    assert all(iv.width == Fraction(1, 32) for iv in inst.intervals)
    assert all(0 <= iv.lo <= 1 - Fraction(1, 32) for iv in inst.intervals)
    assert all(1 <= e.capacity <= 10 for e in net.edges)
    assert gen_random_smoothed(6, 9, 32, 4) == inst
    assert gen_random_smoothed(6, 9, 32, 5) != inst

    with pytest.raises(ParamViolation):
        gen_random_smoothed(1, 1, 32, 0)
    with pytest.raises(ParamViolation):
        gen_random_smoothed(4, 7, 32, 0)
    with pytest.raises(ParamViolation):
        gen_random_smoothed(4, 5, Fraction(1, 2), 0)


def test_gen_random_smoothed_connected_when_enough_edges():
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randint(3, 8)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        inst = gen_random_smoothed(n, m, 16, rng.randint(0, 10 ** 6))
        parent = list(range(n))

        def find(z):
            while parent[z] != z:
                parent[z] = parent[parent[z]]
                z = parent[z]
            return z

        for e in inst.network.edges:
            parent[find(e.tail)] = find(e.head)
        assert len({find(v) for v in range(n)}) == 1


def test_predicted_iteration_helpers():
    assert predicted_mmcc_general_iterations(MmccGeneralParams(6, 12, 64)) == 12
    assert predicted_mmcc_general_iterations(MmccGeneralParams(8, 16, 256)) == 48
    assert predicted_mmcc_large_phi_iterations(4, 9) == 72
