"""Interchange format round-trips and parse failures."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flowlab.core import CostInterval, Edge, Flow, FlowNetwork, SmoothedInstance
from flowlab.formats import (
    ParseError,
    format_flow,
    format_network,
    format_smoothed,
    parse_flow,
    parse_network,
    parse_smoothed,
    read_dimacs,
    read_smoothed,
    write_dimacs,
    write_smoothed,
)
from flowlab.generators import (
    MmccGeneralParams,
    NsParams,
    gen_mmcc_general,
    gen_mmcc_large_phi,
    gen_ns_lower_bound,
    gen_random_smoothed,
)
from flowlab.netsimplex import SpanningTreeStructure


def test_minimal_network_parses():
    net = parse_network("p min 2 1\na 1 2 0 1 3\n")
    assert net.node_count == 2
    assert net.edge_count == 1
    e = net.edges[0]
    assert (e.tail, e.head, e.capacity, e.cost) == (0, 1, 1, 3)
    assert net.budgets == (0, 0)


def test_network_round_trip_with_rationals_and_inf():
    net = FlowNetwork.from_data(
        3,
        [(0, 1, Fraction(7, 2), Fraction(-1, 3)), (1, 2, None, 5, 0)],
        budgets=[Fraction(1, 2), 0, Fraction(-1, 2)],
    )
    text = format_network(net)
    assert "a 1 2 0 7/2 -1/3" in text
    assert "a 2 3 0 inf 5" in text
    assert "r 2 3 0" in text
    assert "n 2" not in text
    back = parse_network(text)
    assert back == net
    assert format_network(back) == text


def test_generator_outputs_round_trip(tmp_path):
    inst = gen_mmcc_general(MmccGeneralParams(6, 12, 64), 0)
    path = tmp_path / "general.min"
    write_dimacs(inst.network, path)
    back = read_dimacs(path)
    assert back == inst.network
    assert back.node_names == inst.network.node_names
    assert back.edge_labels == inst.network.edge_labels

    large = gen_mmcc_large_phi(4, 9, 0)
    write_smoothed(large, tmp_path / "large.min")
    got, structure = read_smoothed(tmp_path / "large.min")
    assert got == large
    assert structure is None
    assert got.network.node_names == large.network.node_names

    random_inst = gen_random_smoothed(6, 9, 32, 1)
    round_tripped, _ = parse_smoothed(format_smoothed(random_inst))
    assert round_tripped == random_inst


def test_smoothed_round_trip_with_structure(tmp_path):
    inst, structure = gen_ns_lower_bound(NsParams(6, 10, 64), 0)
    path = tmp_path / "ns.min"
    write_smoothed(inst, path, structure)
    got_inst, got_structure = read_smoothed(path)
    assert got_inst == inst
    assert got_structure == structure
    assert got_inst.starting_flow == inst.starting_flow
    text = format_smoothed(inst, structure)
    assert format_smoothed(got_inst, got_structure) == text


def test_zero_flow_distinct_from_missing_flow():
    net = FlowNetwork.from_data(2, [(0, 1, 1, 0)])
    bare = SmoothedInstance(
        network=net,
        intervals=(CostInterval(Fraction(0), Fraction(1)),),
        phi=Fraction(2),
    )
    assert parse_smoothed(format_smoothed(bare))[0].starting_flow is None

    parked = SmoothedInstance(
        network=net,
        intervals=(CostInterval(Fraction(0), Fraction(1)),),
        phi=Fraction(2),
        starting_flow=Flow.zero(1),
    )
    got = parse_smoothed(format_smoothed(parked))[0]
    assert got.starting_flow == Flow.zero(1)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_network("p min 2 1\na 1 2 0 1\n")
    assert err.value.line_number == 2

    with pytest.raises(ParseError) as err:
        parse_network("a 1 2 0 1 3\n")
    assert err.value.line_number == 1
    assert "before problem line" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_network("p min 2 1\np min 2 1\na 1 2 0 1 3\n")
    assert err.value.line_number == 2

    with pytest.raises(ParseError) as err:
        parse_network("p min 2 1\na 1 3 0 1 3\n")
    assert "out of range" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_network("p min 2 1\na 1 2 1 1 3\n")
    assert "lower bound" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_network("p min 2 1\na 1 2 0 bad 3\n")
    assert "capacity" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_network("p min 2 2\na 1 2 0 1 3\n")
    assert "declared 2 arcs, found 1" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_network("p min 2 1\na 1 2 0 1 3\nz 9\n")
    assert err.value.line_number == 3

    # smoothed-only tags stay errors in the plain reader
    with pytest.raises(ParseError):
        parse_network("p min 2 1\na 1 2 0 1 3\nphi 64\n")

    for text, line, reason in [
        ("p min x 1\n", 1, "bad node count 'x'"),
        ("p min 2 y\n", 1, "bad arc count 'y'"),
        ("p max 2 1\n", 1, "unsupported problem type 'max'"),
        ("p min 2 -1\n", 1, "negative size in problem line"),
        ("p min 2 0\nn 1 1\nn 1 -1\n", 3, "duplicate budget for node 1"),
        ("p min 2 1\na x 2 0 1 3\n", 2, "bad node id 'x'"),
        ("p min 2 1\na 1 2 0 1 3\na 2 1 0 1 3\n", 3, "more arcs than declared"),
        ("p min 2 2\na 1 2 0 1 3\na 1 2 0 2 4\n", 3, "duplicate arc 1 2"),
        ("", 0, "missing problem line"),
        ("c only a comment\n\n", 2, "missing problem line"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_network(text)
        assert (err.value.line_number, err.value.reason) == (line, reason)


def test_parse_smoothed_errors():
    base = "p min 2 1\na 1 2 0 1 3\n"
    with pytest.raises(ParseError) as err:
        parse_smoothed(base + "i 1 2 0 1\n")
    assert "missing phi" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_smoothed(base + "phi 64\n")
    assert "missing interval" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_smoothed(base + "phi 64\ni 2 1 0 1\n")
    assert "unknown arc" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_smoothed(base + "phi 64\ni 1 2 0 1\nf 1 2 1\nf 1 2 1\n")
    assert "duplicate flow" in str(err.value)

    for extra, line, reason in [
        ("phi 64\nphi 32\n", 4, "duplicate phi line"),
        ("phi 64\ni 1 2 0 1\ni 1 2 0 2\n", 5, "duplicate interval line"),
        ("phi 64\ni 1 2 0 1\nroot 1\nroot 2\n", 6, "duplicate root line"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_smoothed(base + extra)
        assert (err.value.line_number, err.value.reason) == (line, reason)


def test_parse_flow_errors_carry_line_numbers():
    net = parse_network("p min 2 1\na 1 2 0 1 3\n")
    for text, line, reason in [
        ("c a comment\nx 1 2 1\n", 2, "unexpected 'x' line"),
        ("f 2 1 1\n", 1, "unknown arc 2 1"),
        ("f 1 2 1\n\nf 1 2 0\n", 3, "duplicate flow line for arc 1 2"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_flow(text, net)
        assert (err.value.line_number, err.value.reason) == (line, reason)


def test_comments_are_ignored_but_names_harvested():
    text = (
        "c anything at all\n"
        "\n"
        "c node x not a node id\n"
        "c node 1 source node\n"
        "c node 2 sink\n"
        "c arc 1 2 main\n"
        "p min 2 1\n"
        "a 1 2 0 1 3\n"
    )
    net = parse_network(text)
    assert net.node_names == ("source node", "sink")
    assert net.edge_labels == ("main",)


rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
amounts = st.builds(Fraction, st.integers(0, 40), st.integers(1, 12))
# display names are whitespace-separated words, as the comment lines
# that carry them are read back
words = st.text("abcxyz019_-/", min_size=1, max_size=5)
display_names = st.lists(words, min_size=1, max_size=3).map(" ".join)


@st.composite
def networks(draw, min_edges=0):
    """A network with rational budgets and costs, ``inf`` capacities,
    leaving ranks, and optional node names and edge labels."""
    n = draw(st.integers(2, 6))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=min_edges, max_size=10, unique=True))
    edges = tuple(
        Edge(tail, head, draw(st.none() | amounts), draw(rationals), draw(st.integers(-2, 3)))
        for tail, head in chosen
    )
    names = draw(st.none() | st.lists(display_names, min_size=n, max_size=n).map(tuple))
    labels = None
    if edges:
        labels = draw(
            st.none() | st.lists(display_names, min_size=len(edges), max_size=len(edges)).map(tuple)
        )
    budgets = tuple(draw(st.lists(rationals, min_size=n, max_size=n)))
    return FlowNetwork(n, edges, budgets, names, labels)


def flows(net):
    return st.lists(amounts, min_size=net.edge_count, max_size=net.edge_count).map(
        lambda values: Flow(tuple(values))
    )


@settings(max_examples=150, deadline=None)
@given(networks())
def test_network_round_trip_property(net):
    back = parse_network(format_network(net))
    assert back == net
    assert back.node_names == net.node_names
    assert back.edge_labels == net.edge_labels


@st.composite
def smoothed_documents(draw):
    """A smoothed instance with a starting flow, and a structure that
    splits the edges into tree, lower and upper sets."""
    net = draw(networks(min_edges=1))
    intervals = tuple(
        CostInterval(draw(rationals), draw(amounts)) for _ in range(net.edge_count)
    )
    phi = draw(st.builds(Fraction, st.integers(1, 4096), st.integers(1, 4)))
    inst = SmoothedInstance(net, intervals, phi, draw(flows(net)))
    sets = draw(st.lists(st.sampled_from("tlu"), min_size=net.edge_count, max_size=net.edge_count))
    structure = SpanningTreeStructure(
        *(frozenset(e for e, kind in enumerate(sets) if kind == wanted) for wanted in "tlu"),
        root=draw(st.integers(0, net.node_count - 1)),
    )
    return inst, structure


@settings(max_examples=150, deadline=None)
@given(smoothed_documents())
def test_smoothed_round_trip_property(document):
    inst, structure = document
    back = parse_smoothed(format_smoothed(inst, structure))
    assert back == (inst, structure)
    assert back[0].network.node_names == inst.network.node_names
    assert back[0].network.edge_labels == inst.network.edge_labels


@settings(max_examples=150, deadline=None)
@given(networks().flatmap(lambda net: st.tuples(st.just(net), flows(net))))
def test_flow_round_trip_property(net_and_flow):
    net, flow = net_and_flow
    assert parse_flow(format_flow(net, flow), net) == flow
