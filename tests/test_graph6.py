import random

import networkx as nx
import pytest
from hypothesis import given

from conftest import graphs
from dissoc.generate import all_trees
from dissoc.graph import Graph, complete_graph
from dissoc.graph6 import Graph6Error, from_graph6, to_graph6


def _nx_graph6(g: Graph) -> str:
    """Independent encoder: networkx implements the published format."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return nx.to_graph6_bytes(h, header=False).decode().strip()


def test_golden_small_graphs():
    assert from_graph6("A_") == complete_graph(2)
    assert to_graph6(complete_graph(2)) == "A_"
    assert to_graph6(Graph(1)) == "@"
    assert from_graph6("@") == Graph(1)
    assert to_graph6(Graph(0)) == "?"


@given(graphs(max_n=10))
def test_encoder_matches_published_implementation(g):
    assert to_graph6(g) == _nx_graph6(g)


@given(graphs(max_n=10))
def test_roundtrip_is_identity_on_adjacency(g):
    assert from_graph6(to_graph6(g)) == g


def test_roundtrip_all_trees_order_8():
    for t in all_trees(8):
        assert from_graph6(to_graph6(t)) == t


def test_roundtrip_over_generated_families():
    from dissoc.generate import all_connected, all_graphs, all_unicyclic

    streams = [all_trees(10), all_unicyclic(9), all_connected(7), all_graphs(7)]
    for stream in streams:
        for g in stream:
            assert from_graph6(to_graph6(g)) == g


def test_header_banner_is_stripped():
    assert from_graph6(">>graph6<<A_") == complete_graph(2)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        (":Fa@x^", "sparse6"),
        (";Fa@x^", "sparse6"),
        ("&A_", "digraph6"),
        ("\x1f??", "malformed header"),
        ("~??", "multi-byte"),
        ("~~??????", "8-byte"),
        ("~??}", "takes one byte"),
        ("~?\x1f~", "malformed header byte"),
        ("D", "truncated"),
        ("G??", "truncated"),
        ("A_?", "trailing garbage"),
    ],
)
def test_decode_errors_are_distinct(text, fragment):
    with pytest.raises(Graph6Error, match=fragment):
        from_graph6(text)


def test_nonzero_padding_rejected():
    # K_2 uses 1 data bit; force a nonzero padding bit below it
    bad = "A" + chr(63 + 0b100001)
    with pytest.raises(Graph6Error, match="padding"):
        from_graph6(bad)


def test_invalid_data_character_rejected():
    with pytest.raises(Graph6Error, match="invalid data character"):
        from_graph6("B\x20")


def test_order_cap_both_directions():
    with pytest.raises(Graph6Error, match="cap"):
        from_graph6("~?@@" + "?" * 347)
    big = Graph.from_adj((0,) * 65)
    with pytest.raises(Graph6Error, match="cap"):
        to_graph6(big)


@pytest.mark.parametrize("n", [0, 1, 2, 31, 32, 33, 62, 63, 64])
def test_roundtrip_with_networkx_up_to_the_cap(n):
    # these orders leave 0, 2, 3 or 5 padding bits, and cross from the
    # one-byte order header to the four-byte one at 63
    rng = random.Random(n)
    sparse = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3])
    for g in (Graph(n), sparse, complete_graph(n)):
        text = to_graph6(g)
        assert text == _nx_graph6(g)
        assert text.startswith("~") == (n >= 63)
        assert from_graph6(text) == g
