import logging

import pytest

from dissoc.canon import canonical_form
from dissoc.generate import (
    FamilySpec,
    all_connected,
    all_graphs,
    all_trees,
    all_unicyclic,
    family_stream,
    ingest_graph6,
)
from dissoc.graph import Graph, complete_graph, path_graph, star_graph
from dissoc.graph6 import Graph6Error, to_graph6
from oracles import (
    all_labeled_trees,
    ir_unicyclic_stream,
    labeled_class_count,
    labeled_tree_class_count,
)


def canon_set(graphs):
    out = set()
    for g in graphs:
        key = canonical_form(g)
        assert key not in out, "duplicate isomorphism class emitted"
        out.add(key)
    return out


# -- trees ---------------------------------------------------------------------

# n = 8 canonicalises all 8^6 labelled Pruefer trees (about 28 s)
@pytest.mark.parametrize(
    "n", [*range(1, 8), pytest.param(8, marks=pytest.mark.slow)]
)
def test_tree_stream_matches_labeled_dedup_oracle(n):
    got = canon_set(all_trees(n))
    want = {canonical_form(t) for t in all_labeled_trees(n)}
    assert got == want
    assert len(got) == labeled_tree_class_count(n)


def test_tree_stream_small_examples():
    assert list(all_trees(1)) == [Graph(1)]
    four = list(all_trees(4))
    assert canon_set(four) == {
        canonical_form(path_graph(4)),
        canonical_form(star_graph(4)),
    }


def test_tree_stream_structure_and_determinism():
    first = list(all_trees(9))
    second = list(all_trees(9))
    assert first == second
    for t in first:
        assert t.is_tree() and t.n == 9


# -- unicyclic -----------------------------------------------------------------

@pytest.mark.parametrize("n", range(3, 7))
def test_unicyclic_stream_matches_labeled_dedup_oracle(n):
    want = labeled_class_count(
        n, keep=lambda g: g.is_connected() and g.cycle_space_dim() == 1
    )
    assert len(canon_set(all_unicyclic(n))) == want


@pytest.mark.parametrize("n", range(3, 11))
def test_unicyclic_stream_matches_ir_reference(n):
    """Dedup by unicyclic_key keeps exactly the candidates the IR canonical
    form keeps, in the same order and labelling."""
    got = [to_graph6(g) for g in all_unicyclic(n)]
    assert got == [to_graph6(g) for g in ir_unicyclic_stream(n)]


# OEIS A001429: connected unicyclic graphs on n nodes
A001429 = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657, 11: 1806, 12: 5026}


@pytest.mark.parametrize("n", sorted(A001429))
def test_unicyclic_class_counts_match_a001429(n):
    assert sum(1 for _ in all_unicyclic(n)) == A001429[n]


def test_unicyclic_stream_structure():
    for g in all_unicyclic(8):
        assert g.is_connected()
        assert g.edge_count() == 8
        assert g.cycle_space_dim() == 1
    assert list(all_unicyclic(3)) == [complete_graph(3)]


# -- general and connected -------------------------------------------------------

@pytest.mark.parametrize("n", range(0, 7))
def test_graph_stream_matches_labeled_dedup_oracle(n):
    assert len(canon_set(all_graphs(n))) == labeled_class_count(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_connected_stream_matches_labeled_dedup_oracle(n):
    want = labeled_class_count(n, keep=Graph.is_connected)
    got = canon_set(all_connected(n))
    assert len(got) == want
    for g in all_connected(n):
        assert g.is_connected()


def test_streams_are_restartable_and_deterministic():
    a = list(all_connected(5))
    b = list(all_connected(5))
    assert a == b
    assert list(all_graphs(5)) == list(all_graphs(5))


# -- caps and spec -----------------------------------------------------------------

@pytest.mark.parametrize(
    "family,order",
    [
        ("trees", 0),
        ("trees", 19),
        ("unicyclic", 2),
        ("unicyclic", 19),
        ("connected", 0),
        ("connected", 10),
        ("all", -1),
        ("all", 9),
    ],
)
def test_family_caps_rejected(family, order):
    with pytest.raises(ValueError):
        FamilySpec(family, order).validate()


def test_family_stream_dispatch():
    (t,) = family_stream(FamilySpec("trees", 3))
    assert canonical_form(t) == canonical_form(path_graph(3))
    with pytest.raises(ValueError):
        family_stream(FamilySpec("towers", 3))


# -- graph6 streams -----------------------------------------------------------------

def test_ingest_roundtrip_trees_order_6():
    lines = [to_graph6(t) + "\n" for t in all_trees(6)]
    back = list(ingest_graph6(lines))
    assert [canonical_form(g) for g in back] == [
        canonical_form(t) for t in all_trees(6)
    ]


def test_ingest_empty_and_banner():
    assert list(ingest_graph6([])) == []
    assert list(ingest_graph6([">>graph6<<\n", "\n"])) == []


def test_ingest_strict_reports_line_number():
    lines = ["A_\n", "garbage±\n", "A?\n"]
    with pytest.raises(Graph6Error, match="line 2"):
        list(ingest_graph6(lines, strict=True))


def test_ingest_lenient_skips_and_logs(caplog):
    lines = ["A_\n", "garbage±\n", "A?\n"]
    with caplog.at_level(logging.WARNING, logger="dissoc.generate"):
        out = list(ingest_graph6(lines, strict=False))
    assert len(out) == 2
    assert any("line 2" in rec.getMessage() for rec in caplog.records)
