import random

import pytest

from dissoc.canon import canonical_form
from dissoc.counting import count, max_tree_count
from dissoc.families import star_join
from dissoc.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from dissoc.transforms import (
    EQUAL,
    STRICT_INCREASE,
    ComparisonRecord,
    delete_edge_check,
    find_quasi_pendants,
    quasi_pendant_transform,
    spanning_tree_chain,
)
from oracles import count_brute, random_graph

K1 = complete_graph(1)
K2 = complete_graph(2)


def test_delete_edge_check_examples():
    rec = delete_edge_check(complete_graph(3), 0, 1)
    assert rec.relation == EQUAL and rec.twins == "true-twin"
    assert rec.before == rec.after == 7

    rec = delete_edge_check(cycle_graph(5), 0, 1)
    assert (rec.before, rec.after) == (21, 24)
    assert rec.relation == STRICT_INCREASE and rec.twins == "neither"

    rec = delete_edge_check(path_graph(3), 0, 1)
    assert (rec.before, rec.after) == (7, 8)
    assert rec.relation == STRICT_INCREASE

    with pytest.raises(ValueError):
        delete_edge_check(path_graph(3), 0, 2)


def test_comparison_record_consistency_enforced():
    with pytest.raises(ValueError):
        ComparisonRecord((0, 1), 5, 5, STRICT_INCREASE, "neither")


def test_edge_deletion_never_decreases_exhaustive_n5():
    from dissoc.generate import all_graphs

    for n in range(2, 6):
        for g in all_graphs(n):
            for u, v in g.edges():
                rec = delete_edge_check(g, u, v)
                assert rec.after >= rec.before
                assert (rec.relation == EQUAL) == (rec.twins == "true-twin")


def test_find_quasi_pendants_examples():
    assert find_quasi_pendants(star_graph(4)) == [(0, (1, 2, 3))]
    assert find_quasi_pendants(path_graph(4)) == [(1, (0,)), (2, (3,))]
    assert find_quasi_pendants(cycle_graph(5)) == []


def test_quasi_pendant_transform_star_with_four_leaves():
    # order-5 star: 21 dissociation sets; rewired to two length-2 legs: 24
    s5 = star_graph(5)
    out = quasi_pendant_transform(s5, 0)
    assert count_brute(s5) == 21
    assert count_brute(out) == 24
    assert canonical_form(out) == canonical_form(star_join(1, [K2, K2]))


def test_quasi_pendant_transform_star_with_five_leaves():
    # order-6 star rewired to two legs plus one kept pendant
    s6 = star_graph(6)
    out = quasi_pendant_transform(s6, 0)
    assert count_brute(s6) == 38
    assert count_brute(out) == 44
    assert canonical_form(out) == canonical_form(star_join(1, [K2, K2, K1]))


def test_quasi_pendant_transform_degenerate_two_leaf_star():
    # P_3 is its own rewiring: the lone equality boundary of the transform
    p3 = star_graph(3)
    out = quasi_pendant_transform(p3, 0)
    assert canonical_form(out) == canonical_form(p3)
    assert count_brute(out) == count_brute(p3) == 7


def test_quasi_pendant_transform_strict_with_outside_neighbour():
    # spider: two pendants on a vertex that also reaches the rest of the graph
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
    out = quasi_pendant_transform(g, 0)
    assert out.n == g.n
    assert count_brute(g) < count_brute(out)


def test_quasi_pendant_transform_preserves_far_degrees():
    g = Graph(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6)])
    out = quasi_pendant_transform(g, 0)
    assert out.n == g.n
    untouched = [4, 5, 6]
    for v in untouched:
        assert out.degree(v) == g.degree(v)


def test_quasi_pendant_transform_errors():
    with pytest.raises(ValueError):
        quasi_pendant_transform(path_graph(4), 0)  # pendant, not quasi-pendant
    with pytest.raises(ValueError):
        quasi_pendant_transform(path_graph(4), 1)  # only one pendant neighbour


def test_quasi_pendant_strictness_on_random_graphs():
    """Rewiring strictly increases counts when the site has an outside
    neighbour (500 seeded random graphs)."""
    rng = random.Random(97)
    found = 0
    while found < 500:
        g = random_graph(rng, rng.randint(5, 10), rng.uniform(0.1, 0.4))
        sites = [
            (v, p)
            for v, p in find_quasi_pendants(g)
            if len(p) >= 2 and g.degree(v) > len(p)
        ]
        if not sites:
            continue
        found += 1
        v, _ = sites[0]
        assert count(quasi_pendant_transform(g, v)) > count(g)


def test_spanning_tree_chain_examples():
    assert spanning_tree_chain(path_graph(5)) == []

    records = spanning_tree_chain(cycle_graph(4))
    assert len(records) == 1
    assert (records[0].before, records[0].after) == (11, 13)

    records = spanning_tree_chain(complete_graph(4))
    assert len(records) == 3
    counts = [records[0].before] + [r.after for r in records]
    assert counts == sorted(counts)

    with pytest.raises(ValueError):
        spanning_tree_chain(Graph(2))


def test_spanning_tree_chain_reaches_tree_below_tree_maximum():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, 0.5)
        if not g.is_connected():
            continue
        records = spanning_tree_chain(g)
        assert len(records) == g.cycle_space_dim()
        final = g
        for rec in records:
            final = final.without_edge(*rec.edge)
        assert final.is_tree() and final.n == g.n
        counts = [count(g)] + [r.after for r in records]
        assert counts == sorted(counts)
        assert counts[-1] <= max_tree_count(n)
