import pytest
from hypothesis import given
from hypothesis import strategies as st

from dissoc.canon import canonical_form
from dissoc.counting import count, max_tree_count, max_unicyclic_count
from dissoc.families import (
    complete_multipartite,
    extremal_trees,
    extremal_unicyclic,
    is_complete_multipartite_small_parts,
    is_union_of_vertices_and_edges,
    pendant_cycle,
    star_join,
)
from dissoc.graph import (
    FALSE_TWIN,
    TRUE_TWIN,
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    twin_status,
)
from oracles import count_brute

K1 = complete_graph(1)
K2 = complete_graph(2)
K3 = complete_graph(3)


def iso(a: Graph, b: Graph) -> bool:
    return canonical_form(a) == canonical_form(b)


def test_star_join_shape_and_counts():
    g = star_join(1, [K2, K2])
    assert iso(g, path_graph(5))
    assert count(g) == max_tree_count(5) == 24

    u6 = star_join(1, [K3, K2])
    assert count(u6) == 42 and iso(u6, extremal_unicyclic(6))

    u7 = star_join(3, [K2, K2])
    assert iso(u7, extremal_unicyclic(7))


def test_star_join_hub_structure():
    g = star_join(3, [K2, K3, K1])
    # hub vertex 0: clique neighbours plus one attachment per part
    assert g.degree(0) == 2 + 3
    assert g.n == 3 + 2 + 3 + 1
    # removing the hub vertex disconnects the parts from the rest
    rest = g.delete_vertices(1)
    assert [m.bit_count() for m in rest.component_masks()] == [2, 2, 3, 1]


def test_star_join_empty_parts_and_errors():
    assert star_join(4, []) == complete_graph(4)
    with pytest.raises(ValueError):
        star_join(0, [K2])
    with pytest.raises(ValueError):
        star_join(1, [Graph(0)])


def test_star_join_respects_attachment_vertex():
    g = star_join(1, [(path_graph(3), 1)])
    # hub attached to the path centre: the star K_{1,3}
    assert iso(g, star_join(1, [K1, K1, K1]))


def test_extremal_trees_families():
    assert [iso(t, star_join(1, [K2] * 3)) for t in extremal_trees(7)] == [True]
    six = extremal_trees(6)
    assert len(six) == 2
    assert len({canonical_form(t) for t in six}) == 2
    forms = {canonical_form(t) for t in six}
    assert canonical_form(path_graph(6)) in forms
    assert canonical_form(star_join(2, [K2, K2])) in forms
    assert extremal_trees(2) == [K2]
    assert count(K2) == max_tree_count(2) == 4
    assert extremal_trees(1) == [K1]
    with pytest.raises(ValueError):
        extremal_trees(0)


@pytest.mark.parametrize("n", range(1, 26))
def test_extremal_trees_are_trees_with_max_count(n):
    for t in extremal_trees(n):
        assert t.n == n and t.is_tree()
        assert count(t) == max_tree_count(n)


@pytest.mark.parametrize("n", range(3, 26))
def test_extremal_unicyclic_shape_and_count(n):
    u = extremal_unicyclic(n)
    assert u.n == n and u.is_connected() and u.cycle_space_dim() == 1
    assert count(u) == max_unicyclic_count(n)


def test_extremal_unicyclic_examples():
    assert extremal_unicyclic(3) == K3
    assert count(extremal_unicyclic(6)) == 42
    assert iso(extremal_unicyclic(9), star_join(3, [K2] * 3))
    assert count(extremal_unicyclic(9)) == 292
    with pytest.raises(ValueError):
        extremal_unicyclic(2)


def _false_twin_pairs(t: Graph):
    return [
        (u, v) for u in range(t.n) for v in range(u + 1, t.n)
        if twin_status(t, u, v) == FALSE_TWIN
    ]


@pytest.mark.parametrize("n", [n for n in range(2, 21) if n != 3])
def test_no_false_twins_in_extremal_trees(n):
    for t in extremal_trees(n):
        assert _false_twin_pairs(t) == []


def test_order_3_extremal_tree_has_false_twins():
    # the lone exception: the leaves of P_3 share their neighbourhood, which
    # is why K_3 ties the tree maximum among connected order-3 graphs
    (t,) = extremal_trees(3)
    assert _false_twin_pairs(t) == [(0, 2)]


@pytest.mark.parametrize("n", [n for n in range(4, 21) if n != 6])
def test_exactly_one_true_twin_pair_in_extremal_unicyclic(n):
    u = extremal_unicyclic(n)
    pairs = [
        (a, b) for a in range(n) for b in range(a + 1, n)
        if twin_status(u, a, b) == TRUE_TWIN
    ]
    assert len(pairs) == 1


def test_pendant_cycle_examples():
    assert pendant_cycle(3, [None, None, None]) == K3
    paw = pendant_cycle(3, [K2, None, None])
    assert paw.n == 4 and iso(paw, star_join(3, [K1]))
    c4 = pendant_cycle(4, [None] * 4)
    assert c4 == cycle_graph(4)
    assert count(c4) == 11


def test_pendant_cycle_with_trees():
    g = pendant_cycle(5, [path_graph(3), None, (path_graph(2), 1), None, None])
    assert g.n == 5 + 2 + 1
    assert g.is_connected() and g.cycle_space_dim() == 1
    # the cycle slots stay an induced C_5
    assert g.induced_subgraph((1 << 5) - 1) == cycle_graph(5)


def test_pendant_cycle_errors():
    with pytest.raises(ValueError):
        pendant_cycle(2, [None, None])
    with pytest.raises(ValueError):
        pendant_cycle(3, [None, None])
    with pytest.raises(ValueError):
        pendant_cycle(3, [cycle_graph(3), None, None])


def test_complete_multipartite_examples():
    assert iso(complete_multipartite([2, 2]), cycle_graph(4))
    assert count(complete_multipartite([2, 2])) == 11
    assert complete_multipartite([1, 1, 1]) == K3
    assert count(complete_multipartite([2, 2, 1])) == 16
    with pytest.raises(ValueError):
        complete_multipartite([])
    with pytest.raises(ValueError):
        complete_multipartite([2, 0])


@given(st.lists(st.integers(1, 2), min_size=1, max_size=5))
def test_small_part_multipartite_hits_lower_bound(parts):
    g = complete_multipartite(parts)
    n = g.n
    assert count_brute(g) == (n * n + n + 2) // 2
    assert is_complete_multipartite_small_parts(g)


def test_equality_family_predicates():
    assert is_complete_multipartite_small_parts(cycle_graph(4))
    assert not is_complete_multipartite_small_parts(path_graph(4))
    assert is_union_of_vertices_and_edges(disjoint_union([K2, K1, K2]))
    assert not is_union_of_vertices_and_edges(path_graph(3))
