import pytest
from hypothesis import given

from conftest import graphs
from dissoc.graph import (
    FALSE_TWIN,
    NEITHER,
    TRUE_TWIN,
    Graph,
    bits,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    star_graph,
    twin_status,
)


def test_constructor_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(65)


def test_bits_examples():
    assert list(bits(0b10110)) == [1, 2, 4]
    assert list(bits(0)) == []


def test_closed_neighborhood_examples():
    assert complete_graph(2).closed_neighborhood(0) == 0b11
    assert path_graph(3).closed_neighborhood(1) == 0b111
    assert Graph(1).closed_neighborhood(0) == 0b1
    assert path_graph(3).open_neighborhood(1) == 0b101
    with pytest.raises(ValueError):
        path_graph(3).closed_neighborhood(3)


def test_induced_subgraph_examples():
    c4 = cycle_graph(4)
    assert c4.induced_subgraph(0b0011) == complete_graph(2)
    assert c4.induced_subgraph(0b0101) == Graph(2)
    assert path_graph(5).induced_subgraph(0b00111) == path_graph(3)
    assert path_graph(5).induced_subgraph(0) == Graph(0)
    # deletion form
    assert path_graph(5).delete_vertices(0b11000) == path_graph(3)


def test_component_masks_examples():
    g = disjoint_union([complete_graph(2), Graph(1)])
    assert g.component_masks() == [0b011, 0b100]
    assert cycle_graph(5).component_masks() == [0b11111]
    assert Graph(3).component_masks() == [0b001, 0b010, 0b100]
    assert Graph(0).component_masks() == []


def test_cycle_space_dim():
    assert path_graph(7).cycle_space_dim() == 0
    assert star_graph(5).cycle_space_dim() == 0
    assert cycle_graph(5).cycle_space_dim() == 1
    assert complete_graph(4).cycle_space_dim() == 3
    two_triangles = disjoint_union([complete_graph(3), complete_graph(3)])
    assert two_triangles.cycle_space_dim() == 2


def test_twin_status_examples():
    k3 = complete_graph(3)
    assert twin_status(k3, 0, 1) == TRUE_TWIN
    assert twin_status(star_graph(4), 1, 2) == FALSE_TWIN
    assert twin_status(cycle_graph(5), 0, 1) == NEITHER
    with pytest.raises(ValueError):
        twin_status(k3, 1, 1)


def test_true_twins_become_false_twins_after_edge_deletion():
    k3 = complete_graph(3)
    assert twin_status(k3.without_edge(0, 1), 0, 1) == FALSE_TWIN


@given(graphs(max_n=8))
def test_adjacency_symmetric_and_irreflexive(g):
    for v in range(g.n):
        assert not g.adj[v] >> v & 1
        for u in bits(g.adj[v]):
            assert g.adj[u] >> v & 1


@given(graphs(max_n=8))
def test_components_partition_vertices(g):
    masks = g.component_masks()
    union = 0
    for m in masks:
        assert not (union & m)
        union |= m
    assert union == g.vertex_set
    assert sum(m.bit_count() for m in masks) == g.n


@given(graphs(min_n=1, max_n=7))
def test_relabel_reverse_is_involution(g):
    perm = list(reversed(range(g.n)))
    assert g.relabel(perm).relabel(perm) == g


@pytest.mark.parametrize("perm", [[0, 0], [1], [0, 1, 2], [1, 2]])
def test_relabel_rejects_a_list_that_is_no_permutation(perm):
    with pytest.raises(ValueError, match="not a permutation"):
        complete_graph(2).relabel(perm)


def test_edge_mutation_roundtrip():
    p4 = path_graph(4)
    assert p4.with_edge(0, 3) == cycle_graph(4)
    assert cycle_graph(4).without_edge(0, 3) == p4
    with pytest.raises(ValueError):
        p4.without_edge(0, 2)
