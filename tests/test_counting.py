import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import forests, graphs, one_cycle_graphs
from dissoc import counting
from dissoc.counting import (
    branch_partition,
    count,
    count_cycle,
    count_path,
    count_star,
    dissociation_polynomial,
    is_dissociation,
    max_tree_count,
    max_unicyclic_count,
    subset_bound,
)
from dissoc.families import extremal_trees, extremal_unicyclic, pendant_cycle
from dissoc.generate import all_connected, all_graphs, all_trees, all_unicyclic
from dissoc.graph import (
    Graph,
    bits,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    star_graph,
)
from oracles import (
    brute_polynomial,
    count_brute,
    graph_from_pruefer,
    random_gnm,
    random_graph,
)


def test_is_dissociation_examples():
    p3 = path_graph(3)
    assert not is_dissociation(p3, 0b111)
    assert is_dissociation(p3, 0)
    assert is_dissociation(cycle_graph(4), 0b0011)
    assert is_dissociation(cycle_graph(4), 0b0101)
    with pytest.raises(ValueError):
        is_dissociation(p3, 0b1000)


def test_count_brute_examples():
    assert count_brute(Graph(1)) == 2
    assert count_brute(complete_graph(3)) == 7
    assert count_brute(path_graph(9)) == 274
    with pytest.raises(ValueError):
        count_brute(Graph(25))
    with pytest.raises(ValueError):
        brute_polynomial(Graph(25))


DIAMOND = complete_graph(4).without_edge(0, 1)

# One-cycle graphs: the plain rings K_3 and C_4; a paw and a lollipop whose
# tail end is vertex 0, so the walk starts off the ring; a diamond beside an
# isolated vertex, after and before it, whose whole mask has degree sum
# 2|V| though the walked component has two cycles; a ring before a tree
RING_CASES = [
    complete_graph(3),
    cycle_graph(4),
    Graph(4, [(0, 1), (1, 2), (2, 3), (3, 1)]),
    Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 2)]),
    disjoint_union([DIAMOND, Graph(1)]),
    disjoint_union([Graph(1), DIAMOND]),
    disjoint_union([cycle_graph(5), path_graph(3)]),
]

# Disconnected graphs with |V| - 1 edges and a cycle, whose degree sum
# alone reads like a tree's, with the isolated vertices after and before the
# cycle, then the ring cases, then the graphs on 0, 1 and 2 vertices
ENGINE_EDGE_CASES = [
    disjoint_union([complete_graph(3), Graph(1)]),
    disjoint_union([Graph(1), complete_graph(3)]),
    disjoint_union([cycle_graph(5), Graph(1)]),
    disjoint_union([Graph(1), cycle_graph(5)]),
    disjoint_union([complete_graph(4), Graph(3)]),
    disjoint_union([Graph(3), complete_graph(4)]),
    *RING_CASES,
    Graph(0),
    Graph(1),
    Graph(2),
    complete_graph(2),
]


def with_edge_cases(test):
    """Run a hypothesis test on every engine edge case too."""
    for g in ENGINE_EDGE_CASES:
        test = example(g)(test)
    return test


def test_count_examples():
    assert count(path_graph(10)) == 504
    assert count(path_graph(11)) == 927
    assert count(disjoint_union([complete_graph(2), Graph(1)])) == 8
    assert count(Graph(0)) == 1
    assert count(Graph(2)) == count(complete_graph(2)) == 4
    assert [count(g) for g in ENGINE_EDGE_CASES[:6]] == [14, 14, 42, 42, 88, 88]
    assert [count(g) for g in RING_CASES] == [7, 11, 12, 38, 22, 22, 147]


@given(graphs(max_n=9))
@with_edge_cases
def test_engine_matches_brute_oracle(g):
    assert count(g) == count_brute(g)


def test_engine_matches_brute_on_seeded_midsize_sample():
    rng = random.Random(4242)
    for _ in range(60):
        g = random_graph(rng, rng.randint(10, 13), rng.uniform(0.1, 0.9))
        assert count(g) == count_brute(g)


def _plain(g):
    """The engine with a fresh memo, never the parent's."""
    return counting._count_mask(g.adj, g.vertex_set, {}, 0)


def _child(h, mask):
    """h plus a new last vertex adjacent to the vertices of mask."""
    return Graph(h.n + 1, [*h.edges(), *((u, h.n) for u in bits(mask))])


def _check_siblings(graphs, reference):
    """Count the graphs in order against the reference, and check that the
    shared memo holds only masks of the parent of the last graph it serves."""
    for g in graphs:
        assert count(g) == reference(g)
        rows, memo = counting._parent
        assert all(m >> len(rows) == 0 for m in memo)


@pytest.mark.parametrize("n", range(0, 7))
def test_graph_stream_counts_match_brute(n):
    _check_siblings(all_graphs(n), count_brute)


@pytest.mark.parametrize("n", range(1, 8))
def test_connected_stream_counts_match_brute(n):
    _check_siblings(all_connected(n), count_brute)


@pytest.mark.parametrize(
    "stream, n",
    [(all_graphs, 8), (all_connected, 8), pytest.param(all_connected, 9, marks=pytest.mark.slow)],
)
def test_stream_counts_match_plain_engine(stream, n):
    _check_siblings(stream(n), _plain)


def test_siblings_share_their_parent_memo():
    h = complete_graph(5)
    first, second = _child(h, 0b111), _child(h, 0b11100)
    count(first)
    assert counting._parent == (h.adj, {})
    count(second)
    rows, memo = counting._parent
    assert rows == h.adj and memo
    assert all(m < 1 << 5 for m in memo)


def _sibling_orders(h, children, others, data):
    """The children of h in order, shuffled, and shuffled among unrelated
    graphs and h itself."""
    yield children
    yield data.draw(st.permutations(children))
    yield data.draw(st.permutations([*children, *others, h]))


@given(
    graphs(max_n=10),
    st.lists(st.sets(st.integers(0, 9)), min_size=1, max_size=8),
    st.lists(graphs(max_n=9), max_size=4),
    st.data(),
)
def test_siblings_in_any_order_match_brute(h, vertex_sets, others, data):
    children = [_child(h, sum(1 << u for u in vs if u < h.n)) for vs in vertex_sets]
    for order in _sibling_orders(h, children, others, data):
        _check_siblings(order, count_brute)


@settings(max_examples=20)
@given(
    st.integers(0, 2**32),
    st.integers(62, 80),
    st.lists(st.sets(st.integers(0, 62), min_size=2, max_size=8), min_size=1, max_size=6),
    st.data(),
)
def test_siblings_of_a_63_vertex_parent_match_plain_engine(seed, m, vertex_sets, data):
    rng = random.Random(seed)
    h = random_gnm(rng, 63, m)
    others = [random_gnm(rng, 64, m), random_gnm(rng, 63, m)]
    children = [_child(h, sum(1 << u for u in vs)) for vs in vertex_sets]
    for order in _sibling_orders(h, children, others, data):
        _check_siblings(order, _plain)


def test_polynomial_of_a_sibling_after_its_count():
    h = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    for mask in (0b000111, 0b101010, 0b110011):
        g = _child(h, mask)
        assert count(g) == count_brute(g)
        assert dissociation_polynomial(g) == brute_polynomial(g)


def _check_counts(graphs, reference):
    for g in graphs:
        assert count(g) == reference(g)


def _brute_or_plain(g):
    return count_brute(g) if g.n <= 10 else _plain(g)


@pytest.mark.parametrize(
    "n", [*range(3, 17), *(pytest.param(n, marks=pytest.mark.slow) for n in (17, 18))]
)
def test_tree_counts_in_stream_order_match_plain_engine(n):
    trees = list(all_trees(n))
    _check_counts(trees, _plain)
    if n <= 9:
        _check_counts(trees, count_brute)


def _tree_from_parents(parents):
    """The tree on len(parents) + 1 vertices in which vertex i + 1 hangs
    from parents[i]."""
    return Graph(len(parents) + 1, [(p, v) for v, p in enumerate(parents, 1)])


@st.composite
def _preorder_parents(draw, keep=(), max_n=18):
    """Parents of a tree in preorder, keeping the prefix ``keep``: each new
    vertex hangs from a vertex on the path from its predecessor to the
    root."""
    parents = list(keep)
    path = [0]
    for v, p in enumerate(parents, 1):
        path = path[: path.index(p) + 1] + [v]
    for v in range(len(parents) + 1, draw(st.integers(len(parents) + 1, max_n))):
        path = path[: draw(st.integers(0, len(path) - 1)) + 1]
        parents.append(path[-1])
        path.append(v)
    return parents


@st.composite
def _mixed_tree_inputs(draw):
    """Trees in preorder that share prefixes of their parents, mixed with
    the same trees relabelled, graphs with n - 1 edges that are no trees, a
    graph counted twice in a row, and children of one parent that take the
    sibling slot."""
    parents = draw(_preorder_parents(max_n=14))
    out = []
    for kind in draw(st.lists(st.integers(0, 5), max_size=12)):
        if kind == 0:
            cut = draw(st.integers(0, len(parents)))
            parents = draw(_preorder_parents(keep=parents[:cut]))
            out.append(_tree_from_parents(parents))
        elif kind == 1:
            t = _tree_from_parents(parents)
            out.append(t.relabel(draw(st.permutations(range(t.n)))))
        elif kind == 2:
            out.append(disjoint_union([complete_graph(3), Graph(1)]).relabel(
                draw(st.permutations(range(4)))
            ))
        elif kind == 3:
            # a tree in preorder, then a cycle, whose first vertex has no
            # neighbour below it
            out.append(disjoint_union([
                _tree_from_parents(parents[: draw(st.integers(0, len(parents)))]),
                cycle_graph(draw(st.integers(3, 6))),
            ]))
        elif kind == 4 and out:
            out.append(out[-1])
        elif kind == 5:
            h = complete_graph(draw(st.integers(4, 7)))
            for mask in draw(st.lists(st.integers(3, (1 << h.n) - 1), min_size=1, max_size=3)):
                out.append(_child(h, mask))
    return out


@given(_mixed_tree_inputs())
def test_mixed_tree_streams_match_brute_and_plain_engine(graphs):
    _check_counts(graphs, _brute_or_plain)


def _breadth_first(g):
    """g relabelled in the order of a breadth-first walk from vertex 0,
    neighbours in increasing order, so that every parent is below its
    children."""
    order, seen = [0], 1
    for v in order:  # order grows while walked
        kids = g.adj[v] & ~seen
        seen |= kids
        order.extend(bits(kids))
    perm = [0] * g.n
    for label, v in enumerate(order):
        perm[v] = label
    return g.relabel(perm)


@pytest.mark.parametrize("n", range(1, 13))
def test_relabelled_trees_match_brute_and_plain_engine(n):
    rng = random.Random(n)
    for t in all_trees(n):
        shuffled = list(range(n))
        rng.shuffle(shuffled)
        bfs = _breadth_first(t)
        # every parent lies below its children in the stream's preorder and
        # in a breadth-first labelling, so both take the downward fold
        assert counting._fold_down(t.adj) is not None
        assert counting._fold_down(bfs.adj) is not None
        _check_counts([t, t.relabel(shuffled), bfs], _brute_or_plain)


def test_graphs_with_n_minus_1_edges_off_the_downward_rule_take_the_walk():
    tree = _tree_from_parents([0, 1, 1, 0, 4])
    graphs = [
        tree.relabel([5, 4, 3, 2, 1, 0]),  # vertex 0 is a leaf
        tree.relabel([0, 4, 5, 3, 1, 2]),  # vertex 3 hangs from 4
        star_graph(4).relabel([2, 0, 1, 3]),  # vertex 1 hangs from 2
        disjoint_union([_tree_from_parents([0, 1]), cycle_graph(3)]),
    ]
    # K_3 and K_1 fail the rule in every labelling: at the isolated vertex,
    # or at the triangle's lowest vertex when the isolated one is 0
    k3_k1 = disjoint_union([complete_graph(3), Graph(1)])
    graphs += [k3_k1.relabel(list(perm)) for perm in itertools.permutations(range(4))]
    for g in graphs:
        assert g.edge_count() == g.n - 1
        assert counting._fold_down(g.adj) is None
    _check_counts(graphs, count_brute)


def test_branch_partition_examples():
    assert branch_partition(complete_graph(2), 0) == (
        branch_partition(complete_graph(2), 1)
    )
    bp = branch_partition(complete_graph(2), 0)
    assert (bp.excluded, bp.isolated, bp.matched) == (2, 1, 1)
    bp = branch_partition(Graph(1), 0)
    assert (bp.excluded, bp.isolated, bp.matched) == (1, 1, 0)
    bp = branch_partition(path_graph(3), 1)
    assert (bp.excluded, bp.isolated, bp.matched) == (4, 1, 2)
    with pytest.raises(ValueError):
        branch_partition(path_graph(3), 5)


@given(graphs(min_n=1, max_n=8))
@with_edge_cases
def test_branch_partition_sums_to_count_at_every_pivot(g):
    total = count_brute(g)
    for v in range(g.n):
        assert branch_partition(g, v).total == total


def test_polynomial_examples():
    assert dissociation_polynomial(complete_graph(3)) == [1, 3, 3, 0]
    assert dissociation_polynomial(cycle_graph(4)) == [1, 4, 6, 0, 0]
    two_k2 = disjoint_union([complete_graph(2), complete_graph(2)])
    assert dissociation_polynomial(two_k2) == [1, 4, 6, 4, 1]
    assert dissociation_polynomial(ENGINE_EDGE_CASES[1]) == [1, 4, 6, 3, 0]
    assert [dissociation_polynomial(g) for g in RING_CASES] == [
        [1, 3, 3, 0],
        [1, 4, 6, 0, 0],
        [1, 4, 6, 1, 0],
        [1, 6, 15, 13, 3, 0, 0],
        [1, 5, 10, 6, 0, 0],
        [1, 5, 10, 6, 0, 0],
        [1, 8, 28, 50, 45, 15, 0, 0, 0],
    ]
    assert dissociation_polynomial(Graph(0)) == [1]
    assert dissociation_polynomial(Graph(2)) == [1, 2, 1]


@given(graphs(max_n=14))
@with_edge_cases
def test_polynomial_matches_brute_oracle(g):
    assert dissociation_polynomial(g) == brute_polynomial(g)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_polynomial_matches_brute_oracle_at_22_vertices(seed):
    g = random_gnm(random.Random(seed), 22, 46)
    assert dissociation_polynomial(g) == brute_polynomial(g)


def _poly_sum(length, *terms):
    """Sum of c * x^s * p over the (c, s, p) terms, as `length` coefficients."""
    out = [0] * length
    for c, s, p in terms:
        for k, a in enumerate(p):
            out[k + s] += c * a
    return out


def _path_polys(n_max):
    """D(P_0), ..., D(P_n_max) by branching at an end vertex v: excluded,
    isolated (its neighbour out) or matched (its neighbour's other neighbour out):
    P_n = P_{n-1} + x P_{n-2} + x^2 P_{n-3}."""
    polys = [[1], [1, 1], [1, 2, 1]]
    for n in range(3, n_max + 1):
        polys.append(
            _poly_sum(n + 1, (1, 0, polys[n - 1]), (1, 1, polys[n - 2]), (1, 2, polys[n - 3]))
        )
    return polys


PATH_POLYS = _path_polys(64)


def _cycle_poly(n):
    """D(C_n) by branching at v: C_n = P_{n-1} + x P_{n-3} + 2 x^2 P_{n-4}."""
    if n == 3:
        return [1, 3, 3, 0]
    p = PATH_POLYS
    return _poly_sum(n + 1, (1, 0, p[n - 1]), (1, 1, p[n - 3]), (2, 2, p[n - 4]))


def _star_poly(n):
    """D(K_{1,n-1}): leaf subsets, plus the centre alone or with one leaf."""
    return [
        math.comb(n - 1, k) + (k == 1) + (n - 1) * (k == 2) for k in range(n + 1)
    ]


@pytest.mark.parametrize("n", range(1, 65))
def test_polynomial_closed_forms_up_to_64(n):
    assert dissociation_polynomial(path_graph(n)) == PATH_POLYS[n]
    assert dissociation_polynomial(star_graph(n)) == _star_poly(n)
    if n >= 3:
        assert dissociation_polynomial(cycle_graph(n)) == _cycle_poly(n)


def test_polynomial_sums_to_count_at_64_vertices():
    rng = random.Random(64)
    for _ in range(20):
        g = random_gnm(rng, 64, 60)
        assert sum(dissociation_polynomial(g)) == count(g)


@given(st.one_of(forests(connected=True), forests()))
def test_trees_and_forests_match_brute_oracle(g):
    assert dissociation_polynomial(g) == brute_polynomial(g)
    assert count(g) == count_brute(g)


@given(one_cycle_graphs())
def test_one_cycle_graphs_match_brute_oracle(g):
    assert count(g) == count_brute(g)
    assert dissociation_polynomial(g) == brute_polynomial(g)


def _pruefer_plus_edge(rng):
    g = graph_from_pruefer(64, tuple(rng.randrange(64) for _ in range(62)))
    while True:
        u, v = rng.sample(range(64), 2)
        if not g.has_edge(u, v):
            return g.with_edge(u, v)


def _seeded_pendant_cycle(rng):
    """A cycle of 3 to 20 vertices carrying Pruefer trees, 64 vertices in all."""
    r = rng.randint(3, 20)
    extra = [0] * r
    for _ in range(64 - r):
        extra[rng.randrange(r)] += 1
    slots = []
    for s in extra:
        if s == 0:
            slots.append(None)
            continue
        tree = graph_from_pruefer(s + 1, tuple(rng.randrange(s + 1) for _ in range(s - 1)))
        slots.append((tree, rng.randrange(s + 1)))
    return pendant_cycle(r, slots)


@pytest.mark.parametrize("build", [_pruefer_plus_edge, _seeded_pendant_cycle])
@pytest.mark.parametrize("seed", range(4))
def test_random_64_vertex_one_cycle_graphs(build, seed):
    g = build(random.Random(seed))
    assert g.n == g.edge_count() == 64 and g.is_connected()
    total = count(g)
    assert sum(dissociation_polynomial(g)) == total
    for v in range(64):
        assert branch_partition(g, v).total == total


def test_one_cycle_graphs_are_folded_without_a_branch(monkeypatch):
    def refuse(*args):
        raise AssertionError("a one-cycle component was branched")

    monkeypatch.setattr(counting, "_branch", refuse)
    unicyclic = list(all_unicyclic(12))
    assert len(unicyclic) == 5026
    for g in unicyclic:
        count(g)
    g = _seeded_pendant_cycle(random.Random(0))
    assert sum(dissociation_polynomial(g)) == count(g)
    for v in range(g.n):
        branch_partition(g, v)


@pytest.mark.parametrize("seed", range(8))
def test_random_64_vertex_trees(seed):
    rng = random.Random(seed)
    t = graph_from_pruefer(64, tuple(rng.randrange(64) for _ in range(62)))
    total = count(t)
    coeffs = dissociation_polynomial(t)
    assert sum(coeffs) == total
    assert coeffs[:3] == [1, 64, math.comb(64, 2)]
    for v in range(64):
        assert branch_partition(t, v).total == total


def test_engine_caps_at_64_vertices():
    big = Graph.from_adj((0,) * 65)
    with pytest.raises(ValueError, match="capped at 64"):
        dissociation_polynomial(big)
    with pytest.raises(ValueError, match="capped at 64"):
        count(big)


@given(graphs(max_n=9))
def test_polynomial_invariants(g):
    coeffs = dissociation_polynomial(g)
    n = g.n
    assert len(coeffs) == n + 1
    assert coeffs[0] == 1
    if n >= 1:
        assert coeffs[1] == n
    if n >= 2:
        assert coeffs[2] == math.comb(n, 2)
    if n >= 3 and coeffs[3] == 0:
        assert all(c == 0 for c in coeffs[4:])
    assert sum(coeffs) == count(g)


@given(graphs(max_n=6), graphs(max_n=6))
def test_component_multiplicativity(g, h):
    assert count(disjoint_union([g, h])) == count(g) * count(h)


@given(graphs(min_n=1, max_n=8), st.data())
def test_proper_induced_subgraph_strictly_smaller(g, data):
    removed = data.draw(st.integers(1, g.vertex_set))
    assert count(g.delete_vertices(removed)) < count(g)


def test_closed_form_bases_and_errors():
    assert [count_path(n) for n in range(7)] == [1, 2, 4, 7, 13, 24, 44]
    assert count_path(9) == 274
    assert count_star(4) == 12
    assert count_cycle(3) == 7
    assert count_cycle(4) == 11
    with pytest.raises(ValueError):
        count_cycle(2)
    with pytest.raises(ValueError):
        count_star(0)
    with pytest.raises(ValueError):
        count_path(-1)


@pytest.mark.parametrize("n", range(3, 17))
def test_closed_forms_agree_with_engine(n):
    assert count_path(n) == count(path_graph(n))
    assert count_star(n) == count(star_graph(n))
    assert count_cycle(n) == count(cycle_graph(n))


def test_extremal_maxima_golden_values():
    assert max_unicyclic_count(3) == 7
    assert max_unicyclic_count(6) == 42
    assert max_unicyclic_count(9) == 292
    assert max_unicyclic_count(10) == 556
    assert max_unicyclic_count(11) == 1104
    assert max_tree_count(6) == 44
    assert max_tree_count(7) == 84
    assert subset_bound(5) == 32
    with pytest.raises(ValueError):
        max_tree_count(0)
    with pytest.raises(ValueError):
        max_unicyclic_count(2)


@pytest.mark.parametrize("n", range(1, 65))
def test_tree_maximum_matches_its_graphs(n):
    for t in extremal_trees(n):
        assert count(t) == max_tree_count(n)


@pytest.mark.parametrize("n", range(3, 65))
def test_unicyclic_maximum_matches_its_graph(n):
    assert count(extremal_unicyclic(n)) == max_unicyclic_count(n)


def test_bounds_with_equality_families_small():
    for n in range(1, 6):
        low = (n * n + n + 2) // 2
        for g in all_graphs(n):
            c = count(g)
            assert low <= c <= subset_bound(n)


def test_cycle_below_path_below_unicyclic_max():
    for n in range(4, 17):
        assert count_cycle(n) < count_path(n)
        assert count_cycle(n) < max_unicyclic_count(n)
    for n in range(9, 17):
        assert count_path(n) < max_unicyclic_count(n)


def test_big_integer_arithmetic_beyond_machine_words():
    # closed forms must stay exact far past 64-bit counts
    assert max_tree_count(201) == (1 << 200) + 204 * (1 << 98)
    assert subset_bound(200) == 1 << 200
