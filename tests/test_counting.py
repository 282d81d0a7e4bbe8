import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import graphs
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
from dissoc.families import extremal_trees, extremal_unicyclic
from dissoc.generate import all_graphs
from dissoc.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    star_graph,
    vertex_mask,
)
from oracles import brute_polynomial, count_brute, random_gnm, random_graph


def test_is_dissociation_examples():
    p3 = path_graph(3)
    assert not is_dissociation(p3, vertex_mask([0, 1, 2]))
    assert is_dissociation(p3, 0)
    assert is_dissociation(cycle_graph(4), vertex_mask([0, 1]))
    assert is_dissociation(cycle_graph(4), vertex_mask([0, 2]))
    with pytest.raises(ValueError):
        is_dissociation(p3, vertex_mask([3]))


def test_count_brute_examples():
    assert count_brute(Graph(1)) == 2
    assert count_brute(complete_graph(3)) == 7
    assert count_brute(path_graph(9)) == 274
    with pytest.raises(ValueError):
        count_brute(Graph(25))
    with pytest.raises(ValueError):
        brute_polynomial(Graph(25))


def test_count_examples():
    assert count(path_graph(10)) == 504
    assert count(path_graph(11)) == 927
    assert count(disjoint_union([complete_graph(2), Graph(1)])) == 8
    assert count(Graph(0)) == 1


@given(graphs(max_n=9))
def test_engine_matches_brute_oracle(g):
    assert count(g) == count_brute(g)


def test_engine_matches_brute_on_seeded_midsize_sample():
    rng = random.Random(4242)
    for _ in range(60):
        g = random_graph(rng, rng.randint(10, 13), rng.uniform(0.1, 0.9))
        assert count(g) == count_brute(g)


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
def test_branch_partition_sums_to_count_at_every_pivot(g):
    total = count(g)
    for v in range(g.n):
        assert branch_partition(g, v).total == total


def test_polynomial_examples():
    assert dissociation_polynomial(complete_graph(3)) == [1, 3, 3, 0]
    assert dissociation_polynomial(cycle_graph(4)) == [1, 4, 6, 0, 0]
    two_k2 = disjoint_union([complete_graph(2), complete_graph(2)])
    assert dissociation_polynomial(two_k2) == [1, 4, 6, 4, 1]


@given(graphs(max_n=14))
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


@pytest.mark.parametrize("n", range(1, 21))
def test_tree_maximum_matches_its_graphs(n):
    for t in extremal_trees(n):
        assert count(t) == max_tree_count(n)


@pytest.mark.parametrize("n", range(3, 21))
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
