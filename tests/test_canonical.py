import random
from collections import defaultdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import graphs
from dissoc.canon import canonical_form
from dissoc.families import star_join
from dissoc.graph import complete_graph, cycle_graph, path_graph, star_graph
from oracles import all_labeled_graphs, brute_isomorphic, random_graph


@given(graphs(max_n=8), st.randoms(use_true_random=False))
def test_invariant_under_relabeling(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_form(g.relabel(perm)) == canonical_form(g)


def test_invariant_under_1000_seeded_relabelings():
    rng = random.Random(1729)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(1, 8))
        base = canonical_form(g)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(g.relabel(perm)) == base


def test_distinguishing_examples():
    p4 = path_graph(4)
    assert canonical_form(p4.relabel([3, 2, 1, 0])) == canonical_form(p4)
    assert canonical_form(star_graph(4)) != canonical_form(p4)
    # the two extremal trees of order 6 are non-isomorphic
    k2 = complete_graph(2)
    assert canonical_form(path_graph(6)) != canonical_form(star_join(2, [k2, k2]))


def test_codes_match_permutation_oracle_up_to_n5():
    """Soundness and completeness against all-permutations isomorphism,
    over every labelled graph on at most 5 vertices."""
    for n in range(6):
        buckets = defaultdict(list)
        for g in all_labeled_graphs(n):
            buckets[canonical_form(g)].append(g)
        reps = [gs[0] for gs in buckets.values()]
        for gs in buckets.values():
            rep = gs[0]
            for g in gs[1:]:
                assert brute_isomorphic(rep, g)
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                assert not brute_isomorphic(a, b)


def test_high_symmetry_graphs_terminate():
    # complete, empty, and complete multipartite shapes stress the search
    for n in (7, 8, 9):
        k = complete_graph(n)
        assert canonical_form(k) == canonical_form(k.relabel(list(reversed(range(n)))))


@pytest.mark.parametrize("n", [33, 64])
def test_canonical_form_above_32_vertices(n):
    c = cycle_graph(n)
    key = canonical_form(c)
    assert len(key) == 2 + 8 * n
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    assert canonical_form(c.relabel(perm)) == key
    assert canonical_form(c.with_edge(0, n // 2)) != key
    assert canonical_form(c.without_edge(0, 1)) != key


def test_canonical_rows_stay_4_bytes_up_to_32_vertices():
    assert len(canonical_form(cycle_graph(32))) == 2 + 4 * 32
