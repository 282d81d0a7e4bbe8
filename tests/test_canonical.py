import hashlib
import random
from collections import defaultdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import graphs
from dissoc.canon import automorphisms, canonical_form
from dissoc.families import complete_multipartite, star_join
from dissoc.generate import all_graphs
from dissoc.graph import Graph, complete_graph, cycle_graph, path_graph, star_graph
from oracles import (
    all_labeled_graphs,
    brute_automorphism_count,
    brute_isomorphic,
    random_graph,
)


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


@st.composite
def large_non_forests(draw):
    """G(n, p) on 33 to 64 vertices from a drawn seed, with a triangle on
    0, 1, 2 if the draw is a forest."""
    n = draw(st.integers(33, 64))
    p = draw(st.sampled_from([0.03, 0.1, 0.5]))
    g = random_graph(random.Random(draw(st.integers(0, 2**32))), n, p)
    if g.is_forest():
        g = g.with_edge(0, 1).with_edge(1, 2).with_edge(0, 2)
    return g


@given(large_non_forests(), st.randoms(use_true_random=False))
def test_large_non_forest_form_is_invariant_under_relabeling(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_form(g.relabel(perm)) == canonical_form(g)


@given(large_non_forests(), st.randoms(use_true_random=False))
def test_large_non_forest_form_changes_when_an_edge_flips(g, rng):
    u, v = rng.sample(range(g.n), 2)
    flipped = g.without_edge(u, v) if g.has_edge(u, v) else g.with_edge(u, v)
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_form(flipped) != canonical_form(g.relabel(perm))


# -- pinned canonical bytes --------------------------------------------------------
# A faster search must find the same maximum leaf: these sha256 digests pin
# the canonical bytes of every graph class on at most 7 vertices and of
# graphs whose large automorphism groups stress the pruning.

def hypercube(d):
    edges = [(u, u | 1 << i) for u in range(1 << d) for i in range(d) if not u >> i & 1]
    return Graph(1 << d, edges)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


SYMMETRIC_GRAPHS = {
    "K_20": lambda: complete_graph(20),
    "K_30": lambda: complete_graph(30),
    "K_40": lambda: complete_graph(40),
    "Q_5": lambda: hypercube(5),
    "Q_6": lambda: hypercube(6),
    "C_60": lambda: cycle_graph(60),
    "K_8,8": lambda: complete_multipartite([8, 8]),
    "K_4,4,4,4,4,4,4,4": lambda: complete_multipartite([4] * 8),
    "K_1,31+e": lambda: star_graph(32).with_edge(1, 2),
    "Petersen": petersen,
}

SYMMETRIC_FORM_SHA256 = {
    "K_20": "f2dc984cecf71d99c1ad4a721b436d40972ed34a46cf35dc82863d54c95487bb",
    "K_30": "d0b7831242447820632569545a21cddf4dd1b9cb16a9f9b45f7865b6bfb639ad",
    "K_40": "2013c12c0b59bc21941970f1646cc7eaa1486028037e6e29bd07cbff3492b158",
    "Q_5": "f84429c100d5d724ce56655e0c09f985ea705428f01005197837097eb075ad48",
    "Q_6": "1afbb9b7689a337ce751b8331a1da6f5bd618298cc3799b1f2ff379fb5c7f234",
    "C_60": "c2af95bb8276fa44850fafbe903464ceb16d39b40b37dbfa1592e372993c0b1c",
    "K_8,8": "f8e285cbc138244af6c17547b6ac1a69402351306302f45efb31c55bb0b5e562",
    "K_4,4,4,4,4,4,4,4": "0b5d4a153c0768d460df82603684d1634bdac6bd109bcc3f57ce334b6fe86d79",
    "K_1,31+e": "ef5a25e400ad75f15ef436897e60f415cb72fdda154beaad310814615a98289d",
    "Petersen": "2488e9ffe3975f561cf229bfe8ea11aa169d1d1f5195c6a22db7ec2afdb4246a",
}

# sha256 over the stream of all_graphs(n), each form prefixed by its length
CLASS_FORMS_SHA256 = {
    0: "1d60d5add50459510bb287f093b36c137d9f9cbc86a00589095b9d79e4de5526",
    1: "2ee0c7e1bb4fb5943e33d02c83d4348f77a2f6ff950910dcc8230ba40578c1a9",
    2: "e42c20fffdb67c39c35a2d7ecdab3f6a6efef0f1ec6ccdb463aff3813d83d2f2",
    3: "da87db528c8a80eb4cb585e910aee6c940fae901a8316f2230b8ee92332bd71b",
    4: "91f14027dea123038ad3980ea1db4219e40c320ae52b7bd70ebf9ca5b4d6ca45",
    5: "48695aef4981e6af7290e861b93ec8e3cd13c89effa63154652dba01cb3a23ac",
    6: "186ee1b89da57c66c1abeda485c3180bd86d76849c7a718219d5440000a651ac",
    7: "91655e1329517f54a22e55d78ab0338c3a9256e50d33b562ae656f2db67eec13",
}


@pytest.mark.parametrize("name", SYMMETRIC_GRAPHS)
def test_symmetric_graph_forms_are_pinned(name):
    key = canonical_form(SYMMETRIC_GRAPHS[name]())
    assert hashlib.sha256(key).hexdigest() == SYMMETRIC_FORM_SHA256[name]


@pytest.mark.parametrize("n", CLASS_FORMS_SHA256)
def test_class_forms_are_pinned(n):
    digest = hashlib.sha256()
    for g in all_graphs(n):
        key = canonical_form(g)
        digest.update(len(key).to_bytes(2, "little") + key)
    assert digest.hexdigest() == CLASS_FORMS_SHA256[n]


# -- automorphisms ---------------------------------------------------------------

def group_order(n, generators):
    """Order of the permutation group generated by ``generators``, by
    closing the identity under them."""
    identity = tuple(range(n))
    elements = {identity}
    todo = [identity]
    while todo:
        a = todo.pop()
        for p in generators:
            b = tuple(p[a[v]] for v in range(n))
            if b not in elements:
                elements.add(b)
                todo.append(b)
    return len(elements)


def test_automorphisms_generate_the_whole_group_up_to_7_vertices():
    """Canonical deletion emits a child with no dedup when its new vertex
    ranks first alone; that is sound only if these generators span Aut(g)."""
    classes = 0
    for n in range(8):
        for g in all_graphs(n):
            assert group_order(n, automorphisms(g)) == brute_automorphism_count(g)
            classes += 1
    assert classes == 1253


def test_complete_graph_needs_one_generator_per_level():
    # the search jumps back to the first path at the first leaf equal to the
    # first leaf, so each first-path node of K_40 yields one transposition
    assert len(automorphisms(complete_graph(40))) <= 39


def test_automorphisms_of_a_trivial_group_are_empty():
    assert automorphisms(Graph(0)) == []
    assert automorphisms(Graph(1)) == []


def random_forest(rng, n):
    edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.9]
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, edges).relabel(perm)


def test_automorphisms_are_automorphisms_up_to_64_vertices():
    rng = random.Random(4099)
    for trial in range(120):
        n = rng.randint(0, 64)
        if trial % 3 == 0:
            g = random_forest(rng, n)
        else:
            g = random_graph(rng, n, rng.choice([0.03, 0.1, 0.5]))
        for p in automorphisms(g):
            assert sorted(p) == list(range(n))
            assert p != list(range(n))
            assert g.relabel(p) == g
