import hashlib
import logging

import pytest

from dissoc.canon import canonical_form
from dissoc.generate import (
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
    extension_stream,
    ir_unicyclic_stream,
    labeled_class_count,
    labeled_tree_class_count,
    peeled_tree_stream,
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


def test_tree_stream_yields_graphs_that_keep_their_adjacency():
    """The stream re-hangs one adjacency from tree to tree; each graph it
    yielded keeps the edges it had when yielded."""
    live = [to_graph6(t) for t in all_trees(12)]
    held = list(all_trees(12))
    assert [to_graph6(t) for t in held] == live
    assert held == list(all_trees(12))


@pytest.mark.parametrize("n", [2, 5, 9, 13])
def test_interleaved_tree_streams_match_one_stream(n):
    a, b = all_trees(n), all_trees(n)
    pairs = list(zip(a, b))
    assert [x for x, _ in pairs] == [y for _, y in pairs] == list(all_trees(n))
    assert next(a, None) is next(b, None) is None


# n = 16 walks 235,381 rooted sequences through the reference (about 8 s)
@pytest.mark.parametrize(
    "n", [*range(1, 16), pytest.param(16, marks=pytest.mark.slow)]
)
def test_tree_stream_matches_peeled_reference(n):
    """Reading the centres off the level sequence keeps exactly the
    sequences that peeling each built tree keeps, in the same order."""
    got = [to_graph6(t) for t in all_trees(n)]
    assert got == [to_graph6(t) for t in peeled_tree_stream(n)]


# OEIS A000055: trees on n nodes
A000055 = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235,
    12: 551, 13: 1301, 14: 3159, 15: 7741, 16: 19320, 17: 48629, 18: 123867,
}


@pytest.mark.parametrize(
    "n",
    [*range(1, 17), *(pytest.param(n, marks=pytest.mark.slow) for n in (17, 18))],
)
def test_tree_class_counts_match_a000055(n):
    assert sum(1 for _ in all_trees(n)) == A000055[n]


# -- unicyclic -----------------------------------------------------------------

@pytest.mark.parametrize("n", range(3, 7))
def test_unicyclic_stream_matches_labeled_dedup_oracle(n):
    want = labeled_class_count(
        n, keep=lambda g: g.is_connected() and g.cycle_space_dim() == 1
    )
    assert len(canon_set(all_unicyclic(n))) == want


@pytest.mark.parametrize("n", range(3, 11))
def test_unicyclic_stream_matches_ir_reference(n):
    """Building each cycle of rooted trees once gives exactly the classes
    that deduplicating every tree plus one edge by IR canonical form gives."""
    got = canon_set(all_unicyclic(n))
    assert got == {canonical_form(g) for g in ir_unicyclic_stream(n)}


# OEIS A001429: connected unicyclic graphs on n nodes
A001429 = {
    3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657, 11: 1806, 12: 5026,
    13: 13999, 14: 39260, 15: 110381, 16: 311465,
}


@pytest.mark.parametrize(
    "n",
    [*range(3, 15), *(pytest.param(n, marks=pytest.mark.slow) for n in (15, 16))],
)
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


# n = 8 runs the unfiltered reference, about 20 s per family
@pytest.mark.parametrize(
    "n", [*range(1, 8), pytest.param(8, marks=pytest.mark.slow)]
)
def test_connected_stream_matches_extension_reference(n):
    """Canonical deletion keeps exactly the classes that extending every
    class on n-1 vertices keeps."""
    got = canon_set(all_connected(n))
    assert got == {canonical_form(g) for g in extension_stream(n, connected=True)}


@pytest.mark.parametrize(
    "n", [*range(0, 8), pytest.param(8, marks=pytest.mark.slow)]
)
def test_graph_stream_matches_extension_reference(n):
    got = canon_set(all_graphs(n))
    assert got == {canonical_form(g) for g in extension_stream(n, connected=False)}


# OEIS A000088: graphs on n nodes
A000088 = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}

# OEIS A001349: connected graphs on n nodes
A001349 = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


@pytest.mark.parametrize("n", sorted(A000088))
def test_graph_class_counts_match_a000088(n):
    assert sum(1 for _ in all_graphs(n)) == A000088[n]


@pytest.mark.parametrize("n", sorted(A001349))
def test_connected_class_counts_match_a001349(n):
    assert sum(1 for _ in all_connected(n)) == A001349[n]


# sha256 of each stream's graph6 lines, newline-terminated: the labelling
# and the order of every emitted graph, not only its class
GRAPH_STREAM_SHA256 = {
    0: "ce773b87709a04bbcb0ead74fea94b1f20fa4a4d185fc06a24a9bc703dd99613",
    1: "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    2: "b7cd2a004ade86133158ffa94292f1d79a1fa154874706bf33b9e841cd3fa4cb",
    3: "aefbaa12a956ed1f415fa897c455185134275a89a57ce1ef7d38f771c0d9129e",
    4: "b809c405cd3b8fb3cc836a9e7471658a8cf02cbc258029bddbecc9f2caf2ea32",
    5: "c4a4e9dfb7024f02f2b74883d8a513feaab2c5a69b910eaf603a2f377d7a7c69",
    6: "fe09069cfd7fd4a379971aaad0ead131d653cfaecb54dfe39c85c33a62325f7a",
    7: "f57aa642092d0e99b4f1acf45877273a6b11ed70ad8bb8166fc69ade9efe239e",
    8: "10eee96d9249c9a813560db391e1de74431198e6a638cf4c4541d7222e604f7e",
}
CONNECTED_STREAM_SHA256 = {
    1: "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    2: "fae4bfc454bd04363dcd5222772f2973b1193e1ff6f676e822a427323a677ef9",
    3: "5966edf890849db6cb03626431916231a81a30c9db9a4781a4a8f2e5dc7e6129",
    4: "d7da485669f2dc74b81c02f18774a07430937684896833d59f138b10debb5005",
    5: "9167bda6bb32bacba6cd15aedf15df1aaab68a7b95c5a07315b0cf80b506a1e7",
    6: "9d76812bf97090ace642e8f0eb68fcfa40983c01bf45665b0c7fc853a63bff16",
    7: "74a4fda05044b168894811f61d63575044183122122c5ba9a67b27804ddc613c",
    8: "79cb8fcd4c27aa39d16613e164d48406e25ad33c1818a475922690c37e577c3e",
    9: "5e3d12dd56878c038c8d8dffaa32baf3396c7d021d8ab94437231eb9ee2426d1",
}
TREE_STREAM_SHA256 = {
    1: "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    2: "fae4bfc454bd04363dcd5222772f2973b1193e1ff6f676e822a427323a677ef9",
    3: "881159da90c6f28631b6a3eafd6d6d13cda0d0e4cc09d828374719d272f3da34",
    4: "fca32a9fe1fd1a400c423e69ebee00e2a06fb15691a3b08274f2950e9c7e7a02",
    5: "75b1bbca0d7e8b0393afbdd6c5ede541b4794db05d0b708583bc183c6dadfa2a",
    6: "e3bf6aa40d16b6190b71e2ca435c5dbf487f4036b4ce27f30760d6386e6297d1",
    7: "23f7212a810c6a2988541da7703f80c2550eebb34b7f197043e8c88993b5054c",
    8: "d01c544d8ea11d5548efecb1aacb9487759fed1b26549124445f1441aaca0d21",
    9: "5a81cc98052452dd42d7e3b2b61eb355e951e9d4be9f9a2c0324018020fe8c98",
    10: "2e6cd2bd7414e3d574e6883095e9fe627b84d6a91a373bf9f07d5160f96a584d",
    11: "84da20d604be82f235a01b2eb745ebc0c5ddfbab761888ba4bfd525e7b80d52c",
    12: "d17f4a98f938c197ae4dcc2c8b23be087963ddf8bc4b4c21238fac8e4faab55f",
    13: "0e11ba9687a8d40c6d983cdba2bd650aede2f63bd93f9661c7d7fb344fe07bf9",
    14: "4b017fb0515facc888c8932a385e99e837d7e348e0324ad865b87892c9997ee1",
    15: "9158ff5a5a378d66c87d3184b61a139c171341a7ac40d546812f036aedb2ad56",
    16: "846436bc0ae66cb05ba1d4c52fabc2b871b606c0b81085576ebda27689ffa2a0",
    17: "a39ca666e2cb3a877adc9c928b30906fc4c59c3926c6b65821e3ce4f19fe6048",
    18: "3e1ee76bc222b5f2b598c41a0a3c2497c98feafa2981a2b729ecbaf1d0e28b7e",
}
UNICYCLIC_STREAM_SHA256 = {
    3: "8e71b38f493557683524eb45ca8f814efe19aa3c9d7e946c42a25658f532618e",
    4: "a82f4d93b8f036e11c1e3bdb4f26a3b7e028ceb1a4d04f874fc4f2d1c7ffa3f2",
    5: "031ded93a9c1802c70e4541552058dd9cbb8ce6cfd9c43c1daf518ccc313fbe4",
    6: "da8a62cef45e2e64fba16337a37f2b8fd81a9d29d806f3e01d92f44f17003b21",
    7: "0cb65a7de677b75f1f362bac24e3eb74eba15f59df3ed8adde65124cf57bf14d",
    8: "bbce1be7464c4aecd1b8b1658e2b37cc8ad4e298f00eab0b97dfe003d031e17f",
    9: "cdc0a545820eab0553fc21efd9d7caf0ceea0dddee9bccb1b22a1377011bc924",
    10: "5cbc3aad9792eeb1465af7e177dc5728458fd8fa20a2b5e2269ac245bb249c2a",
    11: "d4b108c25e5a7a1d4665cb412a81d8191dfde1bb7c685ba981dfe56e73cbeb81",
    12: "3cd42063e41ff7567bdb9d1410e058479bf52420d92810b46505e20ada220dbc",
    13: "eb21e5d49cb98bc21e47b1591dab30607f201e3b10b2e45c9b874efffb6bdedb",
    14: "e74ff7c48e7092bb96c9a3b6926c4a4b42b5b79cc7b967bfdba1a74d90a8f6ab",
}


def stream_sha256(graphs):
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(to_graph6(g).encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("n", sorted(GRAPH_STREAM_SHA256))
def test_graph_stream_is_pinned(n):
    assert stream_sha256(all_graphs(n)) == GRAPH_STREAM_SHA256[n]


@pytest.mark.parametrize(
    "n", [*range(1, 9), pytest.param(9, marks=pytest.mark.slow)]
)
def test_connected_stream_is_pinned(n):
    assert stream_sha256(all_connected(n)) == CONNECTED_STREAM_SHA256[n]


# n = 17 and 18 generate 48,629 and 123,867 trees (about 2 s and 6 s)
@pytest.mark.parametrize(
    "n",
    [*range(1, 17), *(pytest.param(n, marks=pytest.mark.slow) for n in (17, 18))],
)
def test_tree_stream_is_pinned(n):
    assert stream_sha256(all_trees(n)) == TREE_STREAM_SHA256[n]


@pytest.mark.parametrize("n", sorted(UNICYCLIC_STREAM_SHA256))
def test_unicyclic_stream_is_pinned(n):
    assert stream_sha256(all_unicyclic(n)) == UNICYCLIC_STREAM_SHA256[n]


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
        family_stream(family, order)


def test_family_stream_dispatch():
    (t,) = family_stream("trees", 3)
    assert canonical_form(t) == canonical_form(path_graph(3))
    with pytest.raises(ValueError):
        family_stream("towers", 3)


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
