"""Shared independent oracles for the test suite.

Everything here is deliberately naive: dissociation sets by testing every
vertex subset, labelled enumeration via triangle bitmasks or Pruefer
sequences, and isomorphism by trying every permutation.  Family counts
asserted in tests come from these, never from memory.
"""

from functools import lru_cache
from itertools import permutations, product

import numpy as np

from dissoc.graph import Graph, bits

BRUTE_CAP = 24
_CHUNK = 1 << 18


def _subset_sweep(g: Graph):
    """Yield (masks, ok) chunks over all 2^n subsets, ok marking dissociation sets."""
    n = g.n
    adj = [np.int64(m) for m in g.adj]
    for start in range(0, 1 << n, _CHUNK):
        stop = min(start + _CHUNK, 1 << n)
        masks = np.arange(start, stop, dtype=np.int64)
        ok = np.ones(stop - start, dtype=bool)
        for v in range(n):
            inside = (masks >> v) & 1
            deg = np.bitwise_count(masks & adj[v])
            ok &= (inside == 0) | (deg <= 1)
        yield masks, ok


def count_brute(g: Graph) -> int:
    """Number of dissociation sets by exhaustive subset testing (n <= 24)."""
    if g.n > BRUTE_CAP:
        raise ValueError(f"brute-force oracle capped at {BRUTE_CAP} vertices")
    return sum(int(np.count_nonzero(ok)) for _, ok in _subset_sweep(g))


def brute_polynomial(g: Graph) -> list[int]:
    """[d(G,0), ..., d(G,n)] by exhaustive subset testing (n <= 24)."""
    if g.n > BRUTE_CAP:
        raise ValueError(f"polynomial sweep capped at {BRUTE_CAP} vertices")
    coeffs = np.zeros(g.n + 1, dtype=np.int64)
    for masks, ok in _subset_sweep(g):
        sizes = np.bitwise_count(masks[ok]).astype(np.int64)
        coeffs += np.bincount(sizes, minlength=g.n + 1)
    return [int(c) for c in coeffs]


def graph_from_triangle_bits(n: int, bits: int) -> Graph:
    """Decode an upper-triangle bitmask (row-major, u < v) into a graph."""
    edges = []
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            if bits >> k & 1:
                edges.append((u, v))
            k += 1
    return Graph(n, edges)


def all_labeled_graphs(n: int):
    for bits in range(1 << (n * (n - 1) // 2)):
        yield graph_from_triangle_bits(n, bits)


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism by exhausting all vertex permutations (tiny n only)."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    return any(g.relabel(list(p)) == h for p in permutations(range(g.n)))


def labeled_class_count(n: int, keep=None) -> int:
    """Number of isomorphism classes among all labelled graphs on n vertices
    (optionally filtered), by canonical-form dedup."""
    from dissoc.canon import canonical_form

    seen = set()
    for g in all_labeled_graphs(n):
        if keep is None or keep(g):
            seen.add(canonical_form(g))
    return len(seen)


def graph_from_pruefer(n: int, seq: tuple[int, ...]) -> Graph:
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (x for x in range(n) if degree[x] == 1)
    edges.append((u, w))
    return Graph(n, edges)


def all_labeled_trees(n: int):
    if n == 1:
        yield Graph(1)
        return
    if n == 2:
        yield Graph(2, [(0, 1)])
        return
    for seq in product(range(n), repeat=n - 2):
        yield graph_from_pruefer(n, seq)


def labeled_tree_class_count(n: int) -> int:
    from dissoc.canon import canonical_form

    return len({canonical_form(t) for t in all_labeled_trees(n)})


def random_graph(rng, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_gnm(rng, n: int, m: int) -> Graph:
    """A uniform graph on n vertices with exactly m edges."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, rng.sample(pairs, m))


def ir_unicyclic_stream(n: int):
    """``all_unicyclic``'s candidates in its order (trees in stream order,
    then each non-edge u < v), keeping the first of each class by the IR
    ``canonical_form`` instead of ``unicyclic_key``."""
    from dissoc.canon import canonical_form
    from dissoc.generate import all_trees

    seen = set()
    for tree in all_trees(n):
        for u in range(n):
            for v in range(u + 1, n):
                if tree.has_edge(u, v):
                    continue
                g = tree.with_edge(u, v)
                key = canonical_form(g)
                if key not in seen:
                    seen.add(key)
                    yield g


def _extend(h: Graph, mask: int) -> Graph:
    """h plus one new vertex adjacent to the vertices of mask."""
    adj = list(h.adj)
    new = h.n
    for u in bits(mask):
        adj[u] |= 1 << new
    adj.append(mask)
    return Graph.from_adj(tuple(adj))


def _extensions(n: int, masks):
    """Each class on n-1 vertices plus one new vertex adjacent to each mask
    of ``masks(class)``, in that order, keeping the first candidate of each
    canonical form."""
    from dissoc.canon import canonical_form

    seen: set[bytes] = set()
    for h in _graph_classes(n - 1):
        for mask in masks(h):
            g = _extend(h, mask)
            key = canonical_form(g)
            if key not in seen:
                seen.add(key)
                yield g


@lru_cache(maxsize=None)
def _graph_classes(n: int) -> tuple[Graph, ...]:
    if n == 0:
        return (Graph(0),)
    return tuple(_extensions(n, lambda h: range(1 << h.n)))


def _meets_every_component(h: Graph) -> list[int]:
    """Neighbourhoods of a new vertex that join h into one component."""
    comps = h.component_masks()
    return [mask for mask in range(1 << h.n) if all(mask & c for c in comps)]


def extension_stream(n: int, connected: bool):
    """The generator without a deletion filter: every graph class on n-1
    vertices, connected or not, extended by every mask (for connected graphs,
    every mask that meets each component), keeping the first candidate of
    each canonical form."""
    if not connected:
        return iter(_graph_classes(n))
    return _extensions(n, _meets_every_component)
