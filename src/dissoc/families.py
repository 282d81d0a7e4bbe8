"""Builders for the named extremal families.

The central operator is the star-join: take a hub clique K_r, pick its first
vertex, and join it to one designated vertex of each part.  The extremal
trees (hub vertex or hub edge carrying pendant paths of length two) and the
extremal unicyclic graphs (triangle hub with pendant edges) are star-joins of
small cliques; pendant-tree cycles and complete multipartite graphs round out
the families the verification sweeps quantify over.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .canon import canonical_form
from .graph import Graph, complete_graph, path_graph

PartLike = Graph | tuple[Graph, int]


def _normalize_parts(parts: Iterable[PartLike]) -> list[tuple[Graph, int]]:
    out = []
    for part in parts:
        g, attach = part if isinstance(part, tuple) else (part, 0)
        if g.n < 1:
            raise ValueError("star-join parts must be nonempty")
        g._check_vertex(attach)
        out.append((g, attach))
    return out


def star_join(r: int, parts: Iterable[PartLike]) -> Graph:
    """Hub clique K_r with its vertex 0 joined to one vertex of each part.

    Parts are graphs, optionally paired with the attachment vertex (default
    vertex 0; for clique parts every choice is isomorphic).  Vertices are
    labelled hub first, then the parts in the given order.  An empty part
    list yields just K_r.
    """
    if r < 1:
        raise ValueError("hub clique must have at least 1 vertex")
    norm = _normalize_parts(parts)
    n = r + sum(g.n for g, _ in norm)
    edges = [(u, v) for u in range(r) for v in range(u + 1, r)]
    offset = r
    for g, attach in norm:
        edges.extend((offset + u, offset + v) for u, v in g.edges())
        edges.append((0, offset + attach))
        offset += g.n
    return Graph(n, edges)


def extremal_trees(n: int) -> list[Graph]:
    """The trees of order n with the most dissociation sets.

    A single tree at every order except 6, where the path P_6 ties with the
    hub-edge form; returned sorted by canonical form.
    """
    if n < 1:
        raise ValueError("tree order must be >= 1")
    k2 = complete_graph(2)
    if n % 2:
        trees = [star_join(1, [k2] * ((n - 1) // 2))]
    elif n == 6:
        trees = [path_graph(6), star_join(2, [k2, k2])]
    else:
        trees = [star_join(2, [k2] * ((n - 2) // 2))]
    return sorted(trees, key=canonical_form)


def extremal_unicyclic(n: int) -> Graph:
    """A unicyclic graph of order n with the most dissociation sets.

    A triangle hub carrying pendant edges (plus one pendant vertex at even
    orders); order 6 alone prefers a hub vertex joined to a triangle and an
    edge.  The exhaustive sweeps over orders 3..14 find it to be the only
    extremal class except at order 8, where the hub form K_1*(K_3+2K_2)
    ties it at 148; only U_8 is returned there.
    """
    if n < 3:
        raise ValueError("unicyclic order must be >= 3")
    if n == 6:
        return star_join(1, [complete_graph(3), complete_graph(2)])
    parts: list[Graph] = [complete_graph(2)] * ((n - 3) // 2)
    if n % 2 == 0:
        parts.append(complete_graph(1))
    return star_join(3, parts)


def pendant_cycle(r: int, slots: Sequence[Graph | tuple[Graph, int] | None]) -> Graph:
    """Cycle of length r with a pendant tree identified at each cycle vertex.

    ``slots[i]`` is the tree hung at cycle vertex i, given as a graph whose
    root (default vertex 0) is identified with the cycle vertex; ``None``
    marks a bare cycle vertex.  The result is unicyclic with girth r.
    """
    if r < 3:
        raise ValueError("cycle length must be >= 3")
    if len(slots) != r:
        raise ValueError(f"need exactly {r} pendant-tree slots, got {len(slots)}")
    edges = [(i, (i + 1) % r) for i in range(r)]
    offset = r
    for i, slot in enumerate(slots):
        if slot is None:
            continue
        tree, root = slot if isinstance(slot, tuple) else (slot, 0)
        if not tree.is_tree():
            raise ValueError(f"slot {i} is not a tree")
        tree._check_vertex(root)
        # identify `root` with cycle vertex i, appending the other vertices
        relabel = {}
        nxt = offset
        for v in range(tree.n):
            if v == root:
                relabel[v] = i
            else:
                relabel[v] = nxt
                nxt += 1
        edges.extend((relabel[u], relabel[v]) for u, v in tree.edges())
        offset = nxt
    return Graph(offset, edges)


def complete_multipartite(part_sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph with the given part sizes."""
    if not part_sizes:
        raise ValueError("need at least one part")
    if any(s < 1 for s in part_sizes):
        raise ValueError("part sizes must be >= 1")
    n = sum(part_sizes)
    part_of = []
    for i, s in enumerate(part_sizes):
        part_of.extend([i] * s)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if part_of[u] != part_of[v]
    ]
    return Graph(n, edges)


def is_complete_multipartite_small_parts(g: Graph) -> bool:
    """True for complete multipartite graphs whose parts have at most 2
    vertices: exactly the graphs whose complement is a union of K1 and K2."""
    full = g.vertex_set
    return is_union_of_vertices_and_edges(
        Graph.from_adj(tuple(full & ~(g.adj[v] | (1 << v)) for v in range(g.n)))
    )


def is_union_of_vertices_and_edges(g: Graph) -> bool:
    """True when every component is K1 or K2 (the 2^n equality family)."""
    return all(m.bit_count() <= 2 for m in g.component_masks())
