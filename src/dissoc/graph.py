"""Small simple undirected graphs over vertex indices 0..n-1.

Adjacency is stored as one bitmask per vertex, so every set operation the
counting engine needs (neighbourhoods, deletions, component masks) is a few
machine-word instructions.  Graphs are immutable and hashable; mutating
operations return new graphs.  The cap is one machine word (64 vertices);
desk-scale sweeps stay far below it.
"""

from __future__ import annotations

from typing import Iterable, Iterator

MAX_VERTICES = 64

TRUE_TWIN = "true-twin"
FALSE_TWIN = "false-twin"
NEITHER = "neither"


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def component(adj: tuple[int, ...], mask: int) -> int:
    """The component of G[mask] holding the lowest vertex of mask, given the
    adjacency masks of G (0 for an empty mask)."""
    comp = mask & -mask
    frontier = comp
    while frontier:
        reach = 0
        # bits() inlined: is_connected runs this on every candidate that
        # all_connected tries
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & mask & ~comp
        comp |= frontier
    return comp


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)

    @classmethod
    def from_adj(cls, adj: tuple[int, ...]) -> "Graph":
        """Build directly from per-vertex neighbour masks (trusted input)."""
        g = cls.__new__(cls)
        g.n = len(adj)
        g.adj = adj
        return g

    # -- basic queries -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self) -> int:
        return hash(self.adj)

    def __repr__(self) -> str:
        return f"Graph({self.n}, {sorted(self.edges())})"

    @property
    def vertex_set(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            m = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(m):
                yield (u, v)

    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2

    def open_neighborhood(self, v: int) -> int:
        """N(v) as a bitmask."""
        self._check_vertex(v)
        return self.adj[v]

    def closed_neighborhood(self, v: int) -> int:
        """N[v] = {v} ∪ N(v) as a bitmask."""
        self._check_vertex(v)
        return self.adj[v] | (1 << v)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")

    # -- derived graphs ------------------------------------------------

    def induced_subgraph(self, mask: int) -> "Graph":
        """G[S] with the vertices of S relabelled 0..|S|-1 in ascending order."""
        if mask & ~self.vertex_set:
            raise ValueError("vertex set outside graph")
        verts = list(bits(mask))
        index = {v: i for i, v in enumerate(verts)}
        adj = [0] * len(verts)
        for v in verts:
            for u in bits(self.adj[v] & mask):
                adj[index[v]] |= 1 << index[u]
        return Graph.from_adj(tuple(adj))

    def delete_vertices(self, mask: int) -> "Graph":
        """G - S for a vertex bitmask S."""
        return self.induced_subgraph(self.vertex_set & ~mask)

    def with_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        self._check_vertex(u)
        self._check_vertex(v)
        adj = list(self.adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return Graph.from_adj(tuple(adj))

    def without_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge")
        adj = list(self.adj)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        return Graph.from_adj(tuple(adj))

    def relabel(self, perm: list[int]) -> "Graph":
        """Image under vertex v -> perm[v]; perm must be a permutation of 0..n-1."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"not a permutation of 0..{self.n - 1}: {perm}")
        adj = [0] * self.n
        for v in range(self.n):
            m = 0
            for u in bits(self.adj[v]):
                m |= 1 << perm[u]
            adj[perm[v]] = m
        return Graph.from_adj(tuple(adj))

    # -- connectivity --------------------------------------------------

    def component_masks(self) -> list[int]:
        """Masks of the connected components, ordered by smallest vertex."""
        out = []
        rest = self.vertex_set
        while rest:
            comp = component(self.adj, rest)
            out.append(comp)
            rest ^= comp
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.component_masks()) == 1

    def cycle_space_dim(self) -> int:
        """|E| - |V| + (number of components); 0 iff forest."""
        return self.edge_count() - self.n + len(self.component_masks())

    def is_forest(self) -> bool:
        # n edges or more on n >= 1 vertices leave a cycle: no component
        # pass is needed to say no
        if self.n and self.edge_count() >= self.n:
            return False
        return self.cycle_space_dim() == 0

    def is_tree(self) -> bool:
        return self.n >= 1 and self.is_forest() and self.is_connected()


def twin_status(g: Graph, u: int, v: int) -> str:
    """Classify a vertex pair as true twins, false twins, or neither.

    True twins share closed neighbourhoods (hence are adjacent); false twins
    share open neighbourhoods (hence are non-adjacent).  Deleting the edge
    between true twins turns them into false twins.
    """
    if u == v:
        raise ValueError("twin status needs two distinct vertices")
    g._check_vertex(u)
    g._check_vertex(v)
    if g.closed_neighborhood(u) == g.closed_neighborhood(v):
        return TRUE_TWIN
    if g.open_neighborhood(u) == g.open_neighborhood(v):
        return FALSE_TWIN
    return NEITHER


# -- stock constructors ----------------------------------------------------

def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Star of order n (centre 0 joined to n-1 leaves)."""
    if n < 1:
        raise ValueError("stars need at least 1 vertex")
    return Graph(n, [(0, i) for i in range(1, n)])


def disjoint_union(graphs: Iterable[Graph]) -> Graph:
    """Disjoint union, relabelling each part after the previous ones."""
    adj: list[int] = []
    offset = 0
    for g in graphs:
        adj.extend(m << offset for m in g.adj)
        offset += g.n
    if offset > MAX_VERTICES:
        raise ValueError(f"union has {offset} vertices, cap is {MAX_VERTICES}")
    return Graph.from_adj(tuple(adj))
