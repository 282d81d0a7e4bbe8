"""Count-monotone graph transformations.

Deleting any edge never decreases the dissociation count, with equality
exactly at true-twin endpoints; rewiring the pendant bundle at a
quasi-pendant vertex into length-two paths strictly increases it (outside
one degenerate star case); and deleting non-tree edges one by one walks any
connected graph down to a spanning tree through a non-decreasing chain of
counts.  Each step is returned as a before/after record with the twin status
of the touched edge as the structural witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, bits, twin_status
from .counting import count

STRICT_INCREASE = "strict-increase"
EQUAL = "equal"


@dataclass(frozen=True)
class ComparisonRecord:
    """One edge deletion: counts on both sides plus the twin witness."""

    edge: tuple[int, int]
    before: int
    after: int
    relation: str
    twins: str

    def __post_init__(self):
        expected = EQUAL if self.before == self.after else STRICT_INCREASE
        if self.relation != expected:
            raise ValueError(f"relation {self.relation} inconsistent with counts")


def delete_edge_check(g: Graph, u: int, v: int) -> ComparisonRecord:
    """Compare counts of G and G-uv; equality happens iff u,v are true twins."""
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge")
    before = count(g)
    after = count(g.without_edge(u, v))
    relation = EQUAL if before == after else STRICT_INCREASE
    return ComparisonRecord((u, v), before, after, relation, twin_status(g, u, v))


def find_quasi_pendants(g: Graph) -> list[tuple[int, tuple[int, ...]]]:
    """Vertices of degree >= 2 with pendant neighbours, with those neighbours."""
    out = []
    for v in range(g.n):
        if g.degree(v) < 2:
            continue
        pendants = tuple(u for u in bits(g.adj[v]) if g.degree(u) == 1)
        if pendants:
            out.append((v, pendants))
    return out


def quasi_pendant_transform(g: Graph, u_q: int) -> Graph:
    """Rewire the s >= 2 pendants of u_q into paths of length two.

    Pendants pair up in ascending order; the second of each pair detaches
    from u_q and hangs off the first, so u_q keeps ceil(s/2) of its former
    pendant edges (the unpaired last pendant stays put when s is odd).  Order
    and the rest of the graph are unchanged.
    """
    g._check_vertex(u_q)
    if g.degree(u_q) < 2:
        raise ValueError(f"vertex {u_q} is not quasi-pendant")
    pendants = [u for u in bits(g.adj[u_q]) if g.degree(u) == 1]
    if len(pendants) < 2:
        raise ValueError(f"vertex {u_q} carries {len(pendants)} pendant(s), need >= 2")
    out = g
    for i in range(0, len(pendants) - 1, 2):
        keep, move = pendants[i], pendants[i + 1]
        out = out.without_edge(u_q, move).with_edge(keep, move)
    return out


def spanning_tree_chain(g: Graph) -> list[ComparisonRecord]:
    """Delete non-tree edges one at a time down to a DFS spanning tree.

    Returns the per-step records (cycle-space dimension many); counts along
    the chain never decrease.  Rejects disconnected input.
    """
    if not g.is_connected():
        raise ValueError("spanning tree chain needs a connected graph")
    tree_edges = set()
    seen = 1 << 0 if g.n else 0
    stack = [0] if g.n else []
    while stack:
        v = stack.pop()
        for u in bits(g.adj[v]):
            if not seen >> u & 1:
                seen |= 1 << u
                tree_edges.add((min(u, v), max(u, v)))
                stack.append(u)
    extra = sorted(e for e in g.edges() if e not in tree_edges)
    records = []
    current = g
    for u, v in extra:
        rec = delete_edge_check(current, u, v)
        records.append(rec)
        current = current.without_edge(u, v)
    return records
