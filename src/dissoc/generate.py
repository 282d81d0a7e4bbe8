"""Exhaustive non-isomorphic generation of small graph families.

Free trees come from the successor of Beyer & Hedetniemi ("Constant time
generation of rooted trees", 1980), which emits the canonical level sequence
of every rooted tree.  A sequence is kept when its root is a centre and, for
a bicentral tree, when it is the larger of the two centre rootings; both
conditions (Wright, Richmond, Odlyzko & McKay, 1986) are read off the
sequence, so each isomorphism class appears exactly once, without a dedup
set, and only kept sequences become a ``Graph``.  Unicyclic graphs are trees
plus one non-edge, deduplicated by the cycle-of-rooted-trees key
``unicyclic_key`` (leaf peeling and AHU codes, no search).  General graphs
grow by canonical deletion (McKay, "Isomorph-free exhaustive generation",
1998): each class of the previous order gets one new vertex per
neighbourhood mask, a cheap vertex invariant rejects most children whose new
vertex is not the one it would delete, and canonical form dedups the few
survivors; connected graphs are the connected members of that stream.  Every
lower order is cached; the requested order streams.  Streams are
deterministic and restartable.
graph6 ingestion covers externally generated families beyond the caps.
"""

from __future__ import annotations

import logging
from functools import lru_cache
from typing import Iterable, Iterator

from .canon import canonical_form, unicyclic_key
from .graph import Graph, bits
from .graph6 import Graph6Error, from_graph6

log = logging.getLogger(__name__)

FAMILY_CAPS = {
    "trees": (1, 18),
    "unicyclic": (3, 18),
    "connected": (1, 9),
    "all": (0, 8),
}


def _check_order(family: str, order: int) -> None:
    if family not in FAMILY_CAPS:
        raise ValueError(f"unknown family {family!r}")
    lo, hi = FAMILY_CAPS[family]
    if not lo <= order <= hi:
        raise ValueError(f"family {family!r} supports orders {lo}..{hi}, got {order}")


def family_stream(family: str, order: int) -> Iterator[Graph]:
    """The generated family at one order; a bad family or order raises here,
    before the first graph is asked for."""
    _check_order(family, order)
    gen = {
        "trees": all_trees,
        "unicyclic": all_unicyclic,
        "connected": all_connected,
        "all": all_graphs,
    }[family]
    return gen(order)


# -- free trees --------------------------------------------------------------

def _rooted_level_sequences(n: int) -> Iterator[list[int]]:
    """Canonical level sequences of rooted trees on n vertices, root level 0,
    in decreasing lexicographic order (successor method); each is a fresh
    list."""
    levels = list(range(n))
    while True:
        yield levels[:]
        p = -1
        for i in range(n - 1, 0, -1):
            if levels[i] >= 2:
                p = i
                break
        if p < 0:
            return
        q = p - 1
        while levels[q] != levels[p] - 1:
            q -= 1
        for i in range(p, n):
            levels[i] = levels[i - (p - q)]


def _tree_from_levels(levels: list[int]) -> Graph:
    edges = []
    last_at_level = {0: 0}
    for i in range(1, len(levels)):
        edges.append((last_at_level[levels[i] - 1], i))
        last_at_level[levels[i]] = i
    return Graph(len(levels), edges)


def all_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of free trees on n vertices."""
    _check_order("trees", n)
    for levels in _rooted_level_sequences(n):
        # canonical order puts the root's tallest subtree first, at 1..split-1;
        # if the others are more than one level lower, the root is no centre
        split = levels.index(1, 2) if levels.count(1) > 1 else n
        height = max(levels)
        rest = max(levels[split:], default=0)
        if rest == height:
            # two tallest subtrees: the root is the only centre
            yield _tree_from_levels(levels)
        elif rest == height - 1:
            # the root and its first child are the centres; keep the larger
            # rooting.  Rooted at the child, the old root's subtree is the
            # tallest, so it comes first, then the child's own subtrees.
            other = [0, 1] + [l + 1 for l in levels[split:]]
            other += [l - 1 for l in levels[2:split]]
            if levels >= other:
                yield _tree_from_levels(levels)


# -- unicyclic graphs --------------------------------------------------------

def all_unicyclic(n: int) -> Iterator[Graph]:
    """One representative per class of connected graphs with exactly one
    cycle: every tree of the order plus each non-edge ``u < v``, in that
    order, keeping the first candidate of each class by ``unicyclic_key``."""
    _check_order("unicyclic", n)
    seen: set[bytes] = set()
    for tree in all_trees(n):
        for u in range(n):
            row = tree.adj[u]
            for v in range(u + 1, n):
                if row >> v & 1:
                    continue
                adj = list(tree.adj)
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                adj = tuple(adj)
                key = unicyclic_key(adj)
                if key not in seen:
                    seen.add(key)
                    yield Graph.from_adj(adj)


# -- general and connected graphs --------------------------------------------

def _extend(h: Graph, mask: int) -> Graph:
    """h plus one new vertex adjacent to the vertices of mask."""
    adj = list(h.adj)
    new = h.n
    for u in bits(mask):
        adj[u] |= 1 << new
    adj.append(mask)
    return Graph.from_adj(tuple(adj))


def _extensions(n: int) -> Iterator[Graph]:
    """One graph per class on n vertices, by canonical deletion.

    Each class on n-1 vertices gets a new vertex adjacent to each mask, in
    increasing order.  A candidate survives only if no vertex has a larger
    key (degree, sorted neighbour degrees) than its new vertex.  The first
    survivor of each canonical form is kept.  Every class survives: removing
    a top-key vertex x leaves a class on n-1 vertices, and some mask rebuilds
    the class from it with x as the new vertex.
    """
    if n == 0:
        yield Graph(0)
        return
    seen: set[bytes] = set()
    for h in _classes(n - 1):
        deg = [m.bit_count() for m in h.adj]
        at = [0] * n  # at[d]: vertices of h of degree d
        for u, du in enumerate(deg):
            at[du] |= 1 << u
        above = [0] * n  # above[d]: vertices of h of degree above d
        for d in range(n - 2, -1, -1):
            above[d] = above[d + 1] | at[d + 1]
        for mask in range(1 << h.n):
            d = mask.bit_count()
            # the child's degrees are deg plus one on mask, and d for the new
            # vertex: these vertices have a larger or an equal degree
            if above[d] | at[d] & mask:
                continue
            equal = at[d] & ~mask | at[d - 1] & mask  # d = 0 only on mask 0
            g = _extend(h, mask)
            if equal and _outranked(g.adj, equal):
                continue
            key = canonical_form(g)
            if key not in seen:
                seen.add(key)
                yield g


def _outranked(adj: tuple[int, ...], rivals: int) -> bool:
    """Whether a rival of the last vertex, of the same degree, has larger
    sorted neighbour degrees."""
    deg = [m.bit_count() for m in adj]
    new = len(adj) - 1
    mine = sorted([deg[u] for u in bits(adj[new])])
    return any(sorted([deg[w] for w in bits(adj[u])]) > mine for u in bits(rivals))


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[Graph, ...]:
    return tuple(_extensions(n))


def all_graphs(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of simple graphs on n vertices."""
    _check_order("all", n)
    yield from _extensions(n)


def all_connected(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs: the
    connected members of the all-graphs stream, in its order."""
    _check_order("connected", n)
    for g in _extensions(n):
        if g.is_connected():
            yield g


# -- graph6 streams -----------------------------------------------------------

def ingest_graph6(lines: Iterable[str], strict: bool = True) -> Iterator[Graph]:
    """Decode a newline-delimited graph6 stream in file order.

    Blank lines and the optional ``>>graph6<<`` banner are skipped.  Decode
    failures raise (strict) or are logged with their line number and skipped
    (lenient).
    """
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text == ">>graph6<<":
            continue
        try:
            yield from_graph6(text)
        except Graph6Error as exc:
            if strict:
                raise Graph6Error(f"line {lineno}: {exc}") from exc
            log.warning("skipping line %d: %s", lineno, exc)


def read_graph6_file(path: str, strict: bool = True) -> Iterator[Graph]:
    """ingest_graph6 over the lines of a file.

    Decoding is best-effort so a corrupted byte is reported (or skipped) as a
    bad line rather than aborting the whole file read.
    """
    with open(path, encoding="ascii", errors="replace") as fh:
        yield from ingest_graph6(fh, strict=strict)
