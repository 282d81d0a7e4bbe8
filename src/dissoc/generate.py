"""Exhaustive non-isomorphic generation of small graph families.

Free trees come from the rooted level-sequence successor generator filtered
to centre-canonical rootings, so each isomorphism class appears exactly once
without a dedup set.  Unicyclic graphs are trees plus one non-edge,
deduplicated by the cycle-of-rooted-trees key ``unicyclic_key`` (leaf peeling
and AHU codes, no search).  Connected and general graphs are one-vertex
extensions of the previous order, deduplicated by canonical form.  Streams
are deterministic and restartable.
graph6 ingestion covers externally generated families beyond the caps.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from .canon import canonical_form, peel, unicyclic_key
from .graph import Graph, bits
from .graph6 import Graph6Error, from_graph6

log = logging.getLogger(__name__)

FAMILY_CAPS = {
    "trees": (1, 18),
    "unicyclic": (3, 18),
    "connected": (1, 9),
    "all": (0, 8),
}


@dataclass(frozen=True)
class FamilySpec:
    """A generable family at a fixed order."""

    family: str
    order: int

    def validate(self) -> None:
        if self.family not in FAMILY_CAPS:
            raise ValueError(f"unknown family {self.family!r}")
        lo, hi = FAMILY_CAPS[self.family]
        if not lo <= self.order <= hi:
            raise ValueError(
                f"family {self.family!r} supports orders {lo}..{hi}, got {self.order}"
            )


def family_stream(spec: FamilySpec) -> Iterator[Graph]:
    spec.validate()
    gen = {
        "trees": all_trees,
        "unicyclic": all_unicyclic,
        "connected": all_connected,
        "all": all_graphs,
    }[spec.family]
    return gen(spec.order)


# -- free trees --------------------------------------------------------------

def _rooted_level_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """Canonical level sequences of rooted trees on n vertices, root level 0,
    in decreasing lexicographic order (successor method)."""
    levels = list(range(n))
    while True:
        yield tuple(levels)
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


def _tree_from_levels(levels: tuple[int, ...]) -> Graph:
    edges = []
    last_at_level = {0: 0}
    for i in range(1, len(levels)):
        edges.append((last_at_level[levels[i] - 1], i))
        last_at_level[levels[i]] = i
    return Graph(len(levels), edges)


def _rooted_canonical_levels(adj: tuple[int, ...], root: int) -> tuple[int, ...]:
    """Lexicographically largest level sequence of (tree, root): children in
    descending subtree-sequence order."""

    def sub(v: int, parent: int, depth: int) -> tuple[int, ...]:
        subs = sorted(
            (sub(u, v, depth + 1) for u in bits(adj[v]) if u != parent),
            reverse=True,
        )
        out = [depth]
        for s in subs:
            out.extend(s)
        return tuple(out)

    return sub(root, -1, 0)


def all_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of free trees on n vertices."""
    FamilySpec("trees", n).validate()
    for levels in _rooted_level_sequences(n):
        g = _tree_from_levels(levels)
        centers = peel(g.adj, g.vertex_set, 2)
        if not centers & 1:
            continue
        if centers == 1:
            # the generator already emits the canonical rooting at the centre
            yield g
        elif levels == max(_rooted_canonical_levels(g.adj, c) for c in bits(centers)):
            yield g


# -- unicyclic graphs --------------------------------------------------------

def all_unicyclic(n: int) -> Iterator[Graph]:
    """One representative per class of connected graphs with exactly one
    cycle: every tree of the order plus each non-edge ``u < v``, in that
    order, keeping the first candidate of each class by ``unicyclic_key``."""
    FamilySpec("unicyclic", n).validate()
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


def _extensions(n: int, masks: Callable[[Graph], Iterable[int]]) -> Iterator[Graph]:
    """Each class on n-1 vertices plus one new vertex adjacent to each mask
    of ``masks(class)``, in that order, keeping the first candidate of each
    canonical form."""
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


def all_graphs(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of simple graphs on n vertices."""
    FamilySpec("all", n).validate()
    yield from _graph_classes(n)


def _meets_every_component(h: Graph) -> list[int]:
    """Neighbourhoods of a new vertex that join h into one component."""
    comps = h.component_masks()
    return [mask for mask in range(1 << h.n) if all(mask & c for c in comps)]


def all_connected(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs.

    Extends every (n-1)-vertex class by a new vertex whose neighbourhood
    meets every component, which reaches exactly the connected classes.
    """
    FamilySpec("connected", n).validate()
    yield from _extensions(n, _meets_every_component)


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
