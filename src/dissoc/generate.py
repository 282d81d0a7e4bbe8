"""Exhaustive non-isomorphic generation of small graph families.

Free trees come from the successor of Beyer & Hedetniemi ("Constant time
generation of rooted trees", 1980), which emits the canonical level sequence
of every rooted tree.  A sequence is kept when its root is a centre and, for
a bicentral tree, when it is the larger of the two centre rootings; both
conditions (Wright, Richmond, Odlyzko & McKay, 1986) are read off the
sequence, so each isomorphism class appears exactly once, without a dedup
set, and only kept sequences become a ``Graph``.  After a sequence whose
root is no centre, one step at an earlier position skips every later
sequence that keeps its root's first subtree, or enough of that subtree to
leave the others too few vertices.  The stream keeps one adjacency, with
each tree labelled in preorder: a step changes the sequence only from the
position it steps at, so before each yield the vertices from the first
position stepped since the last yield are unhooked and hung again, each
from the first vertex one level up on the climb from its predecessor
through the parents.  A unicyclic graph is a cycle of rooted
trees, built once per class from its sequence of rooted trees that is
smallest under rotation and reflection.  General graphs
grow by canonical deletion (McKay, "Isomorph-free exhaustive generation",
1998): each class of the previous order gets one new vertex per
neighbourhood mask, taking one mask per orbit of the class's automorphism
group (the least, so the stream is the one that trying every mask gives).
A vertex key (degree, sorted neighbour degrees) ranks the new vertex
against the others: a child is dropped when another vertex outranks it,
emitted with no canonical form when it ranks first alone, and checked
against the other tied children only when it ties.  Tied children are
bucketed by a cheap invariant (the sorted multiset of the vertices' sorted
neighbour degrees); one whose bucket is new is new to its class, and
canonical forms are computed only in a bucket that a second child reaches.
Connected graphs are the connected candidates of that stream, filtered
before dedup.  Every lower order is cached; the requested order streams.
Streams are deterministic and restartable.
graph6 ingestion covers externally generated families beyond the caps.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Iterator

from .canon import automorphisms, canonical_form
from .graph import Graph
from .graph6 import Graph6Error, from_graph6

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

def _step(levels: list[int], p: int) -> None:
    """The Beyer-Hedetniemi step at position p, whose level is at least 2:
    the largest canonical sequence that agrees with ``levels`` before p and
    has one level less at p.  From p on, the levels repeat those from p's
    parent q on, with period p - q, so the result depends only on
    ``levels[:p + 1]``."""
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    for i in range(p, len(levels)):
        levels[i] = levels[i - (p - q)]


def _successor(levels: list[int]) -> int:
    """Step to the next canonical sequence, at the last position of level 2
    or more, and return that position; 0, with ``levels`` unchanged, if there
    is none."""
    for p in range(len(levels) - 1, 0, -1):
        if levels[p] >= 2:
            _step(levels, p)
            return p
    return 0


def _rooted_level_sequences(n: int) -> Iterator[list[int]]:
    """Canonical level sequences of rooted trees on n vertices, root level 0,
    in decreasing lexicographic order (successor method); each is a fresh
    list."""
    levels = list(range(n))
    yield levels[:]
    while _successor(levels):
        yield levels[:]


def _hang(levels: list[int], root: int, first: int, adj: list[int]) -> int:
    """Add to the adjacency masks ``adj`` the rooted tree with level
    sequence ``levels``: its root is vertex ``root`` and its other vertices
    are ``first``, ``first + 1``, ... in sequence order.  Return the next
    free vertex."""
    last_at_level = [root] * len(levels)
    v = first
    for level in levels[1:]:
        u = last_at_level[level - 1]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        last_at_level[level] = v
        v += 1
    return v


def all_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of free trees on n vertices."""
    _check_order("trees", n)
    levels = list(range(n))
    # one adjacency for the whole stream: before each yield, the vertices
    # from ``moved`` on, the first position stepped since the last yield,
    # are unhooked from their old parents and hung again
    adj = [0] * n
    parent = [0] * n
    moved = 1
    while True:
        # canonical order puts the root's tallest subtree first, at 1..split-1;
        # if the others are more than one level lower, the root is no centre
        split = levels.index(1, 2) if levels.count(1) > 1 else n
        height = max(levels)
        rest = max(levels[split:], default=0)
        if rest < height - 1:
            # the root is no centre; skip every later sequence that keeps
            # levels[:p + 1], as none has its root as a centre either
            if split - 1 + height <= n:
                # the rests that follow this first subtree come in
                # decreasing order, so none is taller than this one
                p = split - 1
            else:
                # the tallest path comes first, so a first subtree that
                # keeps positions 1..p has p vertices and height at least
                # min(p, height); once their sum passes n, the other
                # subtrees hold too few vertices to reach height - 1
                p = max(n - height + 1, n // 2 + 1)
            _step(levels, p)
            moved = min(moved, p)
            continue
        if rest == height:
            # two tallest subtrees: the root is the only centre
            keep = True
        else:
            # the root and its first child are the centres; keep the larger
            # rooting.  Rooted at the child, the old root's subtree is the
            # tallest, so it comes first, then the child's own subtrees.
            other = [0, 1] + [l + 1 for l in levels[split:]]
            other += [l - 1 for l in levels[2:split]]
            keep = levels >= other
        if keep:
            for i in range(moved, n):
                adj[parent[i]] &= ~(1 << i)
            for i in range(moved, n):
                # i's parent is the last vertex before it one level up: climb
                # to it from i - 1, whose ancestors are already hung again
                u = i - 1
                while levels[u] >= levels[i]:
                    u = parent[u]
                parent[i] = u
                adj[i] = 1 << u
                adj[u] |= 1 << i
            moved = n
            yield Graph.from_adj(tuple(adj))
        p = _successor(levels)
        if not p:
            return
        moved = min(moved, p)


# -- unicyclic graphs --------------------------------------------------------

def _least(seq: list[int], maps: list[tuple[int, ...]]) -> list | None:
    """The maps of ``maps`` that fix ``seq``, or None if one makes it
    smaller; a map ``p`` sends ``seq`` to ``[seq[j] for j in p]``."""
    fixed = []
    for p in maps:
        image = [seq[j] for j in p]
        if image < seq:
            return None
        if image == seq:
            fixed.append(p)
    return fixed


def all_unicyclic(n: int) -> Iterator[Graph]:
    """One representative per class of connected graphs with exactly one
    cycle: a cycle 0..r-1 with a rooted tree hung from each cycle vertex.

    A tree is labelled by its size, then its index among the rooted trees of
    that size.  Two such graphs are isomorphic exactly when their label
    sequences agree up to rotation and reflection, so each class is built
    once, from its smallest sequence.  That sequence has the smallest sizes
    too, so only the symmetries that fix its sizes can make it smaller."""
    _check_order("unicyclic", n)
    rooted = {k: list(_rooted_level_sequences(k)) for k in range(1, n - 1)}
    for r in range(3, n + 1):
        rotations = [tuple((i + j) % r for j in range(r)) for i in range(r)]
        symmetries = rotations[1:] + [p[::-1] for p in rotations]
        cycle = [0] * n
        for i in range(r):
            cycle[i] = 1 << (i - 1) % r | 1 << (i + 1) % r
        for cuts in combinations(range(1, n), r - 1):
            # lists, not tuples: CPython keeps up to 2,000 freed tuples per length
            sizes = [b - a for a, b in zip((0,) + cuts, cuts + (n,))]
            fixed = _least(sizes, symmetries)
            if fixed is None:
                continue
            for seq in product(*(range(len(rooted[k])) for k in sizes)):
                if _least(list(seq), fixed) is not None:
                    adj = cycle[:]
                    first = r
                    for root, (k, i) in enumerate(zip(sizes, seq)):
                        first = _hang(rooted[k][i], root, first, adj)
                    yield Graph.from_adj(tuple(adj))


# -- general and connected graphs --------------------------------------------

def _extend(adj: tuple[int, ...], mask: int) -> Graph:
    """The graph of adjacency ``adj`` plus one new vertex adjacent to the
    vertices of mask."""
    out = list(adj)
    new = 1 << len(adj)
    rest = mask
    while rest:  # bits() inlined, as in _orbit
        low = rest & -rest
        out[low.bit_length() - 1] |= new
        rest ^= low
    out.append(mask)
    return Graph.from_adj(tuple(out))


def _candidates(n: int) -> Iterator[tuple[Graph, bool]]:
    """Children on n vertices that may stand for their class, each with
    whether its new vertex ties for the top key.

    Each class on n-1 vertices gets a new vertex adjacent to each mask, in
    increasing order, taking only the least mask of each orbit of the
    parent's automorphism group.  A child survives only if no vertex has a
    larger key (degree, sorted neighbour degrees) than its new vertex; the
    keys are read off the parent and the mask, so only survivors are built.
    Every class survives: removing a top-key vertex x leaves a class on n-1
    vertices, and the least mask of some orbit rebuilds the class from it
    with x as the new vertex.

    A child whose new vertex has the top key alone is the only survivor of
    its class: an isomorphism between two such children maps new vertex to
    new vertex, so they share a parent and their masks share an orbit.
    """
    if n == 0:
        yield Graph(0), False
        return
    for h in _classes(n - 1):
        adj = h.adj
        deg = [m.bit_count() for m in adj]
        at = [0] * n  # at[d]: vertices of h of degree d
        for u, du in enumerate(deg):
            at[du] |= 1 << u
        above = [0] * n  # above[d]: vertices of h of degree above d
        for d in range(n - 2, -1, -1):
            above[d] = above[d + 1] | at[d + 1]
        autos = automorphisms(h)
        taken: set[int] = set()  # the orbits of the masks already tried
        for mask in range(1 << h.n):
            d = mask.bit_count()
            # the child's degrees are deg plus one on mask, and d for the new
            # vertex: these vertices have a larger or an equal degree
            if above[d] | at[d] & mask:
                continue
            if autos:  # with a trivial group every mask is its own orbit
                if mask in taken:
                    continue
                taken |= _orbit(mask, autos)
            equal = at[d] & ~mask | at[d - 1] & mask  # d = 0 only on mask 0
            tied = _tied(adj, deg, mask, equal) if equal else False
            if tied is not None:
                yield _extend(adj, mask), tied


def _orbit(mask: int, autos: list[list[int]]) -> set[int]:
    """The masks that the group generated by ``autos`` maps ``mask`` to."""
    orbit = {mask}
    todo = [mask]
    for m in todo:
        for p in autos:
            image = 0
            rest = m
            while rest:
                low = rest & -rest
                image |= 1 << p[low.bit_length() - 1]
                rest ^= low
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


def _tied(adj: tuple[int, ...], deg: list[int], mask: int, rivals: int) -> bool | None:
    """Rank the new vertex that ``_extend(adj, mask)`` would add against its
    rivals of the same degree by sorted neighbour degrees, read off the
    parent's adjacency and degrees ``deg``: None if a rival ranks above it,
    True if one ties with it, False if it ranks first alone."""
    # in the child, a vertex of mask has one more neighbour, and a rival in
    # mask has the new vertex, of degree |mask|, as one more neighbour
    mine = []
    rest = mask
    while rest:  # bits() inlined, as in _orbit
        low = rest & -rest
        mine.append(deg[low.bit_length() - 1] + 1)
        rest ^= low
    mine.sort()
    tied = False
    while rivals:
        bit = rivals & -rivals
        rivals ^= bit
        theirs = [len(mine)] if mask & bit else []
        rest = adj[bit.bit_length() - 1]
        while rest:
            low = rest & -rest
            theirs.append(deg[low.bit_length() - 1] + (1 if mask & low else 0))
            rest ^= low
        theirs.sort()
        if theirs > mine:
            return None
        tied = tied or theirs == mine
    return tied


def _invariant(adj: tuple[int, ...]) -> int:
    """Hash of an isomorphism invariant: the sorted multiset of the
    vertices' neighbour-degree multisets."""
    # a multiset of degrees as one int, 4 bits per degree: at most 8
    # neighbours share a degree, as the generators stop at 9 vertices
    weight = [1 << 4 * m.bit_count() for m in adj]
    sums = []
    for m in adj:
        x = 0
        while m:
            low = m & -m
            x += weight[low.bit_length() - 1]
            m ^= low
        sums.append(x)
    sums.sort()
    return hash(tuple(sums))


def _dedup(candidates: Iterable[tuple[Graph, bool]]) -> Iterator[Graph]:
    """The first candidate of each class: any candidate but a tied one is
    its class's only candidate.  A tied candidate whose invariant no earlier
    tied candidate had is new to its class; the others are compared by
    canonical form, the bucket's first member included once a second one
    lands in it."""
    held: dict[int, tuple[int, ...] | None] = {}  # invariant -> first member, until canonised
    seen: set[bytes] = set()
    for g, tied in candidates:
        if tied:
            inv = _invariant(g.adj)
            if inv not in held:
                held[inv] = g.adj
            else:
                adj = held[inv]
                if adj is not None:
                    seen.add(canonical_form(Graph.from_adj(adj)))
                    held[inv] = None
                key = canonical_form(g)
                if key in seen:
                    continue
                seen.add(key)
        yield g


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[Graph, ...]:
    return tuple(_dedup(_candidates(n)))


def all_graphs(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of simple graphs on n vertices."""
    _check_order("all", n)
    yield from _dedup(_candidates(n))


def all_connected(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs: the
    connected members of the all-graphs stream, in its order.  A
    disconnected candidate never shares a class with a connected one, so it
    is dropped before dedup."""
    _check_order("connected", n)
    yield from _dedup((g, tied) for g, tied in _candidates(n) if g.is_connected())


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
            import logging  # imported only when a bad line is skipped

            logging.getLogger(__name__).warning("skipping line %d: %s", lineno, exc)


def read_graph6_file(path: str, strict: bool = True) -> Iterator[Graph]:
    """ingest_graph6 over the lines of a file.

    Decoding is best-effort so a corrupted byte is reported (or skipped) as a
    bad line rather than aborting the whole file read.
    """
    with open(path, encoding="ascii", errors="replace") as fh:
        yield from ingest_graph6(fh, strict=strict)
