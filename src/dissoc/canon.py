"""Canonical byte strings for isomorphism dedup and reproducible reports.

Two encoders, dispatched on an isomorphism invariant so their outputs can
never collide:

* forests get a ``T``-tagged AHU parenthesis code rooted at tree centres
  (linear time, no search);
* everything else gets a ``G``-tagged adjacency code from an
  individualization-refinement search with automorphism pruning, picking the
  lexicographically largest relabelled adjacency over the search leaves.

Equal strings iff isomorphic graphs.

``automorphisms`` runs the same search on any graph and returns the
automorphisms it met: two leaves with equal codes differ by one.  The
search prunes only subtrees that a found automorphism maps onto explored
ones, so every leaf has an explored image under the group they generate,
and that group is the whole automorphism group (McKay & Piperno,
"Practical graph isomorphism, II", 2014).  Canonical deletion relies on
this to emit a child with no canonical form.  A leaf off the first path
whose code is the first leaf's ends its whole subtree: the search jumps
back to the first-path node where the leaf's path left it, because the
automorphism just found maps the explored first-path child of that node
onto the subtree being searched, leaves and codes alike.  So the maximum
code stays the same, and each first-path node still sees one automorphism
per orbit it prunes, as in nauty.  On K_40 the search meets 40 leaves and
keeps 39 automorphisms.
"""

from __future__ import annotations

from .graph import Graph, bits


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: equal strings exactly for isomorphic graphs."""
    if g.is_forest():
        codes = sorted(_tree_code(g.adj, m) for m in g.component_masks())
        return b"T" + b"".join(codes)
    rows = _canonical_adjacency(g.adj, g.n)[0]
    width = 4 if g.n <= 32 else 8
    return b"G" + bytes([g.n]) + b"".join(r.to_bytes(width, "little") for r in rows)


# -- trees -------------------------------------------------------------------

def peel(adj: tuple[int, ...], comp: int) -> int:
    """The centre of tree component ``comp`` (one vertex or an edge): strip
    whole layers of leaves while more than two vertices remain."""
    deg = [(m & comp).bit_count() for m in adj]
    alive = comp
    remaining = comp.bit_count()
    leaves = [v for v in bits(comp) if deg[v] <= 1]
    while remaining > 2 and leaves:
        nxt = []
        for v in leaves:
            alive &= ~(1 << v)
            remaining -= 1
            # a leaf has at most one neighbour left
            u = (adj[v] & alive).bit_length() - 1
            if u >= 0:
                deg[u] -= 1
                if deg[u] == 1:
                    nxt.append(u)
        leaves = nxt
    return alive


def _rooted_code(adj: tuple[int, ...], within: int, v: int) -> bytes:
    """AHU code of the tree of ``within`` rooted at ``v``: children's codes
    sorted, wrapped in one parenthesis pair.  ``v``'s parent, if any, must
    already be outside ``within``."""
    within &= ~(1 << v)
    kids = adj[v] & within
    if not kids:
        return b"()"
    subs = sorted([_rooted_code(adj, within, u) for u in bits(kids)])
    return b"(" + b"".join(subs) + b")"


def _tree_code(adj: tuple[int, ...], comp: int) -> bytes:
    """AHU code of one tree component, rooted at its centre(s)."""
    return max(_rooted_code(adj, comp, c) for c in bits(peel(adj, comp)))


# -- general graphs ---------------------------------------------------------

def _refine(adj: tuple[int, ...], cells: list[int], work: list[int]) -> list[int]:
    """Equitable refinement of an ordered partition (cells are bitmasks).

    Fragments are ordered by neighbour count towards the splitter, which is
    an isomorphism-invariant rule, so corresponding partitions of isomorphic
    graphs refine identically.  A one-vertex splitter splits a cell into its
    non-neighbours, then its neighbours.  A discrete partition is returned
    at once: nothing can split it.
    """
    n = len(adj)
    while work and len(cells) < n:
        w = work.pop()
        out = []
        if w & (w - 1):
            for cell in cells:
                if cell & (cell - 1):
                    groups: dict[int, int] = {}
                    rest = cell
                    while rest:
                        low = rest & -rest
                        k = (adj[low.bit_length() - 1] & w).bit_count()
                        groups[k] = groups.get(k, 0) | low
                        rest ^= low
                    if len(groups) > 1:
                        frags = [groups[k] for k in sorted(groups)]
                        out += frags
                        work += frags
                        continue
                out.append(cell)
        else:
            nbrs = adj[w.bit_length() - 1]
            for cell in cells:
                inside = cell & nbrs
                if inside and inside != cell:
                    frags = [cell ^ inside, inside]
                    out += frags
                    work += frags
                else:
                    out.append(cell)
        cells = out
    return cells


def automorphisms(g: Graph) -> list[list[int]]:
    """Automorphisms of g that generate its whole automorphism group, as
    vertex maps (``p[v]`` is the image of v); ``[]`` when the group is
    trivial.  They come from the search behind ``canonical_form``, run on
    any graph, forests included."""
    return _canonical_adjacency(g.adj, g.n)[1]


def _canonical_adjacency(
    adj: tuple[int, ...], n: int
) -> tuple[tuple[int, ...], list[list[int]]]:
    """Adjacency rows of a canonical relabelling (max over IR search leaves),
    and the automorphisms the search found."""
    autos: list[list[int]] = []
    if n == 0:
        return (), autos
    full = (1 << n) - 1
    first = best = None  # (code, order) of the first leaf and of the best one
    first_path: tuple[int, ...] = ()  # the vertices individualised on the way to it

    def leaf(cells: list[int], fixed: tuple[int, ...]) -> int | None:
        """Record a leaf; return the depth to jump back to when its code is
        the first leaf's, None otherwise."""
        nonlocal first, best, first_path
        order = [c.bit_length() - 1 for c in cells]
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        rows = []
        for v in order:
            r = 0
            rest = adj[v]
            while rest:
                low = rest & -rest
                r |= 1 << pos[low.bit_length() - 1]
                rest ^= low
            rows.append(r)
        code = tuple(rows)
        if first is None:
            first = best = (code, order)
            first_path = fixed
            return None
        jump = None
        for kept in (first,) if best is first else (first, best):
            if code == kept[0]:
                base = kept[1]
                gamma = [0] * n
                for i in range(n):
                    gamma[base[i]] = order[i]
                autos.append(gamma)
                if kept is first:
                    # gamma maps the first path's subtree at the depth where
                    # this leaf left it onto the one this leaf lies in
                    jump = 0
                    while fixed[jump] == first_path[jump]:
                        jump += 1
        if code > best[0]:
            best = (code, order)
        return jump

    def orbit_closure(done: int, fixed: tuple[int, ...]) -> int:
        changed = True
        while changed:
            changed = False
            for gamma in autos:
                ok = True
                for f in fixed:
                    if gamma[f] != f:
                        ok = False
                        break
                if not ok:
                    continue
                img = 0
                rest = done
                while rest:  # bits() inlined, as in leaf
                    low = rest & -rest
                    img |= 1 << gamma[low.bit_length() - 1]
                    rest ^= low
                if img & ~done:
                    done |= img
                    changed = True
        return done

    def search(cells: list[int], fixed: tuple[int, ...]) -> int | None:
        """Explore a node; return the depth of the first-path node to jump
        back to, or None when the node was explored in full."""
        target = -1
        for i, c in enumerate(cells):
            if c & (c - 1):
                target = i
                break
        if target < 0:
            return leaf(cells, fixed)
        cell = cells[target]
        depth = len(fixed)
        done = 0
        rest = cell
        while rest:  # bits() inlined, as in leaf
            low = rest & -rest
            rest ^= low
            if done & low:
                continue
            child = cells[:target] + [low, cell ^ low] + cells[target + 1:]
            jump = search(_refine(adj, child, [low]), fixed + (low.bit_length() - 1,))
            if jump is not None and jump < depth:
                return jump
            done = orbit_closure(done | low, fixed)
            if done & cell == cell:
                break
        return None

    search(_refine(adj, [full], [full]), ())
    return best[0], autos
