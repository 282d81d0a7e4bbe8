"""Canonical byte strings for isomorphism dedup and reproducible reports.

Two encoders, dispatched on an isomorphism invariant so their outputs can
never collide:

* forests get a ``T``-tagged AHU parenthesis code rooted at tree centres
  (linear time, no search);
* everything else gets a ``G``-tagged adjacency code from an
  individualization-refinement search with automorphism pruning, picking the
  lexicographically largest relabelled adjacency over the search leaves.

Equal strings iff isomorphic graphs.
"""

from __future__ import annotations

from .graph import Graph, bits


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: equal strings exactly for isomorphic graphs."""
    if g.is_forest():
        codes = sorted(_tree_code(g.adj, m) for m in g.component_masks())
        return b"T" + b"".join(codes)
    rows = _canonical_adjacency(g.adj, g.n)
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
    graphs refine identically.
    """
    while work:
        w = work.pop()
        i = 0
        while i < len(cells):
            cell = cells[i]
            if cell & (cell - 1):
                groups: dict[int, int] = {}
                for v in bits(cell):
                    k = (adj[v] & w).bit_count()
                    groups[k] = groups.get(k, 0) | (1 << v)
                if len(groups) > 1:
                    frags = [groups[k] for k in sorted(groups)]
                    cells[i:i + 1] = frags
                    work.extend(frags)
                    i += len(frags) - 1
            i += 1
    return cells


def _canonical_adjacency(adj: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Adjacency rows of a canonical relabelling (max over IR search leaves)."""
    if n == 0:
        return ()
    full = (1 << n) - 1
    state = {"first": None, "best": None}
    autos: list[tuple[int, ...]] = []

    def leaf(cells: list[int]) -> None:
        order = [c.bit_length() - 1 for c in cells]
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        rows = []
        for v in order:
            r = 0
            for u in bits(adj[v]):
                r |= 1 << pos[u]
            rows.append(r)
        code = tuple(rows)
        for slot in ("first", "best"):
            kept = state[slot]
            if kept is None:
                state[slot] = (code, order)
            elif code == kept[0] and order != kept[1]:
                base = kept[1]
                gamma = [0] * n
                for i in range(n):
                    gamma[base[i]] = order[i]
                autos.append(tuple(gamma))
        best = state["best"]
        if code > best[0]:
            state["best"] = (code, order)

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
                for v in bits(done):
                    img |= 1 << gamma[v]
                if img & ~done:
                    done |= img
                    changed = True
        return done

    def search(cells: list[int], fixed: tuple[int, ...]) -> None:
        target = -1
        for i, c in enumerate(cells):
            if c & (c - 1):
                target = i
                break
        if target < 0:
            leaf(cells)
            return
        cell = cells[target]
        done = 0
        for v in bits(cell):
            if done >> v & 1:
                continue
            child = cells[:target] + [1 << v, cell & ~(1 << v)] + cells[target + 1:]
            search(_refine(adj, child, [1 << v]), fixed + (v,))
            done = orbit_closure(done | (1 << v), fixed)
            if done & cell == cell:
                break
        return

    search(_refine(adj, [full], [full]), ())
    return state["best"][0]
