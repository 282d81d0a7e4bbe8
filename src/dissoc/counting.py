"""Exact dissociation-set counting.

A vertex subset is a dissociation set when it induces a subgraph of maximum
degree at most one.  One engine counts them: the three-way branching
recurrence at a pivot v,

    D(G) = D(G-v) + x D(G-N[v]) + x^2 sum over u in N(v) of D(G - (N[u] u N[v]))

(v excluded, v isolated in the set, v matched to a neighbour u), with
component multiplicativity D(G u H) = D(G) D(H) and a memo keyed by the
surviving-vertex bitmask of the original graph.  D(G) = sum_k d(G,k) x^k is
the dissociation polynomial.

A mask of at most two vertices needs no work: every subset of it is a
dissociation set, so D = (1 + x)^|mask|.  Any other memo miss makes one
breadth-first walk from the lowest vertex of the mask.  The walk yields the
component of that vertex, its degree sum, a maximum-degree pivot (the first
in walk order) and each walked vertex's parent.  A mask the walk does not
cover is the walked component times the rest.  The degree sum alone decides
how a component is solved.  At 2(|component| - 1) it is a tree, and a linear
three-state fold over the walk, from the leaves to the root, gives D(T).  At
2|component| it has exactly one cycle, so the walk's tree misses one edge;
the same fold over that tree, with the two ends of the missing edge weighed
in slots of their own, gives D(C) with no branch.  Only a component with two
or more edges beyond a spanning tree branches at the pivot.  Paths, stars,
cycles and every other tree or one-cycle graph are folded, so none needs a
closed form of its own.

The engine evaluates D at x = 2^w for a slot width w (Kronecker
substitution): the isolated branch is shifted left by w, the matched branches
by 2w, and the component product stays one int multiply.  With w = 0 the
value is D(1) = d(G), the count.  With w = n + 1 every coefficient
d(G[mask], k) <= C(|mask|, k) < 2^w fits its own w-bit slot, and since every
term is non-negative no carry crosses a slot, so slicing the int into n + 1
slots reads off d(G, 0..n).  The fold uses the same shifts, so it serves
every width; the end weights of a one-cycle fold use slots wider than any
value at x = 2^w and are summed away before it returns.  The memo of
``dissociation_polynomial`` and ``branch_partition`` lives for one call, so
values of different widths never meet.

``count`` keeps one memo across calls, for the graphs that would branch:
those with at least n + 1 edges (two or more beyond a spanning tree when
connected) whose last vertex has two neighbours or more.  Canonical
deletion emits the children g = h + v of one parent h in a row, and each
child's first n - 1 vertices induce h.  So ``count`` keeps one slot: the
first n - 1 rows of the last such graph, with bit n - 1 cleared, and a
memo.  A graph whose rows differ resets the slot to an empty memo and is
counted with a fresh one; a graph whose rows match branches at its last
vertex v on the slot's memo.  Every mask that branch asks for, and every
mask below it, lies inside h, so the memo holds values of induced
subgraphs of h alone, and they hold for every sibling.

Beside it, ``count`` keeps a tree slot, for graphs with n >= 3 vertices
and n - 1 edges.  The free-tree stream labels each tree in preorder, and
consecutive trees of it share most of their first parents.  In preorder a
vertex's lowest neighbour is its parent, and the fold can run in vertex
order on a stack that holds the path from the last vertex to the root.  The
slot holds each vertex's lowest-neighbour bit from the last tree counted
this way and the stack saved after each of its vertices; the next tree
folds on from the stack saved before its first vertex whose bit differs.
A graph in which some vertex's lowest neighbour is above it or off the
stack is no tree in preorder: it takes the walk, and the slot stays as it
was.  A graph that passes is a tree, as its n - 1 edges, one from each
vertex i >= 1 down to a neighbour below i, connect it.

Closed forms for paths, stars, cycles and the extremal tree/unicyclic
maxima live here too.
All arithmetic is exact (Python ints); counts grow like 2^n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import MAX_VERTICES, Graph, bits


def is_dissociation(g: Graph, mask: int) -> bool:
    """True when every vertex of G[mask] has at most one neighbour in mask."""
    if mask & ~g.vertex_set:
        raise ValueError("vertex set outside graph")
    for v in bits(mask):
        if (g.adj[v] & mask).bit_count() > 1:
            return False
    return True


# -- counting engine ---------------------------------------------------------

def _branches(adj: tuple[int, ...], mask: int, v: int) -> list[int]:
    """Surviving-vertex masks of the branches at v within mask: v excluded,
    v isolated in the set, then v matched to each neighbour in turn."""
    nbrs = adj[v] & mask
    closed = nbrs | (1 << v)
    out = [mask ^ (1 << v), mask & ~closed]
    while nbrs:  # bits() inlined, as in the walk below
        low = nbrs & -nbrs
        out.append(mask & ~(closed | adj[low.bit_length() - 1] | low))
        nbrs ^= low
    return out


def _fold(out: list[int], alone: list[int], paired: list[int], up: list[int]) -> int:
    """Fold a walked tree from the leaves up to the root, where up[i] is the
    position in the walk of the parent of its i-th vertex (up[0] = 0 for the
    root), and return the sum of the root's states.

    Each vertex v holds three sums of x^|S| over the dissociation sets S of
    its subtree, starting from v alone: v not in S, v in S with no neighbour
    in S (alone), and v in S matched to one child (paired).  A child c folds
    into its parent p as: p out takes any state of c; p alone takes c out;
    p paired was paired with c out, or was alone with c alone, which pairs
    the two.  ``_pop`` makes the same update on the fold stack of
    ``_count_preorder``.
    """
    for i in range(len(up) - 1, 0, -1):
        p = up[i]
        o = out[i]
        a = alone[i]
        out[p] *= o + a + paired[i]
        paired[p] = paired[p] * o + alone[p] * a
        alone[p] *= o
    return out[0] + alone[0] + paired[0]


def _tree(up: list[int], w: int) -> int:
    """D(T) at x = 2^w for a tree T walked breadth-first."""
    size = len(up)
    return _fold([1] * size, [1 << w] * size, [0] * size, up)


def _ring(adj: tuple[int, ...], comp: int, order: list[int], up: list[int], w: int) -> int:
    """D(C) at x = 2^w for a connected C with exactly one cycle, walked
    breadth-first.

    The walk's tree T misses one edge ab of C.  A dissociation set S of T is
    one of C unless a and b are both in S and not both alone in T.  So one
    fold of T weighs each end by its state, in slots of k bits: out of S
    weighs 1, alone in T weighs 2^k, paired in T weighs 2^2k.  A set lands
    in slot 0, 1 or 2 with an end out, in slot 2 with both ends alone, and
    in slot 3 (alone and paired) or 4 (both paired) when it is no
    dissociation set of C.  With k wide enough that no slot overflows, D(C)
    is the sum of slots 0 to 2 of the fold.

    The weights go into an end's starting states (1, x, 0), mapped by
    M(out, alone, paired) = (out, alone 2^2k, alone 2^k + (paired - alone) 2^2k).
    Folding a child into M(s) gives M of s with that child folded in, so the
    end reaches its parent, or the root's sum, as M of its true states.  An
    alone end joins an alone parent, which pairs the two: 2^2k.  An out
    parent, and the root's sum, take the sum of the end's states, in which
    alone weighs 2^k and paired 2^2k.
    """
    size = len(order)
    # the ends of the missing edge are the walk positions whose degree
    # exceeds their degree in the walk's tree; the root is neither, as all
    # its edges go down in a breadth-first walk
    spare = [(adj[v] & comp).bit_count() - 1 for v in order]  # less the edge up
    for p in up[1:]:  # less the edges down
        spare[p] -= 1
    a = spare.index(1)
    b = spare.index(1, a + 1)

    k = (w + 1) * size + 1  # a slot holds at most D(T) <= (1 + 2^w)^|C| < 2^k
    x = 1 << w
    alone = [x] * size
    paired = [0] * size
    alone[a] = alone[b] = x << 2 * k
    paired[a] = paired[b] = (x << k) - (x << 2 * k)
    total = _fold([1] * size, alone, paired, up)
    slot = (1 << k) - 1
    return (total & slot) + (total >> k & slot) + (total >> 2 * k & slot)


def _count_mask(adj: tuple[int, ...], mask: int, memo: dict[int, int], w: int) -> int:
    """D(G[mask]) at x = 2^w, given the adjacency masks of G."""
    size = mask.bit_count()
    if size <= 2:  # every set of at most two vertices is a dissociation set
        return (1 + (1 << w)) ** size
    cached = memo.get(mask)
    if cached is not None:
        return cached

    # one breadth-first walk from the lowest vertex gives the component, its
    # degree sum, a maximum-degree pivot (the first in walk order) and the
    # parent positions the folds need; bits() inlined, this runs once per miss
    low = mask & -mask
    order = [low.bit_length() - 1]
    up = [0]
    unseen = mask ^ low
    pivot, best, degrees = -1, -1, 0
    for i, v in enumerate(order):  # order grows while walked
        nbrs = adj[v] & mask
        d = nbrs.bit_count()
        degrees += d
        if d > best:
            pivot, best = v, d
        kids = nbrs & unseen
        unseen ^= kids
        while kids:
            low = kids & -kids
            order.append(low.bit_length() - 1)
            up.append(i)
            kids ^= low
    comp = mask ^ unseen

    # a covered mask has missed the memo already; the degree sum counts the
    # component's edges beyond its spanning tree: none, one cycle, or more
    part = memo.get(comp) if unseen else None
    if part is None:
        extra = degrees // 2 - len(order) + 1
        if not extra:
            part = _tree(up, w)
        elif extra == 1:
            part = _ring(adj, comp, order, up, w)
        else:
            part = _branch(adj, comp, pivot, memo, w)
        memo[comp] = part
    if unseen:
        part *= _count_mask(adj, unseen, memo, w)
        memo[mask] = part
    return part


def _branch(adj: tuple[int, ...], mask: int, v: int, memo: dict[int, int], w: int) -> int:
    """D(G[mask]) at x = 2^w by the three-way branching at v."""
    excluded, isolated, *matched = _branches(adj, mask, v)
    result = _count_mask(adj, excluded, memo, w)
    result += _count_mask(adj, isolated, memo, w) << w
    pairs = 0
    for sub in matched:
        pairs += _count_mask(adj, sub, memo, w)
    return result + (pairs << (w + w))


# the first n - 1 rows of the last graph that would branch, with bit n - 1
# cleared, and the memo of their induced subgraphs that its siblings share
_parent: tuple[tuple[int, ...], dict[int, int]] = ((), {})


# a fold stack entry: (vertex bit, out, alone, paired, entry below), the
# states of ``_fold`` at x = 1; this is the root, vertex 0, on its own
_ROOT = (1, 1, 1, 0, None)

# the lowest-neighbour bit of each vertex of the last tree counted in
# preorder, and the fold stack saved after each of its vertices
_preorder: tuple[list[int], list[tuple]] = ([0], [_ROOT])


def _pop(stack: tuple) -> tuple:
    """Fold the top entry of a fold stack into the entry below it, by the
    child-into-parent update of ``_fold``."""
    _, o, a, p, (b, po, pa, pp, below) = stack
    return (b, po * (o + a + p), pa * o, pp * o + pa * a, below)


def _count_preorder(adj: tuple[int, ...]) -> int | None:
    """d(T) for a tree T labelled in preorder, folded on from the stack that
    the last such tree saved before the first vertex whose parent differs;
    None, with the slot unchanged, if ``adj`` is not labelled in preorder.

    In preorder a vertex's lowest neighbour is its parent, and the stack
    after vertex v - 1 holds the path from v - 1 down to the root, each
    entry with its finished children folded in.  So v pops entries until
    its parent is on top, then goes on top itself; entries are never
    changed, so the stack saved after each vertex costs one reference.
    """
    global _preorder
    n = len(adj)
    lows = [m & -m for m in adj]
    last, saved = _preorder
    # the stack after vertex v depends on the parents of 1..v alone
    i = 1
    top = min(n, len(last))
    while i < top and lows[i] == last[i]:
        i += 1
    saved = saved[:i]
    stack = saved[-1]
    for v in range(i, n):
        low = lows[v]
        # fold the finished subtrees until v's lowest neighbour is on top; a
        # vertex whose lowest neighbour is above it or off the stack is not
        # labelled in preorder
        while stack[0] != low:
            if stack[4] is None:
                return None
            stack = _pop(stack)
        stack = (1 << v, 1, 1, 0, stack)
        saved.append(stack)
    _preorder = (lows, saved)
    while stack[4] is not None:
        stack = _pop(stack)
    return stack[1] + stack[2] + stack[3]


def count(g: Graph) -> int:
    """Exact number of dissociation sets of g, empty set included."""
    global _parent
    n = g.n
    if n > MAX_VERTICES:
        raise ValueError(f"counting engine capped at {MAX_VERTICES} vertices")
    adj = g.adj
    full = g.vertex_set
    degrees = sum(map(int.bit_count, adj))
    # n - 1 edges, each vertex but the root joined to its parent below it,
    # make a tree; any other graph with n - 1 edges takes the walk
    if degrees == 2 * n - 2 and n >= 3:
        total = _count_preorder(adj)
        if total is not None:
            return total
    # a last vertex of degree below two makes a poor pivot, and a connected
    # graph with fewer than two edges beyond a spanning tree is folded with
    # no branch
    if n < 4 or adj[-1].bit_count() < 2 or degrees < 2 * n + 2:
        return _count_mask(adj, full, {}, 0)
    rest = full >> 1
    rows = tuple([m & rest for m in adj[:-1]])
    if rows != _parent[0]:
        _parent = (rows, {})
        return _count_mask(adj, full, {}, 0)
    # a sibling of the last graph: every mask of the branches at n - 1 lies
    # inside their shared parent, so its memo serves them all
    return _branch(adj, full, n - 1, _parent[1], 0)


def dissociation_polynomial(g: Graph) -> list[int]:
    """Size-resolved counts [d(G,0), ..., d(G,n)]; the sum equals count(G)."""
    if g.n > MAX_VERTICES:
        raise ValueError(f"dissociation polynomial capped at {MAX_VERTICES} vertices")
    w = g.n + 1
    packed = _count_mask(g.adj, g.vertex_set, {}, w)
    slot = (1 << w) - 1
    return [(packed >> (k * w)) & slot for k in range(g.n + 1)]


@dataclass(frozen=True)
class BranchPartition:
    """Sizes of the three branch families at a pivot: v absent, v isolated
    in the set, v matched to one neighbour."""

    excluded: int
    isolated: int
    matched: int

    @property
    def total(self) -> int:
        return self.excluded + self.isolated + self.matched


def branch_partition(g: Graph, v: int) -> BranchPartition:
    """Partition counts at pivot v; total always equals count(g)."""
    g._check_vertex(v)
    memo: dict[int, int] = {}
    excluded, isolated, *matched = [
        _count_mask(g.adj, sub, memo, 0) for sub in _branches(g.adj, g.vertex_set, v)
    ]
    return BranchPartition(excluded, isolated, sum(matched))


# -- closed forms for named families ----------------------------------------

def count_path(n: int) -> int:
    """d(P_n): 1, 2, 4, then each value the sum of the previous three."""
    if n < 0:
        raise ValueError("path order must be >= 0")
    vals = [1, 2, 4]
    if n <= 2:
        return vals[n]
    a, b, c = vals
    for _ in range(n - 2):
        a, b, c = b, c, a + b + c
    return c


def count_star(n: int) -> int:
    """d of the star of order n (centre plus n-1 leaves): n + 2^(n-1)."""
    if n < 1:
        raise ValueError("star order must be >= 1")
    return n + (1 << (n - 1))


def count_cycle(n: int) -> int:
    """d(C_n) = d(P_{n-1}) + d(P_{n-3}) + 2 d(P_{n-4}) for n >= 4; d(C_3) = 7."""
    if n < 3:
        raise ValueError("cycle order must be >= 3")
    if n == 3:
        return 7
    return count_path(n - 1) + count_path(n - 3) + 2 * count_path(n - 4)


def _scaled_power(value: int, exponent: int) -> int:
    # value * 2**exponent, exact for negative exponents by construction
    if exponent >= 0:
        return value << exponent
    quotient, rem = divmod(value, 1 << -exponent)
    if rem:
        raise ArithmeticError(f"{value} * 2**{exponent} is not an integer")
    return quotient


def subset_bound(n: int) -> int:
    """Trivial upper bound 2^n: every subset of s*K1 u t*K2 qualifies."""
    if n < 0:
        raise ValueError("order must be >= 0")
    return 1 << n


def max_tree_count(n: int) -> int:
    """Largest dissociation count over trees of order n (n >= 1).

    Equals count(T) for the extremal trees of :func:`dissoc.families.extremal_trees`;
    the closed form stays exact below its integer-exponent range because the
    scaled power divides out evenly there.
    """
    if n < 1:
        raise ValueError("tree order must be >= 1")
    if n % 2:
        return (1 << (n - 1)) + _scaled_power(n + 3, (n - 5) // 2)
    return (1 << (n - 1)) + _scaled_power(n + 6, (n - 6) // 2)


def max_unicyclic_count(n: int) -> int:
    """Largest dissociation count over unicyclic graphs of order n (n >= 3).

    Order 6 is the lone irregular value (42, from the hub-joined triangle
    plus edge); all other orders follow the parity closed form.
    """
    if n < 3:
        raise ValueError("unicyclic order must be >= 3")
    if n == 6:
        return 42
    if n % 2:
        return (1 << (n - 1)) + _scaled_power(n + 9, (n - 7) // 2)
    return (1 << (n - 1)) + _scaled_power(n + 12, (n - 8) // 2)
