"""Exact dissociation-set counting.

A vertex subset is a dissociation set when it induces a subgraph of maximum
degree at most one.  One engine counts them: the three-way branching
recurrence at a pivot v,

    D(G) = D(G-v) + x D(G-N[v]) + x^2 sum over u in N(v) of D(G - (N[u] u N[v]))

(v excluded, v isolated in the set, v matched to a neighbour u), with
component multiplicativity D(G u H) = D(G) D(H) and a memo keyed by the
surviving-vertex bitmask of the original graph.  D(G) = sum_k d(G,k) x^k is
the dissociation polynomial.

The engine evaluates D at x = 2^w for a slot width w (Kronecker
substitution): the isolated branch is shifted left by w, the matched branches
by 2w, and the component product stays one int multiply.  With w = 0 the
value is D(1) = d(G), the count.  With w = n + 1 every coefficient
d(G[mask], k) <= C(|mask|, k) < 2^w fits its own w-bit slot, and since every
term is non-negative no carry crosses a slot, so slicing the int into n + 1
slots reads off d(G, 0..n).  The memo lives for one call, so values of
different widths never meet.  Closed forms for paths, stars, cycles and the
extremal tree/unicyclic maxima live here too.  All arithmetic is exact
(Python ints); counts grow like 2^n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import MAX_VERTICES, Graph, bits, component


def is_dissociation(g: Graph, mask: int) -> bool:
    """True when every vertex of G[mask] has at most one neighbour in mask."""
    if mask & ~g.vertex_set:
        raise ValueError("vertex set outside graph")
    for v in bits(mask):
        if (g.adj[v] & mask).bit_count() > 1:
            return False
    return True


# -- branching engine --------------------------------------------------------

def _branches(adj: tuple[int, ...], mask: int, v: int) -> list[int]:
    """Surviving-vertex masks of the branches at v within mask: v excluded,
    v isolated in the set, then v matched to each neighbour in turn."""
    nbrs = adj[v] & mask
    closed = nbrs | (1 << v)
    out = [mask ^ (1 << v), mask & ~closed]
    while nbrs:  # bits() inlined, as in the pivot loop below
        low = nbrs & -nbrs
        out.append(mask & ~(closed | adj[low.bit_length() - 1] | low))
        nbrs ^= low
    return out


def _count_mask(adj: tuple[int, ...], mask: int, memo: dict[int, int], w: int) -> int:
    """D(G[mask]) at x = 2^w, given the adjacency masks of G."""
    if mask == 0:
        return 1
    cached = memo.get(mask)
    if cached is not None:
        return cached

    comp = component(adj, mask)
    if comp != mask:
        result = _count_mask(adj, comp, memo, w) * _count_mask(adj, mask ^ comp, memo, w)
    else:
        # pivot on a maximum-degree vertex of the component; bits() inlined,
        # this loop runs once per memo miss
        pivot, best, rest = -1, -1, mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            d = (adj[v] & mask).bit_count()
            if d > best:
                pivot, best = v, d
            rest ^= low
        excluded, isolated, *matched = _branches(adj, mask, pivot)
        result = _count_mask(adj, excluded, memo, w) + (_count_mask(adj, isolated, memo, w) << w)
        pairs = 0
        for sub in matched:
            pairs += _count_mask(adj, sub, memo, w)
        result += pairs << (w + w)

    memo[mask] = result
    return result


def count(g: Graph) -> int:
    """Exact number of dissociation sets of g, empty set included."""
    if g.n > MAX_VERTICES:
        raise ValueError(f"counting engine capped at {MAX_VERTICES} vertices")
    return _count_mask(g.adj, g.vertex_set, {}, 0)


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
