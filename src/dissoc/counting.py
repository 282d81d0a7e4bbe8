"""Exact dissociation-set counting.

A vertex subset is a dissociation set when it induces a subgraph of maximum
degree at most one.  ``count_brute`` tests every subset (the oracle);
``count`` runs the three-way branching recurrence

    d(G) = d(G-v) + d(G-N[v]) + sum over u in N(v) of d(G - (N[u] u N[v]))

with component multiplicativity and a memo keyed by the surviving-vertex
bitmask of the original graph.  Closed forms for paths, stars, cycles and the
extremal tree/unicyclic maxima live here too.  All arithmetic is exact
(Python ints); counts grow like 2^n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import MAX_VERTICES, Graph, bits, component

BRUTE_CAP = 24
_CHUNK = 1 << 18


def is_dissociation(g: Graph, mask: int) -> bool:
    """True when every vertex of G[mask] has at most one neighbour in mask."""
    if mask & ~g.vertex_set:
        raise ValueError("vertex set outside graph")
    for v in bits(mask):
        if (g.adj[v] & mask).bit_count() > 1:
            return False
    return True


# -- oracle: test every subset ----------------------------------------------

def _subset_sweep(g: Graph):
    """Yield (masks, ok) chunks over all 2^n subsets, ok marking dissociation sets."""
    n = g.n
    adj = [np.int64(m) for m in g.adj]
    for start in range(0, 1 << n, _CHUNK):
        stop = min(start + _CHUNK, 1 << n)
        masks = np.arange(start, stop, dtype=np.int64)
        ok = np.ones(stop - start, dtype=bool)
        for v in range(n):
            inside = (masks >> v) & 1
            deg = np.bitwise_count(masks & adj[v])
            ok &= (inside == 0) | (deg <= 1)
        yield masks, ok


def count_brute(g: Graph) -> int:
    """Number of dissociation sets by exhaustive subset testing (n <= 24)."""
    if g.n > BRUTE_CAP:
        raise ValueError(f"brute-force oracle capped at {BRUTE_CAP} vertices")
    return sum(int(np.count_nonzero(ok)) for _, ok in _subset_sweep(g))


def dissociation_polynomial(g: Graph) -> list[int]:
    """Size-resolved counts [d(G,0), ..., d(G,n)]; the sum equals count(G)."""
    if g.n > BRUTE_CAP:
        raise ValueError(f"polynomial sweep capped at {BRUTE_CAP} vertices")
    coeffs = np.zeros(g.n + 1, dtype=np.int64)
    for masks, ok in _subset_sweep(g):
        sizes = np.bitwise_count(masks[ok]).astype(np.int64)
        coeffs += np.bincount(sizes, minlength=g.n + 1)
    return [int(c) for c in coeffs]


# -- branching engine --------------------------------------------------------

def _branches(adj: tuple[int, ...], mask: int, v: int) -> list[int]:
    """Surviving-vertex masks of the branches at v within mask: v excluded,
    v isolated in the set, then v matched to each neighbour in turn."""
    nbrs = adj[v] & mask
    closed = nbrs | (1 << v)
    out = [mask ^ (1 << v), mask & ~closed]
    for u in bits(nbrs):
        out.append(mask & ~(closed | adj[u] | (1 << u)))
    return out


def _count_mask(adj: tuple[int, ...], mask: int, memo: dict[int, int]) -> int:
    if mask == 0:
        return 1
    cached = memo.get(mask)
    if cached is not None:
        return cached

    comp = component(adj, mask)
    if comp != mask:
        result = _count_mask(adj, comp, memo) * _count_mask(adj, mask ^ comp, memo)
    else:
        # pivot on a maximum-degree vertex of the component
        pivot, best = -1, -1
        for v in bits(mask):
            d = (adj[v] & mask).bit_count()
            if d > best:
                pivot, best = v, d
        result = 0
        for sub in _branches(adj, mask, pivot):
            result += _count_mask(adj, sub, memo)

    memo[mask] = result
    return result


def count(g: Graph) -> int:
    """Exact number of dissociation sets of g, empty set included."""
    if g.n > MAX_VERTICES:
        raise ValueError(f"counting engine capped at {MAX_VERTICES} vertices")
    return _count_mask(g.adj, g.vertex_set, {})


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
        _count_mask(g.adj, sub, memo) for sub in _branches(g.adj, g.vertex_set, v)
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
