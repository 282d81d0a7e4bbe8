from hypothesis import assume, settings
from hypothesis import strategies as st

from dissoc.graph import Graph, bits
from oracles import graph_from_triangle_bits

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 8):
    """Uniform-ish random graphs via a random upper-triangle bitmask."""
    n = draw(st.integers(min_n, max_n))
    bits = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return graph_from_triangle_bits(n, bits)


@st.composite
def forests(draw, min_n: int = 0, max_n: int = 18, connected: bool = False):
    """Each vertex hangs from an earlier one, or (unless ``connected``) starts
    a new tree; the labels are then shuffled, so the roots and the breadth-first
    order of the counting engine do not follow them."""
    n = draw(st.integers(min_n, max_n))
    perm = draw(st.permutations(range(n)))
    edges = []
    for v in range(1, n):
        u = draw(st.integers(0 if connected else -1, v - 1))
        if u >= 0:
            edges.append((perm[u], perm[v]))
    return Graph(n, edges)



@st.composite
def one_cycle_graphs(draw):
    """A random tree or forest on 3 to 18 vertices, labels shuffled as in
    :func:`forests`, with one edge added inside one of its trees, so that
    exactly one component has a cycle."""
    g = draw(st.one_of(forests(min_n=3, connected=True), forests(min_n=3)))
    pairs = [
        (u, v) for comp in g.component_masks() for u in bits(comp)
        for v in bits(comp & ~g.adj[u]) if u < v
    ]
    assume(pairs)
    return g.with_edge(*draw(st.sampled_from(pairs)))
