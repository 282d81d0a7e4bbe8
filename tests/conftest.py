from hypothesis import settings
from hypothesis import strategies as st

from dissoc.graph import Graph
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
