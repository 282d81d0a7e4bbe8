"""A fixed reference computation that measures how fast the host runs
dissoc-like Python right now.

A shared host's speed can drift by tens of percent over minutes (other
tenants share its cores and caches).  Timing this probe right before and
right after each sample lets the harness express the sample's time at a
fixed reference speed.  The probe does the kinds of work dissoc's hot loops
do -- bitmask branching with a memo dict, partition refinement over bitmask
cells, sorting -- but it is written here and never changes with the
program, so it moves only with the host.
"""

from __future__ import annotations

import functools
import random
import time

PROBE_REPEAT = 5
# The probe's median time on the host where the benchmark was defined
# (two vCPUs of an Intel Xeon at 2.0 GHz, CPython 3.11).  Sample times are
# reported as if the host ran the probe in exactly this long.
PROBE_REF_S = 0.135


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _branch(adj: list[int], mask: int, memo: dict[int, int]) -> int:
    """Independent sets of the induced subgraph on ``mask``, by branching."""
    if mask == 0:
        return 1
    hit = memo.get(mask)
    if hit is not None:
        return hit
    v = max(_bits(mask), key=lambda u: (adj[u] & mask).bit_count())
    out = _branch(adj, mask & ~(1 << v), memo) + _branch(adj, mask & ~(adj[v] | 1 << v), memo)
    memo[mask] = out
    return out


def _refine(adj: list[int], n: int) -> list[int]:
    """Equitable partition of the vertex set, cells as bitmasks."""
    cells = [(1 << n) - 1]
    work = list(cells)
    while work:
        w = work.pop()
        nxt = []
        for cell in cells:
            groups: dict[int, int] = {}
            for v in _bits(cell):
                k = (adj[v] & w).bit_count()
                groups[k] = groups.get(k, 0) | 1 << v
            frags = [groups[k] for k in sorted(groups)]
            if len(frags) > 1:
                work.extend(frags)
            nxt.extend(frags)
        cells = nxt
    return cells


def _graphs(count: int, n: int, m: int) -> list[list[int]]:
    rng = random.Random(20241217)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for _ in range(count):
        adj = [0] * n
        for u, v in rng.sample(pairs, m):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        out.append(adj)
    return out


@functools.cache
def _inputs() -> tuple[list[list[int]], list[list[int]]]:
    return _graphs(4, 30, 55), _graphs(100, 14, 20)


def probe() -> float:
    """Seconds for the reference computation (median of a few repeats)."""
    branch, refine = _inputs()
    times = []
    for _ in range(PROBE_REPEAT):
        t0 = time.perf_counter()
        for adj in branch:
            _branch(adj, (1 << len(adj)) - 1, {})
        for adj in refine:
            sorted(_refine(adj, len(adj)))
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]
