"""Sweep engines behind the CLI: family scans, theorem verdicts, and the
second-tier exploration.

Every sweep streams a deterministic family, counts each graph exactly, and
aggregates the top count tiers.  Results are plain dataclasses; `to_dict`
gives the JSON-stable view (elapsed time is deliberately excluded so output
is byte-identical across runs; timing goes to the diagnostic stream).
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import chain, islice
from typing import Iterable, Iterator, NamedTuple

from .canon import canonical_form
from .counting import (
    count,
    count_cycle,
    count_path,
    max_tree_count,
    max_unicyclic_count,
    subset_bound,
)
from .families import (
    complete_graph,
    extremal_trees,
    extremal_unicyclic,
    is_complete_multipartite_small_parts,
    is_union_of_vertices_and_edges,
    star_join,
)
from .generate import FAMILY_CAPS, all_connected, all_graphs, family_stream
from .graph import Graph
from .graph6 import from_graph6, to_graph6
from .transforms import delete_edge_check, find_quasi_pendants, quasi_pendant_transform

PROGRESS_EVERY = 10_000

VERIFIED = "verified"
VIOLATED = "violated"


# -- counting over streams ----------------------------------------------------

def _count_g6(text: str) -> int:
    return count(from_graph6(text))


def counted_stream(
    graphs: Iterable[Graph], jobs: int = 1, batch: int = 2048
) -> Iterator[tuple[Graph, int, str | None]]:
    """Yield (graph, count, graph6) in stream order, optionally over a worker
    pool.  graph6 is the text shipped to the workers, or None when the graph
    was counted in this process."""
    if jobs <= 1:
        for g in graphs:
            yield g, count(g), None
        return
    from multiprocessing import Pool  # imported only where a pool is asked for

    it = iter(graphs)
    with Pool(processes=jobs) as pool:
        while True:
            chunk = list(islice(it, batch))
            if not chunk:
                return
            texts = [to_graph6(g) for g in chunk]
            counts = pool.map(_count_g6, texts, chunksize=max(1, batch // (4 * jobs)))
            yield from zip(chunk, counts, texts)


class _TopTiers:
    """Accumulate the items of the k largest distinct count values."""

    def __init__(self, k: int):
        self.k = k
        self.tiers: dict[int, list] = {}

    def add(self, item, c: int) -> None:
        if c in self.tiers:
            self.tiers[c].append(item)
        elif len(self.tiers) < self.k:
            self.tiers[c] = [item]
        elif c > min(self.tiers):
            del self.tiers[min(self.tiers)]
            self.tiers[c] = [item]


class Tier(NamedTuple):
    """A count value and its graphs, as graph6 and as canonical form, both
    ordered by canonical form.  ``Tier()`` is the empty tier."""

    count: int | None = None
    graph6: tuple[str, ...] = ()
    canon: tuple[bytes, ...] = ()


def _tier(c: int | None, members: Iterable[tuple[str, Graph]]) -> Tier:
    """Order (graph6, graph) pairs by canonical form; ties keep their order."""
    keyed = sorted(((canonical_form(g), g6) for g6, g in members), key=lambda p: p[0])
    canon, graph6 = zip(*keyed)
    return Tier(c, graph6, canon)


def sweep(
    graphs: Iterable[Graph], k: int, jobs: int, label: str
) -> tuple[int, list[Tier]]:
    """Count every graph of a stream; return how many were scanned and the k
    largest count tiers, best first.  Each kept graph is canonicalised once,
    at the end.  Progress goes to stderr under ``label``."""
    tracker = _TopTiers(k)
    total = 0
    for g, c, text in counted_stream(graphs, jobs=jobs):
        total += 1
        tracker.add((text or to_graph6(g), g), c)
        if total % PROGRESS_EVERY == 0:
            print(f"{label}: {total} graphs scanned", file=sys.stderr)
    return total, [_tier(c, m) for c, m in sorted(tracker.tiers.items(), reverse=True)]


# -- family scans --------------------------------------------------------------

@dataclass
class ScanReport:
    """Top count tiers of one family at one order."""

    family: str
    order: int
    total_scanned: int
    max_count: int
    extremal: list[str]
    runner_up_count: int | None
    runner_up: list[str]
    tiers: list[tuple[int, list[str]]]
    elapsed: float

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "order": self.order,
            "total_scanned": self.total_scanned,
            "max_count": self.max_count,
            "extremal": [[g, self.max_count] for g in self.extremal],
            "runner_up_count": self.runner_up_count,
            "runner_up": [[g, self.runner_up_count] for g in self.runner_up],
            "tiers": [[c, list(gs)] for c, gs in self.tiers],
        }


def scan_family(
    family: str,
    order: int,
    top: int = 2,
    jobs: int = 1,
    graphs: Iterable[Graph] | None = None,
) -> ScanReport:
    """Count every graph of a family and report the top count tiers.

    ``graphs`` substitutes an external stream (e.g. ingested graph6) for the
    in-repo generator, bypassing the family caps.
    """
    start = time.monotonic()
    if graphs is None:
        graphs = family_stream(family, order)
    total, tiers = sweep(graphs, max(top, 2), jobs, f"scan {family} n={order}")
    if total == 0:
        raise ValueError("nothing to scan: empty graph stream")
    runner = tiers[1] if len(tiers) > 1 else Tier()
    return ScanReport(
        family=family,
        order=order,
        total_scanned=total,
        max_count=tiers[0].count,
        extremal=list(tiers[0].graph6),
        runner_up_count=runner.count,
        runner_up=list(runner.graph6),
        tiers=[(t.count, list(t.graph6)) for t in tiers[: max(top, 1)]],
        elapsed=time.monotonic() - start,
    )


# -- theorem verdicts -----------------------------------------------------------

@dataclass
class TheoremVerdict:
    """Per-order verified/violated status with counterexamples."""

    theorem: str
    orders: list[int]
    status: dict[int, str] = field(default_factory=dict)
    counterexamples: dict[int, list[str]] = field(default_factory=dict)
    details: dict[int, str] = field(default_factory=dict)

    @property
    def verified(self) -> bool:
        return all(s == VERIFIED for s in self.status.values())

    def record(
        self, order: int, ok: bool, cases: int, detail: str, bad: list[str] | None = None
    ):
        """Record one order's outcome over ``cases`` checked graphs, edges,
        sites or inequalities; an order with no case raises ValueError."""
        if not cases:
            raise ValueError(f"{self.theorem} has nothing to check at order {order}")
        self.status[order] = VERIFIED if ok else VIOLATED
        self.details[order] = detail
        if not ok:
            self.counterexamples[order] = bad or []

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "orders": self.orders,
            "verified": self.verified,
            "status": {str(n): s for n, s in sorted(self.status.items())},
            "counterexamples": {
                str(n): gs for n, gs in sorted(self.counterexamples.items())
            },
            "details": {str(n): d for n, d in sorted(self.details.items())},
        }


def _verify_bounds(verdict: TheoremVerdict, orders: list[int], jobs: int) -> None:
    """(n^2+n+2)/2 <= d(G) <= 2^n with both equality characterizations."""
    for n in orders:
        low = (n * n + n + 2) // 2
        high = subset_bound(n)
        bad = []
        graphs = 0
        for g, c, _ in counted_stream(all_graphs(n), jobs=jobs):
            graphs += 1
            ok = (
                low <= c <= high
                and (c == low) == is_complete_multipartite_small_parts(g)
                and (c == high) == is_union_of_vertices_and_edges(g)
            )
            if not ok:
                bad.append(to_graph6(g))
        verdict.record(n, not bad, graphs, f"range [{low}, {high}]", bad)


def _note_single_process(verdict: TheoremVerdict, jobs: int) -> None:
    if jobs > 1:
        print(
            f"{verdict.theorem}: runs in one process; --jobs {jobs} is not used",
            file=sys.stderr,
        )


def _verify_edge_deletion(verdict: TheoremVerdict, orders: list[int], jobs: int) -> None:
    """d(G) <= d(G-uv) for every edge, equality exactly at true twins."""
    _note_single_process(verdict, jobs)
    for n in orders:
        bad = []
        edges = 0
        for g in all_graphs(n):
            for u, v in g.edges():
                edges += 1
                rec = delete_edge_check(g, u, v)
                equal_expected = rec.twins == "true-twin"
                if rec.after < rec.before or (rec.relation == "equal") != equal_expected:
                    bad.append(to_graph6(g))
                    break
        verdict.record(n, not bad, edges, "all edges checked", bad)


def _verify_quasi_pendant(verdict: TheoremVerdict, orders: list[int], jobs: int) -> None:
    """Pendant-bundle rewiring strictly increases the count except on the
    degenerate two-pendant star (where it is the identity)."""
    for n in orders:
        bad = []
        sites = 0
        for g, before, _ in counted_stream(all_connected(n), jobs=jobs):
            for u_q, pendants in find_quasi_pendants(g):
                if len(pendants) < 2:
                    continue
                sites += 1
                after = count(quasi_pendant_transform(g, u_q))
                degenerate = g.degree(u_q) == len(pendants) == 2
                ok = before == after if degenerate else before < after
                if not ok:
                    bad.append(to_graph6(g))
        verdict.record(n, not bad, sites, f"{sites} rewiring sites", bad)


def _verify_family_max(
    family: str,
    expected_max,
    expected_graphs,
    verdict: TheoremVerdict,
    orders: list[int],
    jobs: int,
) -> None:
    for n in orders:
        total, (top,) = sweep(
            family_stream(family, n), 1, jobs, f"scan {family} n={n}"
        )
        want_max = expected_max(n)
        want = {canonical_form(g) for g in expected_graphs(n)}
        ok = top.count == want_max and set(top.canon) == want
        unexpected = [s for s, key in zip(top.graph6, top.canon) if key not in want]
        verdict.record(
            n,
            ok,
            total,
            f"max {top.count} over {total} graphs"
            f" (expected {want_max}, {len(want)} extremal)",
            [] if ok else (unexpected or list(top.graph6)),
        )


def _verify_path_cycle(verdict: TheoremVerdict, orders: list[int], jobs: int) -> None:
    """Cycle counts sit below path counts, and both below the unicyclic max."""
    _note_single_process(verdict, jobs)
    for n in orders:
        checks = []
        if n >= 4:
            checks.append(count_cycle(n) < count_path(n))
            checks.append(count_cycle(n) < max_unicyclic_count(n))
        if n >= 9:
            checks.append(count_path(n) < max_unicyclic_count(n))
        verdict.record(n, all(checks), len(checks), f"{len(checks)} inequalities")


THEOREMS = {
    "bounds-2.1": (_verify_bounds, range(1, 8)),
    "lemma-2.5": (_verify_edge_deletion, range(2, 8)),
    "lemma-2.8": (_verify_quasi_pendant, range(3, 8)),
    "tree-max-3.1": (
        partial(_verify_family_max, "trees", max_tree_count, extremal_trees),
        range(2, 15),
    ),
    "connected-max-3.2": (
        partial(_verify_family_max, "connected", max_tree_count, extremal_trees),
        range(2, 10),
    ),
    "unicyclic-max-4.3": (
        partial(
            _verify_family_max,
            "unicyclic",
            max_unicyclic_count,
            lambda n: [extremal_unicyclic(n)],
        ),
        range(3, 15),
    ),
    "path-cycle-4.1": (_verify_path_cycle, range(4, 17)),
}


def verify_theorem(theorem: str, orders: Iterable[int] | None = None, jobs: int = 1) -> TheoremVerdict:
    """Exhaustively check one named claim over the given orders."""
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}; known: {sorted(THEOREMS)}")
    func, default = THEOREMS[theorem]
    order_list = sorted(default if orders is None else orders)
    if not order_list:
        raise ValueError(f"no orders to verify {theorem} on")
    verdict = TheoremVerdict(theorem=theorem, orders=order_list)
    func(verdict, order_list, jobs)
    return verdict


# -- second-largest tier (exploratory) ------------------------------------------

BANNER = "evidence, not theorem"


@dataclass
class QuestionReport:
    """Second-largest count tier among trees and unicyclic graphs of one order."""

    order: int
    max_count: int
    second_count: int
    second_graphs: list[str]
    unicyclic_max: int
    second_equals_unicyclic_max: bool
    candidates: list[str]
    second_within_candidates: bool
    connected_checked: bool
    connected_second_count: int | None
    connected_agrees: bool | None
    banner: str = BANNER

    def to_dict(self) -> dict:
        return asdict(self)


def _second_tier_candidates(n: int) -> list[Graph]:
    """Conjectured second-tier graphs: the extremal unicyclic graph and its
    true-twin edge deletion (a hub with isolated vertices plus a matching)."""
    k1, k2 = complete_graph(1), complete_graph(2)
    if n % 2:
        tree = star_join(1, [k1, k1] + [k2] * ((n - 3) // 2))
    else:
        tree = star_join(1, [k1, k1, k1] + [k2] * ((n - 4) // 2))
    return [extremal_unicyclic(n), tree]


def question_scan(
    orders: Iterable[int], jobs: int = 1, cross_check: bool = True
) -> list[QuestionReport]:
    """Second-largest tier among trees U unicyclic per order, compared to the
    unicyclic maximum; exhaustively cross-checked against all connected
    graphs where that family is generable (up to its ``FAMILY_CAPS`` order).
    Every order must be in both families' ``FAMILY_CAPS``, checked before
    the first sweep.  An order whose trees and unicyclic graphs share one
    count raises ValueError: it has no second tier to compare."""
    order_list = sorted(orders)
    if not order_list:
        raise ValueError("no orders to scan")
    lo = max(FAMILY_CAPS[fam][0] for fam in ("trees", "unicyclic"))
    hi = min(FAMILY_CAPS[fam][1] for fam in ("trees", "unicyclic"))
    bad = [n for n in order_list if not lo <= n <= hi]
    if bad:
        raise ValueError(f"question supports orders {lo}..{hi}, got {bad[0]}")
    out = []
    for n in order_list:
        stream = chain.from_iterable(
            family_stream(fam, n) for fam in ("trees", "unicyclic")
        )
        _, tiers = sweep(stream, 2, jobs, f"question n={n} trees+unicyclic")
        if len(tiers) < 2:
            raise ValueError(
                f"question has no second tier at order {n}: every tree and "
                f"unicyclic graph counts {tiers[0].count}"
            )
        second = tiers[1]
        h_n = max_unicyclic_count(n)
        candidates = _tier(None, ((to_graph6(g), g) for g in _second_tier_candidates(n)))

        checked = cross_check and n <= FAMILY_CAPS["connected"][1]
        conn = Tier()
        if checked:
            label = f"question n={n} connected cross-check"
            _, conn_tiers = sweep(all_connected(n), 2, jobs, label)
            conn = conn_tiers[1]  # a superset of trees U unicyclic, so two tiers

        out.append(
            QuestionReport(
                order=n,
                max_count=tiers[0].count,
                second_count=second.count,
                second_graphs=list(second.graph6),
                unicyclic_max=h_n,
                second_equals_unicyclic_max=second.count == h_n,
                candidates=list(candidates.graph6),
                second_within_candidates=set(second.canon) <= set(candidates.canon),
                connected_checked=checked,
                connected_second_count=conn.count,
                connected_agrees=(
                    conn.count == second.count and set(conn.canon) == set(second.canon)
                    if checked
                    else None
                ),
            )
        )
    return out
