"""Acceptance suite: one test per stated criterion, each printing a PASS or
FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The connected-graph tiers for orders 2..9 are computed once in a session
fixture and shared by the two sweeps that need them; that fixture dominates
the runtime (the order-9 family alone has 261,080 classes, about two
minutes to generate and count).  Tests marked ``slow`` are the exhaustive
order-14/order-9 sweeps.

Two orders carry a known tie, a second extremal graph beside the paper's
constructions (documented in the README):

* criterion 4 at order 8: K_1*(K_3+2K_2) ties U_8 at 148, so the extremal
  unicyclic graph is not unique there;
* criterion 5 at order 3: K_3 ties the extremal tree P_3 at 7, so the
  connected extremal set is {P_3, K_3}.

The sweeps assert these ties exactly: each tie is proven extremal by the
brute-force oracle and the expected set is compared by canonical form.
``dissoc verify`` still reports both orders as violations.
"""

import json
import random

import pytest

from dissoc.canon import canonical_form
from dissoc.counting import (
    branch_partition,
    count,
    count_cycle,
    count_path,
    max_tree_count,
    max_unicyclic_count,
    subset_bound,
)
from dissoc.families import (
    extremal_trees,
    extremal_unicyclic,
    is_complete_multipartite_small_parts,
    is_union_of_vertices_and_edges,
    star_join,
)
from dissoc.generate import all_connected, all_graphs, all_trees
from dissoc.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    star_graph,
)
from dissoc.graph6 import from_graph6, to_graph6
from dissoc.reports import _TopTiers, question_scan, scan_family
from dissoc.transforms import delete_edge_check
from oracles import count_brute, random_graph


def check(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def canon_set(graphs):
    return {canonical_form(g) for g in graphs}


# Known ties: order -> {name: graph} of extremal graphs beside the paper's
# constructions.  Each entry is proven by ``expected_extremal``.
UNICYCLIC_TIES = {
    8: {
        "K_1*(K_3+2K_2)": star_join(
            1, [complete_graph(3), complete_graph(2), complete_graph(2)]
        ),
    },
}
CONNECTED_TIES = {3: {"K_3": complete_graph(3)}}


def expected_extremal(n, paper, ties, max_count, in_family):
    """Canonical forms of the paper's extremal graphs at order n plus the
    known ties at n.

    Each tie must be an order-n member of the family, reach ``max_count``
    under the brute-force oracle, and differ from every paper graph.
    """
    expected = canon_set(paper)
    for name, g in ties.get(n, {}).items():
        assert g.n == n and in_family(g), f"tie {name} is not in the family"
        assert count_brute(g) == max_count, f"tie {name} is not extremal"
        assert canonical_form(g) not in expected, f"tie {name} is a paper graph"
        expected.add(canonical_form(g))
    return expected


def tie_detail(n, ties):
    return "".join(
        f"; tie {name} ({to_graph6(g)}) asserted, still flagged by dissoc verify"
        for name, g in ties.get(n, {}).items()
    )


@pytest.fixture(scope="session")
def connected_tiers():
    """order -> (class total, top-2 tiers as [(count, canonical-form set), ...])."""
    tiers = {}
    for n in range(2, 10):
        tracker = _TopTiers(2)
        total = 0
        for g in all_connected(n):
            tracker.add(canonical_form(g), count(g))
            total += 1
        tiers[n] = (
            total,
            [(c, set(keys)) for c, keys in sorted(tracker.tiers.items(), reverse=True)],
        )
    return tiers


# -- criterion 1: oracle equivalence ------------------------------------------

def test_criterion_1_oracle_equivalence_exhaustive_to_7():
    totals = {}
    for n in range(8):
        classes = list(all_graphs(n))
        totals[n] = len(classes)
        for g in classes:
            assert count(g) == count_brute(g), f"engine/oracle mismatch on n={n}"
    check(
        "criterion-1a (exhaustive n<=7)",
        totals[7] == 1044,
        f"class totals {totals}",
    )


def test_criterion_1_oracle_equivalence_random_8_to_14():
    rng = random.Random(20260810)
    for i in range(10_000):
        g = random_graph(rng, rng.randint(8, 14), rng.uniform(0.05, 0.95))
        assert count(g) == count_brute(g), f"mismatch at sample {i}"
    check("criterion-1b (10,000 random graphs, 8<=n<=14)", True)


# -- criterion 2: golden values ------------------------------------------

def test_criterion_2_paper_golden_values():
    golden_paths = {9: 274, 10: 504, 11: 927}
    for n, want in golden_paths.items():
        assert count_path(n) == want
        assert count(path_graph(n)) == want
    golden_unicyclic = {3: 7, 6: 42, 9: 292, 10: 556, 11: 1104}
    for n, want in golden_unicyclic.items():
        assert max_unicyclic_count(n) == want
        assert count(extremal_unicyclic(n)) == want
    check("criterion-2 (golden values)", True, "d(P_9..11), h(3,6,9,10,11) exact")


# -- criterion 3: tree sweep ----------------------------------------------------

def test_criterion_3_tree_sweep_2_to_14():
    for n in range(2, 15):
        report = scan_family("trees", n, top=1)
        assert report.max_count == max_tree_count(n), f"tree max wrong at n={n}"
        got = canon_set(from_graph6(s) for s in report.extremal)
        assert got == canon_set(extremal_trees(n)), f"extremal set wrong at n={n}"
        if n == 6:
            assert len(report.extremal) == 2
    check("criterion-3 (tree sweep 2..14)", True, "two classes at n=6 confirmed")


# -- criterion 4: unicyclic sweep -------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("n", range(3, 15))
def test_criterion_4_unicyclic_sweep(n):
    expected = expected_extremal(
        n,
        [extremal_unicyclic(n)],
        UNICYCLIC_TIES,
        max_unicyclic_count(n),
        lambda g: g.is_connected() and g.edge_count() == g.n,
    )
    report = scan_family("unicyclic", n, top=1)
    extremal = canon_set(from_graph6(s) for s in report.extremal)
    ok = report.max_count == max_unicyclic_count(n) and extremal == expected
    detail = (
        f"{report.total_scanned} classes, max {report.max_count},"
        f" {len(report.extremal)} extremal" + tie_detail(n, UNICYCLIC_TIES)
    )
    check(f"criterion-4 n={n} (unicyclic sweep)", ok, detail)


# -- criterion 5: connected sweep --------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("n", range(2, 10))
def test_criterion_5_connected_sweep(n, connected_tiers):
    total, tiers = connected_tiers[n]
    max_count, extremal = tiers[0]
    if n == 9:
        assert total == 261_080
    expected = expected_extremal(
        n, extremal_trees(n), CONNECTED_TIES, max_tree_count(n), Graph.is_connected
    )
    ok = max_count == max_tree_count(n) and extremal == expected
    detail = f"{total} classes, max {max_count}" + tie_detail(n, CONNECTED_TIES)
    check(f"criterion-5 n={n} (connected sweep)", ok, detail)


# -- criterion 6: bounds sweep -------------------------------------------------------

def test_criterion_6_bounds_sweep_1_to_7():
    for n in range(1, 8):
        low = (n * n + n + 2) // 2
        high = subset_bound(n)
        for g in all_graphs(n):
            c = count(g)
            assert low <= c <= high, f"bounds broken at n={n}"
            assert (c == low) == is_complete_multipartite_small_parts(g)
            assert (c == high) == is_union_of_vertices_and_edges(g)
    check("criterion-6 (bounds sweep 1..7)", True, "both equality families exact")


# -- criterion 7: edge deletion sweep -------------------------------------------------

def test_criterion_7_edge_deletion_sweep_to_7():
    edges_checked = 0
    for n in range(2, 8):
        for g in all_graphs(n):
            for u, v in g.edges():
                rec = delete_edge_check(g, u, v)
                assert rec.after >= rec.before
                assert (rec.relation == "equal") == (rec.twins == "true-twin")
                edges_checked += 1
    check("criterion-7 (edge deletion sweep n<=7)", True, f"{edges_checked} edges")


# -- criterion 8: property suites ------------------------------------------------------

def test_criterion_8_branch_partition_identity():
    suite = list(all_graphs(5)) + list(all_trees(8))
    suite += [path_graph(12), cycle_graph(12), star_graph(12)]
    suite += extremal_trees(11) + [extremal_unicyclic(12)]
    for g in suite:
        total = count(g)
        for v in range(g.n):
            assert branch_partition(g, v).total == total
    check("criterion-8a (branch partition identity)", True, f"{len(suite)} graphs")


def test_criterion_8_component_multiplicativity():
    rng = random.Random(271828)
    for _ in range(1000):
        a = random_graph(rng, rng.randint(0, 9), rng.random())
        b = random_graph(rng, rng.randint(0, 9), rng.random())
        assert count(disjoint_union([a, b])) == count(a) * count(b)
    check("criterion-8b (multiplicativity, 1000 pairs)", True)


def test_criterion_8_induced_subgraph_monotonicity():
    rng = random.Random(314159)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(1, 11), rng.random())
        removed = rng.randint(1, g.vertex_set)
        assert count(g.delete_vertices(removed)) < count(g)
    check("criterion-8c (strict monotonicity, 1000 pairs)", True)


def test_criterion_8_closed_forms_match_constructions_to_40():
    for n in range(2, 41):
        for t in extremal_trees(n):
            assert count(t) == max_tree_count(n)
    for n in range(3, 41):
        assert count(extremal_unicyclic(n)) == max_unicyclic_count(n)
    check("criterion-8d (f/h identities to n=40)", True, "exact big integers")


def test_criterion_8_chain_inequalities():
    for n in range(4, 17):
        assert count_cycle(n) == count(cycle_graph(n)) < count(path_graph(n))
        assert count_cycle(n) < max_unicyclic_count(n)
    for n in range(9, 17):
        assert count_path(n) == count(path_graph(n)) < max_unicyclic_count(n)
    check("criterion-8e (cycle < path < unicyclic max)", True)


# -- criterion 9: second-tier report ----------------------------------------------------

@pytest.mark.slow
def test_criterion_9_question_report(connected_tiers):
    orders = range(7, 14)
    first = question_scan(orders, cross_check=False)
    second = question_scan(orders, cross_check=False)
    as_json = lambda reports: json.dumps([r.to_dict() for r in reports], sort_keys=True)
    assert as_json(first) == as_json(second), "report not deterministic"
    assert [r.order for r in first] == list(orders)
    for r in first:
        assert r.second_count is not None
        assert r.banner == "evidence, not theorem"

    agreement = {}
    for r in first:
        if r.order not in connected_tiers:
            continue
        _, tiers = connected_tiers[r.order]
        conn_second, conn_graphs = tiers[1]
        agreement[r.order] = (
            conn_second == r.second_count
            and conn_graphs == canon_set(from_graph6(s) for s in r.second_graphs)
        )
    summary = ", ".join(
        f"n={r.order}: second {r.second_count} vs h {r.unicyclic_max}" for r in first
    )
    check(
        "criterion-9 (second-tier report 7..13)",
        all(agreement.values()) and set(agreement) == {7, 8, 9},
        f"connected agreement {agreement}; {summary}",
    )
