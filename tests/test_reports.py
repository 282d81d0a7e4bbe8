import re

import pytest

from dissoc.counting import count, max_tree_count
from dissoc import reports
from dissoc.generate import all_trees
from dissoc.graph import cycle_graph, path_graph
from dissoc.graph6 import to_graph6
from dissoc.reports import (
    _TopTiers,
    counted_stream,
    question_scan,
    scan_family,
    verify_theorem,
)


def test_top_tiers_tracks_distinct_values():
    tracker = _TopTiers(2)
    for g6, c in [("a", 10), ("b", 9), ("c", 11), ("d", 9), ("e", 11), ("f", 10)]:
        tracker.add(g6, c)
    assert {c: sorted(gs) for c, gs in tracker.tiers.items()} == {
        11: ["c", "e"],
        10: ["a", "f"],
    }


def test_counted_stream_parallel_matches_sequential():
    # the pool ships graphs as graph6, so include orders above 32 and 62
    graphs = list(all_trees(9)) + [path_graph(40), cycle_graph(64)]
    seq = list(counted_stream(graphs, jobs=1))
    par = list(counted_stream(graphs, jobs=2))
    assert [c for _, c, _ in seq] == [c for _, c, _ in par]
    assert [text for _, _, text in seq] == [None] * len(graphs)
    assert [text for _, _, text in par] == [to_graph6(g) for g in graphs]


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_encodes_each_graph_once(monkeypatch, jobs):
    calls = []

    def counting_to_graph6(g):
        calls.append(g)
        return to_graph6(g)

    monkeypatch.setattr(reports, "to_graph6", counting_to_graph6)
    report = scan_family("trees", 9, jobs=jobs)
    assert report.total_scanned == 47
    assert len(calls) == 47


def test_scan_family_single_class_has_no_runner_up():
    report = scan_family("trees", 2)
    assert report.max_count == 4
    assert report.runner_up_count is None and report.runner_up == []


def test_scan_family_rejects_empty_stream():
    with pytest.raises(ValueError, match="empty"):
        scan_family("stream", 5, graphs=iter([]))


def test_scan_family_invariants_on_trees_9():
    report = scan_family("trees", 9, top=3)
    assert report.total_scanned == len(list(all_trees(9)))
    assert report.max_count == max_tree_count(9)
    assert report.runner_up_count < report.max_count
    assert [c for c, _ in report.tiers] == sorted(
        (c for c, _ in report.tiers), reverse=True
    )


@pytest.mark.parametrize(
    "theorem,orders",
    [
        ("bounds-2.1", range(1, 6)),
        ("lemma-2.5", range(2, 6)),
        ("lemma-2.8", range(3, 7)),
        ("tree-max-3.1", range(2, 9)),
        ("unicyclic-max-4.3", range(3, 8)),
        ("path-cycle-4.1", range(4, 17)),
    ],
)
def test_verdicts_verified_at_small_orders(theorem, orders):
    verdict = verify_theorem(theorem, orders)
    assert verdict.verified, verdict.to_dict()
    assert verdict.counterexamples == {}


# the lowest order at which each claim has a case to check
FIRST_CASE = {
    "bounds-2.1": 0,
    "lemma-2.5": 2,
    "lemma-2.8": 3,
    "tree-max-3.1": 1,
    "connected-max-3.2": 1,
    "unicyclic-max-4.3": 3,
    "path-cycle-4.1": 4,
}


def test_first_case_covers_every_theorem():
    assert set(FIRST_CASE) == set(reports.THEOREMS)


@pytest.mark.parametrize("theorem", sorted(FIRST_CASE))
def test_lowest_order_with_a_case_is_verified(theorem):
    assert verify_theorem(theorem, [FIRST_CASE[theorem]]).verified


@pytest.mark.parametrize(
    "theorem,orders",
    [("lemma-2.5", [0, 1]), ("lemma-2.8", [1, 2]), ("path-cycle-4.1", [1, 2, 3])],
)
def test_order_with_nothing_to_check_is_an_error(theorem, orders):
    """No edges, no rewiring sites or no inequalities: never verified."""
    for n in orders:
        message = re.escape(f"{theorem} has nothing to check at order {n}")
        with pytest.raises(ValueError, match=message):
            verify_theorem(theorem, [n])
        with pytest.raises(ValueError, match=message):
            verify_theorem(theorem, range(n, FIRST_CASE[theorem] + 1))


def test_quasi_pendant_counterexamples_list_each_graph_once(monkeypatch):
    # a count that never changes fails every rewiring site but the
    # degenerate one, and some graphs of order 6 have two sites
    monkeypatch.setattr(reports, "count", lambda g: 1)
    bad = verify_theorem("lemma-2.8", [6]).counterexamples[6]
    assert bad
    assert len(bad) == len(set(bad))


def test_connected_max_verdict_flags_only_order_3():
    verdict = verify_theorem("connected-max-3.2", range(2, 6))
    assert verdict.status[3] == "violated"
    assert {n: s for n, s in verdict.status.items() if n != 3} == {
        2: "verified",
        4: "verified",
        5: "verified",
    }
    # the offending class is the triangle
    (bad,) = verdict.counterexamples[3]
    from dissoc.graph6 import from_graph6

    g = from_graph6(bad)
    assert g.n == 3 and g.edge_count() == 3


def test_unicyclic_max_verdict_flags_only_order_8():
    """The hub form K_1*(K_3+2K_2) ties U_8 at 148: the uniqueness half of
    the unicyclic maximum claim genuinely fails at order 8."""
    from dissoc.canon import canonical_form
    from dissoc.families import star_join
    from dissoc.graph import complete_graph
    from dissoc.graph6 import from_graph6

    verdict = verify_theorem("unicyclic-max-4.3", range(3, 10))
    assert [n for n in verdict.orders if verdict.status[n] == "violated"] == [8]
    (bad,) = verdict.counterexamples[8]
    hub_form = star_join(
        1, [complete_graph(3), complete_graph(2), complete_graph(2)]
    )
    assert canonical_form(from_graph6(bad)) == canonical_form(hub_form)
    assert count(from_graph6(bad)) == 148


def test_unknown_theorem_rejected():
    with pytest.raises(ValueError, match="unknown theorem"):
        verify_theorem("lemma-9.9", [3])


def test_question_scan_small_order_fields():
    (report,) = question_scan([8], cross_check=False)
    assert report.order == 8
    assert report.max_count == max_tree_count(8)
    assert report.second_count < report.max_count
    assert report.connected_checked is False
    assert report.connected_agrees is None
    assert report.banner == "evidence, not theorem"


def test_question_order_with_one_tier_is_an_error():
    # P_3 and K_3 both count 7
    with pytest.raises(ValueError, match="no second tier at order 3"):
        question_scan([3, 4], cross_check=False)


@pytest.mark.parametrize("orders", [[1], [19], [2, 7], [7, 19]])
def test_question_orders_outside_both_families_rejected_before_sweeping(
    monkeypatch, orders
):
    swept = []
    monkeypatch.setattr(reports, "sweep", lambda *args: swept.append(args))
    with pytest.raises(ValueError, match=r"question supports orders 3\.\.18"):
        question_scan(orders, cross_check=False)
    assert swept == []


def test_empty_order_lists_rejected():
    with pytest.raises(ValueError, match="no orders"):
        verify_theorem("lemma-2.5", [])
    with pytest.raises(ValueError, match="no orders"):
        question_scan([])
