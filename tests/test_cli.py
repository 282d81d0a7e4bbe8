import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dissoc.canon import canonical_form
from dissoc.cli import main
from dissoc.counting import count, max_tree_count
from dissoc.families import extremal_trees
from dissoc.graph6 import from_graph6
from dissoc.reports import THEOREMS, scan_family

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_named_path(capsys):
    code, out, _ = run(capsys, ["count", "--family", "path", "--order", "9"])
    assert code == 0 and out.strip() == "274"


def test_count_g6_k2(capsys):
    code, out, _ = run(capsys, ["count", "--g6", "A_"])
    assert code == 0 and out.strip() == "4"


def test_count_extremal_unicyclic_6(capsys):
    code, out, _ = run(
        capsys, ["count", "--family", "extremal-unicyclic", "--order", "6"]
    )
    assert code == 0 and out.strip() == "42"


def test_count_poly_json(capsys):
    code, out, _ = run(
        capsys,
        ["count", "--family", "cycle", "--order", "4", "--poly", "--format", "json"],
    )
    assert code == 0
    (entry,) = json.loads(out)
    assert entry["count"] == 11
    assert entry["polynomial"] == [1, 4, 6, 0, 0]


def test_count_decode_failure_exits_1(capsys):
    code, _, err = run(capsys, ["count", "--g6", "~~~"])
    assert code == 1 and "error" in err


def test_count_requires_exactly_one_input(capsys):
    code, _, err = run(capsys, ["count"])
    assert code == 1


def test_count_file_lenient_vs_strict(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    path.write_text("A_\nnot-a-graph±\n@\n")
    code, _, err = run(capsys, ["count", "--file", str(path)])
    assert code == 1 and "line 2" in err
    code, out, _ = run(capsys, ["count", "--file", str(path), "--lenient"])
    assert code == 0
    assert [line.split()[1] for line in out.strip().splitlines()] == ["4", "2"]


@pytest.mark.parametrize(
    "fmt,want",
    [
        ("table", "A_ 4\n@ 2\nBw 7\n"),
        ("csv", "graph6,count\nA_,4\n@,2\nBw,7\n"),
        ("json", ""),
    ],
)
def test_count_file_streams_table_and_csv(tmp_path, capsys, fmt, want):
    """Table and CSV print each graph before the next line is read, so a
    bad fourth line comes after three results; JSON prints one array or
    nothing."""
    path = tmp_path / "graphs.g6"
    path.write_text("A_\n@\nBw\nnot-a-graph±\n")
    code, out, err = run(capsys, ["count", "--file", str(path), "--format", fmt])
    assert code == 1 and "line 4" in err
    assert out == want


def test_construct_extremal_tree_6_two_graphs(capsys):
    code, out, _ = run(
        capsys, ["construct", "--family", "extremal-tree", "--order", "6"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    got = {canonical_form(from_graph6(s)) for s in lines}
    assert got == {canonical_form(t) for t in extremal_trees(6)}


def test_construct_complete_multipartite(capsys):
    code, out, _ = run(
        capsys, ["construct", "--family", "complete-multipartite", "--parts", "2,2,1"]
    )
    assert code == 0
    assert count(from_graph6(out.strip())) == 16


def test_gen_trees_order_4(capsys):
    code, out, _ = run(capsys, ["gen", "--family", "trees", "--order", "4"])
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_gen_cap_exceeded_exits_1(capsys):
    code, _, err = run(capsys, ["gen", "--family", "connected", "--order", "10"])
    assert code == 1 and "orders" in err


def test_scan_trees_7(capsys):
    code, out, _ = run(
        capsys,
        ["scan", "--family", "trees", "--order", "7", "--format", "json"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["total_scanned"] == 11
    assert report["max_count"] == max_tree_count(7) == 84
    assert len(report["extremal"]) == 1
    assert report["runner_up_count"] < 84


def test_scan_output_is_deterministic(capsys):
    _, first, _ = run(
        capsys, ["scan", "--family", "unicyclic", "--order", "7", "--format", "json"]
    )
    _, second, _ = run(
        capsys, ["scan", "--family", "unicyclic", "--order", "7", "--format", "json"]
    )
    assert first == second


def test_scan_jobs_match_sequential(capsys):
    _, seq, _ = run(
        capsys, ["scan", "--family", "trees", "--order", "8", "--format", "json"]
    )
    _, par, _ = run(
        capsys,
        ["scan", "--family", "trees", "--order", "8", "--format", "json", "--jobs", "2"],
    )
    assert seq == par


def test_scan_csv_parses(capsys):
    code, out, _ = run(
        capsys, ["scan", "--family", "trees", "--order", "6", "--format", "csv"]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["tier", "count", "graph6"]
    assert any(row[1] == str(max_tree_count(6)) for row in rows[1:])


def test_scan_external_stream(tmp_path, capsys):
    file = tmp_path / "trees7.g6"
    code, out, _ = run(capsys, ["gen", "--family", "trees", "--order", "7"])
    file.write_text(out)
    code, out, _ = run(
        capsys, ["scan", "--file", str(file), "--format", "json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["family"] == "stream"
    assert report["max_count"] == 84


@pytest.mark.parametrize(
    "text,extra,message",
    [
        # two trees of order 7, then P_8
        ("FhI?G\nFhQ?G\nGhCGGC\n", [], "graph GhCGGC has order 8, the scan's order is 7"),
        ("FhI?G\n", ["--order", "8"], "graph FhI?G has order 7, the scan's order is 8"),
        ("", [], "no graphs in"),
    ],
)
def test_scan_file_rejects_other_orders_and_empty_files(tmp_path, capsys, text, extra, message):
    file = tmp_path / "in.g6"
    file.write_text(text)
    code, out, err = run(capsys, ["scan", "--file", str(file)] + extra)
    assert code == 1 and out == ""
    assert message in err


def test_scan_report_json_roundtrips():
    report = scan_family("trees", 6, top=3)
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload == json.loads(json.dumps(payload))
    assert payload["max_count"] == report.max_count
    assert "elapsed" not in payload


def test_verify_path_cycle_verified(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--theorem", "path-cycle-4.1", "--orders", "4..16", "--format", "json"],
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["verified"] is True
    assert verdict["counterexamples"] == {}


def test_verify_order_with_nothing_to_check_exits_1(capsys):
    code, out, err = run(capsys, ["verify", "--theorem", "path-cycle-4.1", "--orders", "1..3"])
    assert code == 1 and out == ""
    assert "path-cycle-4.1 has nothing to check at order 1" in err


def test_verify_edge_deletion_small(capsys):
    code, out, _ = run(
        capsys, ["verify", "--theorem", "lemma-2.5", "--orders", "2..5"]
    )
    assert code == 0 and "verified" in out


# small orders for each claim; a claim missing here fails its jobs test
JOBS_ORDERS = {
    "bounds-2.1": "1..5",
    "lemma-2.5": "2..4",
    "lemma-2.8": "3..6",
    "tree-max-3.1": "2..8",
    "connected-max-3.2": "4..6",
    "unicyclic-max-4.3": "3..8",
    "path-cycle-4.1": "4..6",
}


@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_verify_jobs_says_when_it_is_not_used(capsys, theorem):
    argv = ["verify", "--theorem", theorem, "--orders", JOBS_ORDERS[theorem]]
    code, seq, err = run(capsys, argv + ["--jobs", "1"])
    assert "--jobs" not in err
    code_par, par, err = run(capsys, argv + ["--jobs", "2"])
    assert code_par == code and par == seq
    assert f"{theorem}: runs in one process; --jobs 2 is not used" in err


def test_verify_violation_exits_2(capsys):
    # order 3 is the documented flaw: K_3 ties the extremal tree P_3
    code, out, _ = run(
        capsys,
        ["verify", "--theorem", "connected-max-3.2", "--orders", "3", "--format", "json"],
    )
    assert code == 2
    verdict = json.loads(out)
    assert verdict["status"]["3"] == "violated"
    assert verdict["counterexamples"]["3"]


def test_verify_unknown_theorem_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "flat-earth"])
    assert exc.value.code == 1


def test_question_with_cross_check_n7(capsys):
    code, out, _ = run(
        capsys, ["question", "--orders", "7", "--format", "json"]
    )
    assert code == 0
    (report,) = json.loads(out)
    assert report["banner"] == "evidence, not theorem"
    assert report["connected_checked"] is True
    assert report["connected_agrees"] is True
    # at order 7 the path P_7 (81) still beats the unicyclic maximum (80):
    # the conjecture is posed for n >= 10 only, and the report says so honestly
    assert report["second_count"] == 81
    assert report["unicyclic_max"] == 80
    assert report["second_equals_unicyclic_max"] is False
    assert [from_graph6(s).is_tree() for s in report["second_graphs"]] == [True]
    assert report["second_within_candidates"] is False


def test_question_deterministic_without_cross_check(capsys):
    argv = ["question", "--orders", "7..8", "--no-cross-check", "--format", "json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_chain_cycle4(capsys):
    code, out, _ = run(
        capsys, ["chain", "--family", "cycle", "--order", "4", "--format", "json"]
    )
    assert code == 0
    trace = json.loads(out)
    assert len(trace["steps"]) == 1
    assert (trace["steps"][0]["before"], trace["steps"][0]["after"]) == (11, 13)
    assert from_graph6(trace["final"]).is_tree()


def test_chain_tree_has_no_steps(capsys):
    code, out, _ = run(
        capsys, ["chain", "--family", "path", "--order", "5", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["steps"] == []


def test_chain_disconnected_exits_1(capsys):
    code, _, err = run(capsys, ["chain", "--g6", "A?"])
    assert code == 1 and "connected" in err


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "dissoc", "count", "--g6", "A_"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0 and proc.stdout == "4\n"


def test_package_runs_without_numpy():
    # numpy is a test-only dependency: with every `import numpy` failing, the
    # package still imports and the CLI still prints a 40-vertex polynomial
    script = (
        "import runpy, sys\n"
        "sys.modules['numpy'] = None\n"
        "import dissoc\n"
        "sys.argv = ['dissoc', 'count', '--family', 'path', '--order', '40', '--poly']\n"
        "runpy.run_module('dissoc', run_name='__main__')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    fields = proc.stdout.split()
    assert fields[1] == "43844049029" and fields[2] == "poly"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--theorem", "lemma-2.5", "--orders", "5..3"],
        ["question", "--orders", "5..3"],
    ],
)
def test_empty_order_range_exits_1(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert "empty order range 5..3" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--family", "trees", "--order", "5", "--top", "0"],
        ["scan", "--family", "trees", "--order", "5", "--top", "-2"],
        ["scan", "--family", "trees", "--order", "5", "--jobs", "0"],
        ["verify", "--theorem", "lemma-2.5", "--orders", "3", "--jobs", "0"],
        ["question", "--orders", "7", "--jobs", "-1"],
        ["question", "--orders", "7", "--jobs", "2"],
        ["count", "--g6", "A_", "--strict"],
    ],
)
def test_bad_option_values_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err
