"""Golden stdout for a fixed set of fast CLI invocations.

Every invocation's stdout and exit code were recorded once and are compared
byte for byte, so refactors of the sweep and render layers cannot change
what the CLI prints.  Re-record only when an output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from dissoc.cli import main

DATA = Path(__file__).resolve().parent / "data" / "cli_golden.json"

# Input files written to a fresh directory; "{dir}" in an argv names it.
FILES = {
    "mixed.g6": "A_\nnot-a-graph±\n@\n",
    # `dissoc gen --family trees --order 7`
    "trees7.g6": "".join(
        line + "\n"
        for line in ("FhI?G", "FhQ?G", "Fh_GG", "FiPC?", "FiQ?G", "FiQC?",
                     "Fi_GO", "Fi_K?", "FkE?G", "FkEC?", "FsaC?")
    ),
}

FORMATS = ("table", "json", "csv")

# argv without --format; each one runs once per format
FORMATTED = [
    # the invocations of test_cli.py
    ["count", "--family", "path", "--order", "9"],
    ["count", "--g6", "A_"],
    ["count", "--family", "extremal-unicyclic", "--order", "6"],
    ["count", "--family", "cycle", "--order", "4", "--poly"],
    ["count", "--g6", "~~~"],
    ["count"],
    ["count", "--file", "{dir}/mixed.g6"],
    ["count", "--file", "{dir}/mixed.g6", "--lenient"],
    ["count", "--file", "{dir}/trees7.g6"],
    ["scan", "--family", "trees", "--order", "7"],
    ["scan", "--family", "unicyclic", "--order", "7"],
    ["scan", "--family", "trees", "--order", "8"],
    ["scan", "--family", "trees", "--order", "8", "--jobs", "2"],
    ["scan", "--family", "trees", "--order", "6"],
    ["scan", "--file", "{dir}/trees7.g6"],
    ["verify", "--theorem", "path-cycle-4.1", "--orders", "4..16"],
    ["verify", "--theorem", "lemma-2.5", "--orders", "2..5"],
    ["verify", "--theorem", "connected-max-3.2", "--orders", "3"],
    ["question", "--orders", "7"],
    ["question", "--orders", "7..8", "--no-cross-check"],
    ["chain", "--family", "cycle", "--order", "4"],
    ["chain", "--family", "path", "--order", "5"],
    ["chain", "--g6", "A?"],
    # every theorem at small orders, the two violated ones included
    ["verify", "--theorem", "bounds-2.1", "--orders", "1..5"],
    ["verify", "--theorem", "lemma-2.8", "--orders", "3..6"],
    ["verify", "--theorem", "tree-max-3.1", "--orders", "2..9"],
    ["verify", "--theorem", "connected-max-3.2", "--orders", "2..5"],
    ["verify", "--theorem", "unicyclic-max-4.3", "--orders", "3..9"],
    ["chain", "--family", "complete", "--order", "5"],
    ["scan", "--family", "connected", "--order", "5", "--top", "4"],
]

UNFORMATTED = [
    ["verify", "--theorem", "flat-earth"],
    ["construct", "--family", "extremal-tree", "--order", "6"],
    ["construct", "--family", "complete-multipartite", "--parts", "2,2,1"],
    ["construct", "--family", "extremal-unicyclic", "--order", "8"],
    ["construct", "--family", "star", "--order", "5"],
    # a lone root, and a lone edge whose halves are isomorphic
    ["gen", "--family", "trees", "--order", "1"],
    ["gen", "--family", "trees", "--order", "2"],
    ["gen", "--family", "trees", "--order", "4"],
    ["gen", "--family", "trees", "--order", "10"],
    ["gen", "--family", "connected", "--order", "6"],
    ["gen", "--family", "all", "--order", "5"],
    ["gen", "--family", "connected", "--order", "10"],
    ["gen", "--family", "unicyclic", "--order", "6"],
    ["gen", "--family", "connected", "--order", "4"],
    ["gen", "--family", "unicyclic", "--order", "8"],
    ["verify", "--theorem", "unicyclic-max-4.3", "--orders", "10..11"],
    # orders at which a claim has no case to check
    ["verify", "--theorem", "path-cycle-4.1", "--orders", "1..3"],
    ["verify", "--theorem", "lemma-2.8", "--orders", "1..2"],
    ["verify", "--theorem", "lemma-2.5", "--orders", "0..1"],
    # P_3 and K_3 both count 7: no second tier to compare
    ["question", "--orders", "3"],
    # the polynomial above the 24-vertex brute-force range
    ["count", "--family", "path", "--order", "40", "--poly"],
    ["count", "--family", "cycle", "--order", "64", "--poly", "--format", "json"],
]

INVOCATIONS = [argv + ["--format", fmt] for argv in FORMATTED for fmt in FORMATS] + UNFORMATTED


def _key(argv: list[str]) -> str:
    return " ".join(argv)


def write_inputs(directory: Path) -> None:
    for name, text in FILES.items():
        (directory / name).write_text(text, encoding="utf-8")


def run_cli(argv: list[str], directory: Path) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI run."""
    argv = [a.replace("{dir}", str(directory)) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden_inputs")
    write_inputs(directory)
    return directory


@pytest.mark.parametrize("argv", INVOCATIONS, ids=_key)
def test_cli_stdout_matches_golden(argv, golden, input_dir):
    want = golden[_key(argv)]
    code, out = run_cli(argv, input_dir)
    assert (code, out) == (want["exit"], want["stdout"])


def test_golden_covers_every_invocation(golden):
    assert set(golden) == {_key(argv) for argv in INVOCATIONS}


def record() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        write_inputs(directory)
        table = {}
        for argv in INVOCATIONS:
            code, out = run_cli(argv, directory)
            table[_key(argv)] = {"exit": code, "stdout": out}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} invocations to {DATA}", file=sys.stderr)


if __name__ == "__main__":
    record()
