"""Command-line surface: count graphs, sweep families, verify the extremal
claims, and explore the second-largest tier.

Results go to stdout in table, JSON, or CSV form; progress and timing go to
stderr so output stays byte-identical across runs.  Exit codes: 0 success or
verified, 1 usage/decode error, 2 a verified sweep found a violation.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from dataclasses import asdict
from typing import Iterable, Iterator

from .counting import count, dissociation_polynomial
from .families import (
    complete_multipartite,
    extremal_trees,
    extremal_unicyclic,
)
from .generate import FAMILY_CAPS, family_stream, read_graph6_file
from .graph import Graph, complete_graph, cycle_graph, path_graph, star_graph
from .graph6 import from_graph6, to_graph6
from .reports import (
    QuestionReport,
    ScanReport,
    TheoremVerdict,
    THEOREMS,
    question_scan,
    scan_family,
    verify_theorem,
)
from .transforms import spanning_tree_chain

# the named constructors, each by order (extremal-tree may give two graphs);
# complete-multipartite is built from --parts instead
CONSTRUCTORS = {
    "path": lambda n: [path_graph(n)],
    "cycle": lambda n: [cycle_graph(n)],
    "star": lambda n: [star_graph(n)],
    "complete": lambda n: [complete_graph(n)],
    "complete-multipartite": None,
    "extremal-tree": extremal_trees,
    "extremal-unicyclic": lambda n: [extremal_unicyclic(n)],
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1 (2 means violation)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _parse_orders(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    orders = list(range(int(lo), int(hi if sep else lo) + 1))
    if not orders:
        raise ValueError(f"empty order range {text}")
    return orders


def _positive_int(text: str) -> int:
    """argparse type of --top and --jobs: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def construct_graphs(family: str, order: int | None, parts: str | None) -> list[Graph]:
    """Build the named family members (extremal-tree may return two)."""
    if family not in CONSTRUCTORS:
        raise ValueError(f"unknown constructor family {family!r}")
    if family == "complete-multipartite":
        if not parts:
            raise ValueError("complete-multipartite needs --parts, e.g. --parts 2,2,1")
        return [complete_multipartite([int(p) for p in parts.split(",")])]
    if order is None:
        raise ValueError(f"--family {family} needs --order")
    return list(CONSTRUCTORS[family](order))


def _input_graphs(args) -> Iterator[Graph]:
    """The input graphs; a --file is read as it is consumed."""
    given = [bool(args.g6), bool(args.file), bool(args.family)]
    if sum(given) != 1:
        raise ValueError("provide exactly one of --g6, --file, or --family")
    if args.g6:
        return iter([from_graph6(args.g6)])
    if args.file:
        return read_graph6_file(args.file, strict=not args.lenient)
    return iter(construct_graphs(args.family, args.order, args.parts))


# -- rendering -----------------------------------------------------------------

def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _emit_csv(header: list[str], rows: Iterable[list]) -> None:
    """Write the header, then each row as the iterable yields it."""
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


def _render_scan(report: ScanReport, fmt: str) -> None:
    if fmt == "json":
        _emit_json(report.to_dict())
    elif fmt == "csv":
        rows = [
            [rank, c, g6]
            for rank, (c, g6s) in enumerate(report.tiers, start=1)
            for g6 in g6s
        ]
        _emit_csv(["tier", "count", "graph6"], rows)
    else:
        print(f"family:   {report.family}")
        print(f"order:    {report.order}")
        print(f"scanned:  {report.total_scanned}")
        print(f"max:      {report.max_count}  on {' '.join(report.extremal)}")
        if report.runner_up_count is not None:
            print(
                f"runner-up: {report.runner_up_count}  on {' '.join(report.runner_up)}"
            )
        for rank, (c, g6s) in enumerate(report.tiers, start=1):
            print(f"tier {rank}:  {c}  {' '.join(g6s)}")
    print(f"elapsed: {report.elapsed:.2f}s", file=sys.stderr)


def _render_verdict(verdict: TheoremVerdict, fmt: str) -> None:
    if fmt == "json":
        _emit_json(verdict.to_dict())
    elif fmt == "csv":
        rows = [
            [
                verdict.theorem,
                n,
                verdict.status[n],
                verdict.details[n],
                ";".join(verdict.counterexamples.get(n, [])),
            ]
            for n in verdict.orders
        ]
        _emit_csv(["theorem", "order", "status", "detail", "counterexamples"], rows)
    else:
        print(f"theorem: {verdict.theorem}")
        for n in verdict.orders:
            print(f"  order {n}: {verdict.status[n]}  ({verdict.details[n]})")
            for g6 in verdict.counterexamples.get(n, []):
                print(f"    counterexample: {g6}")
        print(f"result: {'verified' if verdict.verified else 'VIOLATED'}")


QUESTION_CSV_COLUMNS = (
    "order", "max_count", "second_count", "unicyclic_max",
    "second_equals_unicyclic_max", "second_within_candidates", "connected_checked",
    "connected_second_count", "connected_agrees", "second_graphs", "candidates",
)


def _csv_cell(value):
    return ";".join(value) if isinstance(value, list) else value


def _render_question(reports: list[QuestionReport], fmt: str) -> None:
    if fmt == "json":
        _emit_json([r.to_dict() for r in reports])
    elif fmt == "csv":
        rows = [
            [_csv_cell(getattr(r, col)) for col in QUESTION_CSV_COLUMNS]
            for r in reports
        ]
        _emit_csv(list(QUESTION_CSV_COLUMNS), rows)
    else:
        print(f"[{reports[0].banner}]")
        for r in reports:
            print(f"order {r.order}:")
            print(f"  max over trees+unicyclic:    {r.max_count}")
            print(
                f"  second tier:                 {r.second_count}"
                f"  on {' '.join(r.second_graphs)}"
            )
            print(f"  unicyclic max:               {r.unicyclic_max}")
            print(f"  second == unicyclic max:     {r.second_equals_unicyclic_max}")
            print(f"  second within candidates:    {r.second_within_candidates}")
            if r.connected_checked:
                print(f"  connected second tier:       {r.connected_second_count}")
                print(f"  connected tier agrees:       {r.connected_agrees}")


# -- subcommands -----------------------------------------------------------------

def _count_entry(g: Graph, poly: bool) -> dict:
    entry = {"graph6": to_graph6(g), "count": count(g)}
    if poly:
        entry["polynomial"] = dissociation_polynomial(g)
    return entry


def cmd_count(args) -> int:
    graphs = _input_graphs(args)
    if args.format == "json":
        _emit_json([_count_entry(g, args.poly) for g in graphs])
        return 0
    # table and CSV print each graph as it is counted; two graphs tell a
    # single-graph table (a bare count) from a listing
    head = list(itertools.islice(graphs, 2))
    entries = (_count_entry(g, args.poly) for g in itertools.chain(head, graphs))
    if args.format == "csv":
        header = ["graph6", "count"] + (["polynomial"] if args.poly else [])
        rows = (
            [e["graph6"], e["count"]]
            + ([" ".join(map(str, e["polynomial"]))] if args.poly else [])
            for e in entries
        )
        _emit_csv(header, rows)
        return 0
    for e in entries:
        if len(head) == 1 and not args.poly:
            print(e["count"])
        else:
            line = f"{e['graph6']} {e['count']}"
            if args.poly:
                line += "  poly " + " ".join(map(str, e["polynomial"]))
            print(line)
    return 0


def _of_order(graphs: Iterable[Graph], order: int) -> Iterator[Graph]:
    """Pass the graphs through, raising on the first one of another order."""
    for g in graphs:
        if g.n != order:
            raise ValueError(
                f"graph {to_graph6(g)} has order {g.n}, the scan's order is {order}"
            )
        yield g


def cmd_scan(args) -> int:
    family, order, graphs = args.family, args.order, None
    if args.file:
        stream = read_graph6_file(args.file, strict=not args.lenient)
        first = next(stream, None)
        if first is None:
            raise ValueError(f"no graphs in {args.file}")
        family = family or "stream"
        order = first.n if order is None else order
        graphs = _of_order(itertools.chain([first], stream), order)
    elif not family or order is None:
        raise ValueError("scan needs --family and --order (or --file)")
    report = scan_family(family, order, top=args.top, jobs=args.jobs, graphs=graphs)
    _render_scan(report, args.format)
    return 0


def cmd_verify(args) -> int:
    orders = _parse_orders(args.orders) if args.orders else None
    if args.jobs > 1:
        print(
            f"{args.theorem}: runs in one process; --jobs {args.jobs} is not used",
            file=sys.stderr,
        )
    verdict = verify_theorem(args.theorem, orders)
    _render_verdict(verdict, args.format)
    return 0 if verdict.verified else 2


def cmd_question(args) -> int:
    orders = _parse_orders(args.orders) if args.orders else list(range(7, 14))
    reports = question_scan(orders, cross_check=not args.no_cross_check)
    _render_question(reports, args.format)
    return 0


def cmd_chain(args) -> int:
    graphs = list(_input_graphs(args))
    if len(graphs) != 1:
        raise ValueError("chain needs exactly one input graph")
    g = graphs[0]
    records = spanning_tree_chain(g)
    final = g
    for rec in records:
        final = final.without_edge(*rec.edge)
    if args.format == "json":
        _emit_json(
            {
                "input": to_graph6(g),
                "final": to_graph6(final),
                "steps": [asdict(rec) for rec in records],
            }
        )
    elif args.format == "csv":
        rows = [
            [i, rec.edge[0], rec.edge[1], rec.before, rec.after, rec.relation, rec.twins]
            for i, rec in enumerate(records, start=1)
        ]
        _emit_csv(["step", "u", "v", "before", "after", "relation", "twins"], rows)
    else:
        print(f"input:  {to_graph6(g)}")
        for i, rec in enumerate(records, start=1):
            print(
                f"step {i}: delete {rec.edge}  {rec.before} -> {rec.after}"
                f"  [{rec.relation}, endpoints {rec.twins}]"
            )
        print(f"spanning tree after {len(records)} deletions: {to_graph6(final)}")
    return 0


def cmd_construct(args) -> int:
    for g in construct_graphs(args.family, args.order, args.parts):
        print(to_graph6(g))
    return 0


def cmd_gen(args) -> int:
    for g in family_stream(args.family, args.order):
        print(to_graph6(g))
    return 0


# -- parser ------------------------------------------------------------------------

def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")


def _add_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("--g6", help="graph6 string")
    p.add_argument("--file", help="newline-delimited graph6 file")
    p.add_argument("--family", choices=CONSTRUCTORS, help="named constructor")
    p.add_argument("--order", type=int, help="order for --family")
    p.add_argument("--parts", help="part sizes for complete-multipartite, e.g. 2,2,1")
    _add_strictness(p)


def _add_strictness(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--lenient", action="store_true",
        help="skip bad graph6 lines with a logged warning (default: fail on the first)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dissoc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count dissociation sets of input graphs")
    _add_input(p)
    p.add_argument("--poly", action="store_true", help="also print d(G,k) coefficients")
    _add_format(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("scan", help="count a whole family, report top tiers")
    p.add_argument("--family", choices=sorted(FAMILY_CAPS), help="generated family")
    p.add_argument("--order", type=int)
    p.add_argument("--file", help="external graph6 stream instead of a generator")
    p.add_argument(
        "--top", type=_positive_int, default=2, help="number of count tiers to keep"
    )
    p.add_argument("--jobs", type=_positive_int, default=1)
    _add_strictness(p)
    _add_format(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="exhaustively verify one named claim")
    p.add_argument("--theorem", choices=sorted(THEOREMS), required=True)
    p.add_argument("--orders", help="single order N or range A..B")
    p.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="accepted and not used: every claim runs in one process",
    )
    _add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "question", help="second-largest tier among trees+unicyclic (exploratory)"
    )
    p.add_argument("--orders", help="single order N or range A..B (default 7..13)")
    p.add_argument(
        "--no-cross-check", action="store_true",
        help="skip the exhaustive connected-graph cross-check"
        f" at orders <= {FAMILY_CAPS['connected'][1]}",
    )
    _add_format(p)
    p.set_defaults(func=cmd_question)

    p = sub.add_parser("chain", help="spanning-tree reduction trace of a connected graph")
    _add_input(p)
    _add_format(p)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("construct", help="emit a named family member as graph6")
    p.add_argument("--family", choices=CONSTRUCTORS, required=True)
    p.add_argument("--order", type=int)
    p.add_argument("--parts")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("gen", help="emit a generated family as a graph6 stream")
    p.add_argument("--family", choices=sorted(FAMILY_CAPS), required=True)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"dissoc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
