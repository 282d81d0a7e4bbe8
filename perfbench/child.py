"""One cold run of one workload, in a fresh interpreter.

``run.py`` starts this script once per sample, so every sample pays what a
``dissoc`` invocation pays: interpreter start, ``import dissoc``, empty
``lru_cache``s and an empty count memo.  It prints one JSON record as its
last stdout line; the parent checks the outputs and derives the metrics.

Modes: ``setup`` stops once the inputs are built, ``run`` times the workload,
``trace`` times it with spans around the calls into dissoc and writes them
to ``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads
from probe import probe
from spans import Tracer


def _inject_count_error(dissoc) -> None:
    """Make every ``count`` answer one too many (harness self-test only)."""
    real = dissoc.counting.count

    def wrong(g):
        return real(g) + 1

    for module in (dissoc.counting, dissoc.reports):
        module.count = wrong


def _canon_note(key: bytes) -> str:
    return "ir" if key[:1] == b"G" else "ahu"


def _install_tracer(tracer: Tracer, dissoc) -> None:
    """Wrap the public names where each caller inside dissoc imported them."""
    generate, reports, cli = dissoc.generate, dissoc.reports, dissoc.cli
    generate.canonical_form = tracer.wrap("canon", generate.canonical_form, _canon_note)
    reports.canonical_form = tracer.wrap("canon", reports.canonical_form, _canon_note)
    reports.count = tracer.wrap("counting.count", reports.count)
    reports.to_graph6 = tracer.wrap("graph6.encode", reports.to_graph6)
    reports.from_graph6 = tracer.wrap("graph6.decode", reports.from_graph6)
    reports.family_stream = tracer.wrap_stream("generate", reports.family_stream)
    cli.verify_theorem = tracer.wrap("reports", cli.verify_theorem)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inject-count-error", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    import dissoc
    import dissoc.cli

    src = Path.cwd() / "src"
    if src not in Path(dissoc.__file__).resolve().parents:
        raise SystemExit(f"imported dissoc from {dissoc.__file__}, not from {src}")

    wl = workloads.workload(args.workload, args.smoke)
    if isinstance(wl, workloads.Sweep):
        argv = wl.argv()
    else:
        graphs = [dissoc.Graph(n, edges) for n, edges in workloads.engine_inputs(wl, args.seed)]
    poly_graphs = [dissoc.Graph(n, edges) for n, edges in workloads.poly_inputs(args.seed, args.smoke)]

    if args.inject_count_error:
        _inject_count_error(dissoc)
    count = dissoc.counting.count
    poly = dissoc.counting.dissociation_polynomial
    main_ = dissoc.cli.main
    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        _install_tracer(tracer, dissoc)
        count = tracer.wrap("counting.count", count)
        poly = tracer.wrap("counting.poly", poly)
        main_ = tracer.wrap("cli", main_)

    record: dict = {"t_ready": time.monotonic()}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    def timed_phases() -> None:
        t0 = time.monotonic()
        if isinstance(wl, workloads.Sweep):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    record["rc"] = main_(argv)
                except SystemExit as exc:
                    record["rc"] = exc.code
            record["stdout"] = buf.getvalue()
        else:
            record["counts"] = [count(g) for g in graphs]
        t1 = time.monotonic()
        record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["polys"] = [poly(g) for g in poly_graphs]
        t2 = time.monotonic()
        record["verdict_s"] = t1 - t0
        record["poly_s"] = t2 - t1

    before = probe()
    if tracer is not None:
        tracer.wrap("bench", timed_phases)()
    else:
        timed_phases()
    record["probe_s"] = [before, probe()]

    # outside the timed region: the int path's answers for the polynomial check
    record["poly_counts"] = [dissoc.counting.count(g) for g in poly_graphs]
    if tracer is not None:
        tracer.write(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
