"""Cold-start benchmark of dissoc: four workloads, end-to-end and per layer.

Run from the root of a checkout (the directory holding ``src/dissoc``):

    python3 perfbench/run.py --workload trees-16 --seed 1 --seconds 15 --trace 0

Each sample is a fresh interpreter (``child.py``), so it pays interpreter
start, ``import dissoc``, empty caches and an empty count memo, as a
``dissoc`` invocation does.  Samples repeat until ``--seconds`` have passed.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced samples and prints the per-layer metrics, including the tracing
overhead.  ``verdict_s`` and ``graphs_per_s`` are scaled to a reference host
speed by a fixed probe timed around each sample (``probe.py``); the raw wall
times go to stderr.  Metric names and units come from ``BENCHMARK.json``.  Every
sample's outputs are checked; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Which layer figure should move which end-to-end figure, on which workload:

- ``generate.*`` moves ``verdict_s`` on trees-16, unicyclic-12 and
  connected-8, and stays at zero on engine-64.
- ``canon.*`` moves ``verdict_s`` on connected-8 and unicyclic-12; it is
  near zero on trees-16 and zero on engine-64.
- ``counting.count.*`` moves ``verdict_s`` and ``peak_rss_mb`` on engine-64
  and ``verdict_s`` on trees-16; it is minor on the other two.
- ``counting.poly.*`` moves ``poly_s`` on every workload.
- ``graph6.*`` moves ``verdict_s`` on the sweeps (one ``to_graph6`` per
  scanned class) and is zero on engine-64.
- ``reports.*`` (tier aggregation, the canonical re-sort) and ``cli.self_s``
  (parsing, rendering) move ``verdict_s`` and ``setup_s`` slightly.

Not measured: ``transforms``, ``families`` and the ``--jobs`` process pool.
Every workload runs with ``--jobs 1`` because a two-core host cannot hold a
parent plus workers without oversubscription; a parallelism change adds its
own pooled workload.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads
from probe import PROBE_REF_S

CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_PROBES = 3  # setup-only starts per run, on top of one per sample
BUDGET_S = 150  # no sample starts that could end past this (limit is 180 s)


class ChildFailed(RuntimeError):
    pass


def _launch(root: Path, args, mode: str, deadline: float, spans_path: Path | None = None) -> dict:
    """One child process; returns its record with ``setup_s`` added."""
    cmd = [sys.executable, str(CHILD), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_count_error:
        cmd.append("--inject-count-error")
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    env = {"PYTHONPATH": str(root / "src"), "LC_ALL": "C.UTF-8"}
    t_launch = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_launch))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} sample of {args.workload} passed the time limit") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} sample exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["t_ready"] - t_launch
    return record


# -- output checks ---------------------------------------------------------------

def _check_poly(record: dict) -> list[bool]:
    """Per item: coefficients sum to count(g), and d(G,0..2) = 1, n, C(n,2)."""
    out = []
    for coeffs, c in zip(record["polys"], record["poly_counts"]):
        n = len(coeffs) - 1
        out.append(sum(coeffs) == c and coeffs[:3] == [1, n, n * (n - 1) // 2])
    return out


def _check_sweep(wl: workloads.Sweep, record: dict) -> list[bool]:
    """The verdict: golden stdout, published class total, exit 0, verified."""
    text = record["stdout"]
    scanned = re.search(r" over (\d+) graphs", text)
    record["graphs"] = int(scanned.group(1)) if scanned else 0
    ok = (
        text == wl.golden.read_text()
        and record["graphs"] == wl.classes
        and record["rc"] == 0
        and "result: verified" in text
    )
    return [ok]


def _check_engine(wl: workloads.EngineBatch, seed: int, record: dict) -> list[bool]:
    """Per graph: within (n^2+n+2)/2 <= d <= 2^n (Theorem 2.1), and equal to
    the recorded count on the default seed."""
    inputs = workloads.engine_inputs(wl, seed)
    counts = record["counts"]
    record["graphs"] = len(counts)
    if len(counts) != len(inputs):
        return [False]
    recorded = json.loads(wl.golden.read_text()) if seed == workloads.DEFAULT_SEED else None
    return [
        (n * n + n + 2) // 2 <= c <= 1 << n and (recorded is None or c == recorded[i])
        for i, ((n, _), c) in enumerate(zip(inputs, counts))
    ]


def check(wl, seed: int, record: dict) -> list[bool]:
    if isinstance(wl, workloads.Sweep):
        return _check_sweep(wl, record) + _check_poly(record)
    return _check_engine(wl, seed, record) + _check_poly(record)


# -- runs ------------------------------------------------------------------------

def run(root: Path, args) -> tuple[list[bool], dict]:
    wl = workloads.workload(args.workload, args.smoke)
    start = time.monotonic()
    hard_deadline = start + BUDGET_S
    setups = [_launch(root, args, "setup", hard_deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    spans_dir = root / ".perfbench"
    modes = ("run", "trace") if args.trace else ("run",)
    samples = {mode: [] for mode in modes}
    outcomes: list[bool] = []
    while True:
        round_start = time.monotonic()
        for mode in modes:
            spans_path = None
            if mode == "trace":
                spans_dir.mkdir(exist_ok=True)
                spans_path = spans_dir / f"spans-{args.workload}.tsv"
            record = _launch(root, args, mode, hard_deadline, spans_path)
            outcomes += check(wl, args.seed, record)
            if spans_path is not None:
                record["layers"] = spans.summarize(spans.read_spans(spans_path))
            samples[mode].append(record)
            setups.append(record["setup_s"])
        now = time.monotonic()
        if now - start >= args.seconds or now + (now - round_start) > hard_deadline:
            break
    return outcomes, {"setups": setups, **samples}


def scaled_verdict(record: dict) -> float:
    """The sample's verdict time at the reference host speed: the probe run
    right before and right after it tracks the host's drift, which moves
    this pure-Python work by tens of percent over minutes.  The numpy-bound
    polynomial phase does not follow the probe, so ``poly_s`` stays raw."""
    return record["verdict_s"] * PROBE_REF_S / statistics.mean(record["probe_s"])


def end_to_end(samples: dict, outcomes: list[bool]) -> dict[str, float]:
    plain = samples["run"]
    med = lambda key: statistics.median(r[key] for r in plain)  # noqa: E731
    return {
        "verdict_s": statistics.median(map(scaled_verdict, plain)),
        "graphs_per_s": statistics.median(r["graphs"] / scaled_verdict(r) for r in plain),
        "setup_s": statistics.median(samples["setups"]),
        "peak_rss_mb": med("rss_mb"),
        "poly_s": med("poly_s"),
        "pass_frac": sum(outcomes) / len(outcomes),
    }


def per_layer(samples: dict, outcomes: list[bool]) -> dict[str, float]:
    traced = [r["layers"] for r in samples["trace"]]
    out = {key: statistics.median(t[key] for t in traced) for key in traced[0]}
    for key in spans.EXACT:
        # a count that does not repeat between runs of one input is a defect
        outcomes.append(all(t[key] == traced[0][key] for t in traced))
        out[key] = traced[0][key]
    outcomes.append(all(t["trace.negative_self"] == 0 for t in traced))
    out["trace.overhead_s"] = (
        statistics.median(map(scaled_verdict, samples["trace"]))
        - statistics.median(map(scaled_verdict, samples["run"]))
    )
    return out


def _summary(args, samples: dict, metrics: dict, units: dict) -> None:
    """Human-readable lines on stderr: sample counts and per-sample values."""
    err = sys.stderr
    print(f"{args.workload} seed={args.seed}: {len(samples['run'])} cold samples, "
          f"{len(samples['setups'])} setup samples", file=err)
    for key in ("verdict_s", "poly_s"):
        vals = " ".join(f"{r[key]:.3f}" for r in samples["run"])
        print(f"  raw {key} per sample: {vals}", file=err)
    vals = " ".join(f"{statistics.mean(r['probe_s']):.4f}" for r in samples["run"])
    print(f"  probe_s per sample: {vals} (reference {PROBE_REF_S})", file=err)
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}", file=err)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.FULL))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the harness self-test")
    parser.add_argument("--inject-count-error", action="store_true",
                        help="make count() answer +1, for the harness self-test")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "dissoc" / "__init__.py").is_file():
        print(f"perfbench: no src/dissoc under {root}; run from a checkout root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    try:
        outcomes, samples = run(root, args)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        values = per_layer(samples, outcomes)
    else:
        values = end_to_end(samples, outcomes)
    metrics = {name: values[name] for name in units}
    _summary(args, samples, metrics, units)
    failed = outcomes.count(False)
    print(f"  failed_frac {failed}/{len(outcomes)} checked outputs", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
