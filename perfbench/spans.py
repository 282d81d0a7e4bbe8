"""In-memory spans around calls into dissoc, and the per-layer figures derived
from them.

The child process wraps the public names where each caller imported them
(``reports.count``, ``generate.canonical_form``, ...), so the program itself
is unchanged.  Each span keeps its name, start, end, the index of the span
open when it started (its parent) and a short note.  The spans are written
once, when the traced child finishes; ``summarize`` turns them into metrics.
"""

from __future__ import annotations

import time
from collections import defaultdict

NO_PARENT = -1


class Tracer:
    """Records strictly nested spans; calls are synchronous, so a stack of
    open spans gives each new span its parent."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.notes: list[str] = []
        self._open = [NO_PARENT]

    def _begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1])
        self.ends.append(0)
        self.notes.append("")
        self._open.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._open.pop()

    def wrap(self, name: str, fn, note=None):
        """``fn`` with a span per call; ``note(result)`` labels the span."""

        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if note is not None:
                self.notes[idx] = note(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_stream(self, name: str, factory):
        """``factory`` whose returned iterator gets a span per ``next``;
        spans that yielded an item are noted ``item``."""
        tracer = self

        class Stream:
            def __init__(self, it):
                self.it = it

            def __iter__(self):
                return self

            def __next__(self):
                idx = tracer._begin(name)
                try:
                    item = next(self.it)
                finally:
                    tracer._end(idx)
                tracer.notes[idx] = "item"
                return item

        def traced(*args, **kwargs):
            return Stream(iter(factory(*args, **kwargs)))

        traced.__wrapped__ = factory
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for row in zip(self.names, self.parents, self.starts, self.ends, self.notes):
                fh.write("\t".join(map(str, row)) + "\n")


def read_spans(path) -> list[tuple[str, int, int, int, str]]:
    spans = []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            name, parent, start, end, note = line.rstrip("\n").split("\t")
            spans.append((name, int(parent), int(start), int(end), note))
    return spans


def _quantile(sorted_values: list[int], q: float) -> int:
    if not sorted_values:
        return 0
    return sorted_values[round(q * (len(sorted_values) - 1))]


def summarize(spans) -> dict[str, float]:
    """Per-layer counts and times from one traced run.

    A span's self time is its duration minus the part its direct children
    cover; children are strictly nested, so that part is their summed
    duration.  The self times of all spans add up to the root spans' time.
    """
    dur = [end - start for _, _, start, end, _ in spans]
    child_cover = [0] * len(spans)
    for i, (_, parent, _, _, _) in enumerate(spans):
        if parent != NO_PARENT:
            child_cover[parent] += dur[i]

    busy = defaultdict(int)
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    durations = defaultdict(list)
    canon_ir = canon_by_generator = classes = 0
    wall = 0
    for i, (name, parent, _, _, note) in enumerate(spans):
        busy[name] += dur[i]
        self_ns[name] += dur[i] - child_cover[i]
        calls[name] += 1
        durations[name].append(dur[i])
        if parent == NO_PARENT:
            wall += dur[i]
        if name == "canon":
            canon_ir += note == "ir"
            canon_by_generator += parent != NO_PARENT and spans[parent][0] == "generate"
        if name == "generate" and note == "item":
            classes += 1
    for values in durations.values():
        values.sort()

    s = 1e-9
    us = 1e-3
    return {
        "generate.busy_s": busy["generate"] * s,
        "generate.self_s": self_ns["generate"] * s,
        "generate.classes": classes,
        # 0 when the generator calls no canonical_form (trees are emitted
        # without dedup) or there is no generator (engine-64)
        "generate.accept_ratio": classes / canon_by_generator if canon_by_generator else 0.0,
        "canon.calls": calls["canon"],
        "canon.ir_calls": canon_ir,
        "canon.busy_s": busy["canon"] * s,
        "canon.p50_us": _quantile(durations["canon"], 0.5) * us,
        "canon.p99_us": _quantile(durations["canon"], 0.99) * us,
        "counting.count.calls": calls["counting.count"],
        "counting.count.busy_s": busy["counting.count"] * s,
        "counting.count.p50_us": _quantile(durations["counting.count"], 0.5) * us,
        "counting.count.p99_us": _quantile(durations["counting.count"], 0.99) * us,
        "counting.poly.calls": calls["counting.poly"],
        "counting.poly.busy_s": busy["counting.poly"] * s,
        "graph6.encode.calls": calls["graph6.encode"],
        "graph6.encode.busy_s": busy["graph6.encode"] * s,
        "graph6.decode.calls": calls["graph6.decode"],
        "graph6.decode.busy_s": busy["graph6.decode"] * s,
        "reports.busy_s": busy["reports"] * s,
        "reports.self_s": self_ns["reports"] * s,
        "cli.self_s": self_ns["cli"] * s,
        "bench.self_s": self_ns["bench"] * s,
        "trace.wall_s": wall * s,
        "trace.negative_self": sum(1 for i in range(len(spans)) if dur[i] < child_cover[i]),
    }


# Figures that must repeat exactly between traced runs of the same inputs.
EXACT = (
    "generate.classes",
    "canon.calls",
    "canon.ir_calls",
    "counting.count.calls",
    "counting.poly.calls",
    "graph6.encode.calls",
    "graph6.decode.calls",
)
