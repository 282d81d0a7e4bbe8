"""Record the outputs the benchmark checks against: stdout of every sweep
(full and smoke size) and the engine batch's counts on the default seed.

Run from a checkout root, and only at a commit whose outputs are trusted:

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads


def main() -> int:
    root = Path.cwd()
    src = root / "src"
    sys.path.insert(0, str(src))
    from dissoc import Graph, count

    workloads.GOLDEN.mkdir(exist_ok=True)
    for table in (workloads.FULL, workloads.SMOKE):
        for name, wl in table.items():
            if isinstance(wl, workloads.Sweep):
                proc = subprocess.run(
                    [sys.executable, "-m", "dissoc.cli", *wl.argv()],
                    cwd=root, env={"PYTHONPATH": str(src)},
                    capture_output=True, text=True, check=True,
                )
                wl.golden.write_text(proc.stdout)
            else:
                inputs = workloads.engine_inputs(wl, workloads.DEFAULT_SEED)
                counts = [count(Graph(n, edges)) for n, edges in inputs]
                wl.golden.write_text(json.dumps(counts) + "\n")
            print(f"{name}: wrote {wl.golden.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
