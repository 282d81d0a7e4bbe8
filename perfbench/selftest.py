"""Self-tests of the benchmark harness, on smoke-size inputs (under a minute).

Run from a checkout root:

    python3 perfbench/selftest.py

Every workload runs plain and traced; every declared metric must print with
its declared unit; the self times must add up to the traced wall time; a
``count`` that answers one too many must fail the run; and a directory
without the program must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import unittest
from pathlib import Path

import workloads

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SELF_TIMES = (
    "generate.self_s", "canon.busy_s", "counting.count.busy_s", "counting.poly.busy_s",
    "graph6.encode.busy_s", "graph6.decode.busy_s", "reports.self_s", "cli.self_s",
    "bench.self_s",
)


def bench(workload: str, *extra: str, seed: int = 1, trace: int = 0, cwd: Path = ROOT):
    proc = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


class Harness(unittest.TestCase):
    def assert_declared(self, result: dict, declared: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_workload_plain(self):
        for name in workloads.FULL:
            with self.subTest(workload=name):
                proc, result = bench(name)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assert_declared(result, SPEC["end_to_end"])
                for metric in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][metric["name"]]["value"], 0)

    def test_every_workload_traced(self):
        for name in workloads.FULL:
            with self.subTest(workload=name):
                proc, result = bench(name, trace=1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(result["correct"])
                self.assert_declared(result, SPEC["per_layer"])
                m = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertAlmostEqual(sum(m[k] for k in SELF_TIMES), m["trace.wall_s"], places=6)
                wl = workloads.SMOKE[name]
                if isinstance(wl, workloads.Sweep):
                    self.assertEqual(m["generate.classes"], wl.classes)
                    self.assertEqual(m["counting.count.calls"], wl.classes)
                    self.assertEqual(m["graph6.encode.calls"], wl.classes)
                else:
                    self.assertEqual(m["counting.count.calls"], sum(k for _, _, k in wl.classes))
                    for key in ("generate.busy_s", "canon.calls", "graph6.encode.calls", "reports.busy_s"):
                        self.assertEqual(m[key], 0, key)

    def test_non_default_seed_passes(self):
        proc, result = bench("engine-64", seed=7)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(result["correct"])

    def test_wrong_count_fails(self):
        for name in workloads.FULL:
            with self.subTest(workload=name):
                proc, result = bench(name, "--inject-count-error")
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"] / result["attempted"], 0)
                self.assertLess(result["metrics"]["pass_frac"]["value"], 1)

    def test_without_program_fails(self):
        bare = ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc, result = bench("trees-16", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
