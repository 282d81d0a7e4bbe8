"""The benchmark's workloads: what each one runs and how its outputs are checked.

Three sweeps run ``dissoc verify`` on one order each; ``engine-64`` calls the
counting API on a seeded batch of graphs too large for graph6 (which stops
at 32 vertices).  Every workload also times ``dissociation_polynomial`` on a
small seeded sub-batch after its verdict, so ``poly_s`` exists everywhere: on
the sweeps it is a bystander phase that generator and canon changes should
leave alone.

This module imports nothing from ``dissoc``; it only describes inputs, so the
parent process that checks outputs never loads the program it measures.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Sweep:
    """``dissoc verify --theorem THEOREM --orders ORDER --jobs 1``."""

    theorem: str
    order: int
    classes: int  # published class count at ORDER

    def argv(self) -> list[str]:
        return ["verify", "--theorem", self.theorem, "--orders", str(self.order), "--jobs", "1"]

    @property
    def golden(self) -> Path:
        return GOLDEN / f"{self.theorem}_{self.order}.txt"


@dataclass(frozen=True)
class EngineBatch:
    """Seeded random graphs for the counting API, as (n, m, how many) triples
    drawn uniformly with exactly m edges (G(n, m) keeps the per-graph cost
    spread far narrower than G(n, p) at the same density)."""

    classes: tuple[tuple[int, int, int], ...]

    @property
    def golden(self) -> Path:
        sizes = "_".join(f"{n}x{m}x{k}" for n, m, k in self.classes)
        return GOLDEN / f"engine_seed{DEFAULT_SEED}_{sizes}.json"


# Full-size workloads.  A000055(16), A001429(12) and A001349(8) are the
# numbers of trees, unicyclic graphs and connected graphs at those orders.
FULL = {
    "trees-16": Sweep("tree-max-3.1", 16, 19320),
    "unicyclic-12": Sweep("unicyclic-max-4.3", 12, 5026),
    "connected-8": Sweep("connected-max-3.2", 8, 11117),
    # sparse G(64, 60 edges) with tree-like components, mid-density
    # G(32, 0.1), dense G(64, 0.45).  Single graphs' times spread by half
    # their mean or more, so each class holds enough graphs for its total to
    # vary by a few percent between seeds.
    "engine-64": EngineBatch(((64, 60, 400), (32, 50, 300), (64, 900, 6))),
}

# Smoke sizes for the harness self-test: same code paths, well under a
# second; A000055(8), A001429(6) and A001349(5) give their class counts.
SMOKE = {
    "trees-16": Sweep("tree-max-3.1", 8, 23),
    "unicyclic-12": Sweep("unicyclic-max-4.3", 6, 13),
    "connected-8": Sweep("connected-max-3.2", 5, 21),
    "engine-64": EngineBatch(((64, 68, 4), (40, 78, 2), (48, 338, 1))),
}

# The polynomial sub-batch: brute-force sweeps over 2^22 subsets each.
POLY = (22, 46, 3)  # G(22, 0.2)
POLY_SMOKE = (14, 18, 2)


def workload(name: str, smoke: bool = False) -> Sweep | EngineBatch:
    table = SMOKE if smoke else FULL
    if name not in table:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(FULL)}")
    return table[name]


def _gnm(rng: random.Random, n: int, m: int) -> tuple[int, list[tuple[int, int]]]:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return n, rng.sample(pairs, m)


def engine_inputs(batch: EngineBatch, seed: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """Edge lists of the counting batch, in a fixed order for a given seed."""
    rng = random.Random(seed)
    return [_gnm(rng, n, m) for n, m, k in batch.classes for _ in range(k)]


def poly_inputs(seed: int, smoke: bool = False) -> list[tuple[int, list[tuple[int, int]]]]:
    """Edge lists of the polynomial sub-batch; its own stream of the seed."""
    n, m, k = POLY_SMOKE if smoke else POLY
    rng = random.Random(f"poly-{seed}")
    return [_gnm(rng, n, m) for _ in range(k)]
