"""Reference helpers that only the tests use: capped path lengths r and
their sum D over a path set, vector addition, SA's estimator of B and
per-walk random streams, and the per-edge instance generators that the
library's batched ones must match."""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from qosd import BudgetVector, Graph, Path, QosdError, QosdInstance, WeightFunction
from qosd.instance import _concave_table, _convex_table, _linear_table
from qosd.sa import SampledPath


def r_value(instance: QosdInstance, path: Path, x: BudgetVector) -> int:
    """Path length under x, capped at the threshold."""
    threshold = instance.threshold
    weights = instance.weights
    total = 0
    for e in path.edge_seq:
        total += weights[e].table[x.values[e]]
        if total >= threshold:
            return threshold
    return total


def d_value(instance: QosdInstance, paths: Iterable[Path], x: BudgetVector) -> int:
    """Sum of capped lengths; equals |P| * T exactly when x blocks all of P."""
    return sum(r_value(instance, p, x) for p in paths)


def blocks_all(instance: QosdInstance, paths: Sequence[Path], x: BudgetVector) -> bool:
    return d_value(instance, paths, x) == len(paths) * instance.threshold


def plus(x: BudgetVector, y: BudgetVector) -> BudgetVector:
    """x + y, never clamped to a box."""
    if len(x.values) != len(y.values):
        raise QosdError(f"dimension mismatch: {len(x.values)} vs {len(y.values)}")
    return BudgetVector([a + b for a, b in zip(x.values, y.values)])


def estimate_B(instance: QosdInstance, samples: list[SampledPath], x: BudgetVector) -> float:
    """Importance-weighted mean of capped path lengths over the samples."""
    if not samples:
        raise ValueError("cannot estimate from an empty sample set")
    total = 0.0
    for sp in samples:
        if sp.feasible:
            total += r_value(instance, sp.path, x) / sp.rho
    return total / len(samples)


def _derived_rng(master: int, round_idx: int, attempt: int, index: int) -> random.Random:
    # string seeding hashes with sha512, stable across runs and platforms
    return random.Random(f"{master}:{round_idx}:{attempt}:{index}")


def generate_er_per_edge(n: int, rho: float, seed: int) -> Graph:
    """``generate_er`` drawing one edge at a time."""
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < rho:
                edges.append((u, v))
    return Graph(n, edges)


def heterogeneous_per_edge(graph: Graph, threshold: int, seed: int) -> list[WeightFunction]:
    """``build_weights(graph, "heterogeneous", ...)`` building each edge's table anew."""
    rng = random.Random(seed)
    build = {"linear": _linear_table, "convex": _convex_table, "concave": _concave_table}
    return [build[rng.choice(("linear", "convex", "concave"))](threshold) for _ in range(graph.m)]
