"""Independent check of a solver's budget vector.

Distances come from ``scipy.sparse.csgraph`` over ``graph.edges``, not from
``qosd.pathcore``, so a fault in the program's own shortest-path code
cannot hide a wrong answer.
"""

from __future__ import annotations

import hashlib
import math
import numbers

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

# lp_objective is a float from HiGHS; the norm is an integer
LP_TOL = 1e-6


def fingerprint(values) -> str:
    """sha256 of the vector written as comma-separated decimals."""
    return hashlib.sha256(",".join(str(v) for v in values).encode()).hexdigest()


class Reference:
    """What the check needs of one instance, computed once from its raw data."""

    def __init__(self, instance):
        graph = instance.graph
        self.n = graph.n
        self.rows = np.array([u for u, _ in graph.edges], dtype=np.int64)
        self.cols = np.array([v for _, v in graph.edges], dtype=np.int64)
        self.tables = [wf.table for wf in instance.weights]
        self.box = [len(t) - 1 for t in self.tables]
        self.threshold = instance.threshold
        sources = np.array([s for s, _ in instance.pairs], dtype=np.int64)
        self.sources, self.source_row = np.unique(sources, return_inverse=True)
        self.targets = np.array([t for _, t in instance.pairs], dtype=np.int64)
        # each unit of budget lengthens a path by at most the largest increment
        delta_max = max(b - a for t in self.tables for a, b in zip(t, t[1:]))
        self.lower_bound = max(
            (math.ceil((self.threshold - d) / delta_max)
             for d in self.pair_distances([0] * len(self.tables)) if d < self.threshold),
            default=0,
        )

    def pair_distances(self, x) -> np.ndarray:
        """Distance of every pair under table[x_e]; inf at or beyond T."""
        lengths = np.array([t[v] for t, v in zip(self.tables, x)], dtype=np.float64)
        matrix = csr_matrix((lengths, (self.rows, self.cols)), shape=(self.n, self.n))
        dist = dijkstra(matrix, directed=True, indices=self.sources, limit=self.threshold)
        return dist[self.source_row, self.targets]

    def check(self, report) -> list[str]:
        """Every way ``report`` is wrong; an empty list means it passed."""
        x = list(report.budget.values)
        if len(x) != len(self.box):
            return [f"vector has {len(x)} entries for {len(self.box)} edges"]
        if not all(isinstance(v, numbers.Integral) for v in x):
            return ["vector is not integral"]
        problems = []
        low = [e for e, v in enumerate(x) if v < 0]
        high = [e for e, v in enumerate(x) if v > self.box[e]]
        if low:
            problems.append(f"negative budget on edges {low[:5]}")
        if high:
            problems.append(f"budget above the cap on edges {high[:5]}")
        if low or high:
            return problems
        norm = sum(x)
        if report.norm != norm:
            problems.append(f"report.norm {report.norm} != sum(x) {norm}")
        dist = self.pair_distances(x)
        short = [i for i, d in enumerate(dist) if d < self.threshold]
        if short:
            problems.append(f"pairs {short[:5]} stay below T={self.threshold}")
        if report.feasible != (not short):
            problems.append(f"report.feasible is {report.feasible}, check says {not short}")
        if norm < self.lower_bound:
            problems.append(f"norm {norm} below the lower bound {self.lower_bound}")
        lp = report.extras.get("lp_objective")
        if lp is not None and lp > norm + LP_TOL:
            problems.append(f"lp_objective {lp} exceeds norm {norm}")
        return problems
