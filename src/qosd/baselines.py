"""Centrality-cutting heuristic and the exact minimum-budget oracle.

The oracle is shortest-path interdiction as an integer program (Israeli &
Wood, 2002) with lazy path constraints: it solves the model on the paths
found so far, adds every pair's shortest path still below T under that
optimum, and stops when there is none, so the last optimum is exact."""

from __future__ import annotations

import math
import time
from typing import Iterable

import numpy as np
from scipy import sparse

from .errors import InfeasibleBoxError
from .framework import _generate, potential_paths
from .instance import QosdInstance
from .lr import _solve_highs, path_rows
from .pathcore import BudgetVector, Path
from .report import Deadline, RunReport


def run_cc(
    instance: QosdInstance,
    *,
    threads: int = 1,
    deadline: Deadline | float | None = None,
    seed: int | None = None,
) -> RunReport:
    """Centrality cutting: repeatedly max out the edge appearing most often
    among the unseparated pairs' current shortest paths. ``threads`` is
    accepted and ignored."""
    deadline = Deadline.ensure(deadline)
    start = time.perf_counter()
    m = instance.graph.m
    box = instance.box
    x = [0] * m
    rounds = 0
    while True:
        deadline.check("centrality cutting")
        paths = potential_paths(instance, BudgetVector(x))
        if not paths:
            break
        counts: dict[int, int] = {}
        for p in paths:
            for e in p.edge_seq:
                if x[e] < box[e]:
                    counts[e] = counts.get(e, 0) + 1
        if not counts:
            # every edge of every remaining short path is already at cap,
            # which contradicts box feasibility checked at construction
            raise InfeasibleBoxError("all edges on remaining short paths are saturated")
        best = min(counts, key=lambda e: (-counts[e], e))
        x[best] = box[best]
        rounds += 1
    vec = BudgetVector(x)
    return RunReport(
        algorithm="cc",
        budget=vec,
        norm=vec.norm,
        outer_iterations=rounds,
        inner_iterations=rounds,
        wall_time=time.perf_counter() - start,
        feasible=True,
        seed=seed,
    )


def min_budget_to_block(instance: QosdInstance, paths: Iterable[Path]) -> BudgetVector:
    """Smallest-norm vector within the box under which every given path
    reaches T, by one MILP solve.

    Binary z_{e,i} = [x_e >= i] for i = 1..cap_e on the paths' edges, with
    cost 1 and length coefficient f_e(i) - f_e(i-1); the ordering rows
    z_{e,i} >= z_{e,i+1} make the path length sum f_e(0) + coeff * z equal
    f_e(x_e) for every nondecreasing table.
    """
    paths = list(paths)
    box = instance.box
    columns: dict[int, list[tuple[int, int]]] = {}
    order = []
    width = 0
    for e in sorted({e for p in paths for e in p.edge_seq}):
        table = instance.weights[e].table
        columns[e] = [(width + i - 1, table[i] - table[i - 1]) for i in range(1, box[e] + 1)]
        order.extend(range(width, width + box[e] - 1))
        width += box[e]
    x = [0] * instance.graph.m
    rows = path_rows(instance, paths, columns, width)
    if rows is None:
        return BudgetVector(x)
    if width == 0:
        raise InfeasibleBoxError("no edge of a short path has budget to spend")
    A, need = rows
    # row j of I - shift is z_j - z_{j+1}; keep those within one edge
    ordering = (sparse.eye_array(width) - sparse.eye_array(width, k=1)).tocsr()[order]
    # milp's form need <= A z, as the form decides which optimum HiGHS returns
    lower = np.concatenate([need, np.zeros(len(order))])
    upper = np.full(len(lower), np.inf)
    model = sparse.vstack([A, ordering]).tocsc()
    z, _ = _solve_highs((model.indptr, model.indices, model.data), lower, upper, [1.0] * width, integral=True)
    for e, terms in columns.items():
        x[e] = round(sum(z[j] for j, _ in terms))
    return BudgetVector(x)


def oracle_opt(instance: QosdInstance, *, deadline: Deadline | float | None = None) -> RunReport:
    """Exact optimum for the full instance: re-solve
    :func:`min_budget_to_block` on a growing path set until no pair has a
    path below T. Each round is one outer and one inner iteration."""
    start = time.perf_counter()
    x, active, rounds = _generate(
        instance, BudgetVector.zeros(instance.graph.m), lambda x: potential_paths(instance, x),
        lambda paths: min_budget_to_block(instance, paths),
        deadline=Deadline.ensure(deadline), cap=math.inf, what="oracle",
    )
    return RunReport(
        algorithm="oracle",
        budget=x,
        norm=x.norm,
        outer_iterations=rounds,
        inner_iterations=rounds,
        wall_time=time.perf_counter() - start,
        feasible=True,
        extras={"constraint_paths": len(active)},
    )
