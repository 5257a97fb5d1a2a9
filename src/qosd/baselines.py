"""Centrality-cutting heuristic and the exact minimum-budget oracle.

The oracle is shortest-path interdiction as an integer program (Israeli &
Wood, 2002) with lazy path constraints: it solves the model on the paths
found so far, adds every pair's shortest path still below T under that
optimum, and stops when there is none, so the last optimum is exact."""

from __future__ import annotations

import math
import time
from typing import Iterable

from .errors import InfeasibleBoxError
from .framework import _generate, potential_paths
from .instance import QosdInstance
from .lr import _PathRows, _solve_highs
from .pathcore import BudgetVector, budget_array
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
    box = instance.box
    x = budget_array(instance)
    rounds = 0
    while True:
        deadline.check("centrality cutting")
        paths = potential_paths(instance, BudgetVector(x))
        if not paths:
            break
        counts: dict[int, int] = {}
        for p in paths:
            for e in p:
                if x[e] < box[e]:
                    counts[e] = counts.get(e, 0) + 1
        if not counts:
            # every edge of every remaining short path is already at cap,
            # which contradicts box feasibility checked at construction
            raise InfeasibleBoxError("all edges on remaining short paths are saturated")
        best = min(counts, key=lambda e: (-counts[e], e))
        x[best] = box[best]
        rounds += 1
    return RunReport.finish("cc", BudgetVector(x), start, rounds, rounds, seed=seed)


def min_budget_to_block(instance: QosdInstance, paths: Iterable[tuple[int, ...]]) -> BudgetVector:
    """Smallest-norm vector within the box under which every given path
    reaches T, by one MILP solve.

    Binary z_{e,i} = [x_e >= i] for i = 1..cap_e on the paths' edges, with
    cost 1 and length coefficient f_e(i) - f_e(i-1) on the rows of
    :class:`lr._PathRows`; the ordering rows z_{e,i} - z_{e,i+1} >= 0 make
    the path length sum f_e(0) + coeff * z equal f_e(x_e) for every
    nondecreasing table.
    """
    rows = _PathRows(instance)
    rows.extend(list(paths))
    box = instance.box
    x = budget_array(instance)
    if not rows.need:
        return BudgetVector(x)
    # milp's form need <= A z, path rows first, then the ordering rows in
    # column order: the form decides which optimum HiGHS returns
    start, index, value = [0], [], []
    ordering = len(rows.need)  # the next ordering row
    for e in rows.support:
        table = instance.weights[e].table
        for i in range(1, box[e] + 1):
            if table[i] != table[i - 1]:
                index += rows.rows[e]
                value += [float(table[i] - table[i - 1])] * len(rows.rows[e])
            if i > 1:
                index.append(ordering - 1)
                value.append(-1.0)
            if i < box[e]:
                index.append(ordering)
                value.append(1.0)
                ordering += 1
            start.append(len(index))
    width = len(start) - 1
    if width == 0:
        raise InfeasibleBoxError("no edge of a short path has budget to spend")
    z, _ = _solve_highs(
        (start, index, value), rows.need + [0.0] * (ordering - len(rows.need)),
        [math.inf] * ordering, [1.0] * width, solver=rows.solver, integral=True,
    )
    j = 0
    for e in rows.support:
        x[e] = round(sum(z[j:j + box[e]]))
        j += box[e]
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
    return RunReport.finish("oracle", x, start, rounds, rounds, constraint_paths=len(active))
