"""Centrality-cutting heuristic and the exact minimum-budget oracle.

The oracle is shortest-path interdiction as an integer program (Israeli &
Wood, 2002) with lazy path constraints: it solves the model on the paths
found so far, adds :func:`pathcore.separating_paths` under that optimum,
and stops when there is none, so the last optimum is exact."""

from __future__ import annotations

import ctypes
import math
import os
import sys
import time
from typing import Iterable, Sequence

import numpy as np

from .errors import InfeasibleBoxError
from .framework import _generate, potential_paths
from .instance import QosdInstance
from .lr import _binding, _optimum
from .pathcore import BudgetVector, budget_array, separating_paths
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


def _solve_highs(columns: tuple[Sequence[int], Sequence[int], Sequence[float]], lower: Sequence[float],
                 upper: Sequence[float], ub: Sequence[float]) -> tuple[np.ndarray, float]:
    """``(y, objective)`` of min sum(y) s.t. lower <= A y <= upper, y integral
    in [0, ub], by one run of a fresh HiGHS solver with ``milp``'s options.

    ``columns`` is A column-wise, as the ``(indptr, indices, data)`` of a
    CSC matrix with ``len(lower)`` rows and ``len(ub)`` columns. Infeasible
    raises ``InfeasibleBoxError``, any other non-optimum ``QosdError``."""
    highs, _, options = _binding()
    solver = highs._Highs()
    solver.passOptions(options)
    solver.addRows(len(lower), lower, upper, 0, [], [], [])
    solver.addCols(len(ub), [1.0] * len(ub), [0.0] * len(ub), ub, len(columns[1]), columns[0][:-1], *columns[1:])
    solver.changeColsIntegrality(len(ub), range(len(ub)), [highs.HighsVarType.kInteger] * len(ub))
    # HiGHS's MIP code prints some lines to fd 1 whatever its options: point it at fd 2
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        solver.run()
    finally:
        # flush what went to Python's and C's stdout buffers before fd 1 comes back
        sys.stdout.flush()
        fflush = ctypes.CDLL(None).fflush
        fflush.argtypes, fflush.restype = [ctypes.c_void_p], ctypes.c_int
        fflush(None)  # NULL: every C output stream
        os.dup2(saved, 1)
        os.close(saved)
    return _optimum(solver)


def min_budget_to_block(instance: QosdInstance, paths: Iterable[tuple[int, ...]]) -> BudgetVector:
    """Smallest-norm vector within the box under which every given path
    reaches T, by one MILP solve.

    Binary z_{e,i} = [x_e >= i] for i = 1..cap_e on the paths' edges, in id
    order, have cost 1 and length coefficient f_e(i) - f_e(i-1) on the rows
    of the paths through e still short at zero budget (need T - sum f_e(0));
    the ordering rows z_{e,i} - z_{e,i+1} >= 0 make the path length sum
    f_e(0) + coeff * z equal f_e(x_e) for every nondecreasing table.
    """
    box, weights, paths = instance.box, instance.weights, list(paths)
    gaps = [instance.threshold - sum(weights[e].table[0] for e in p) for p in paths]
    need = [float(gap) for gap in gaps if gap > 0]
    rows: dict[int, list[int]] = {e: [] for p in paths for e in p}  # each edge of a path: its rows
    for r, p in enumerate(p for p, gap in zip(paths, gaps) if gap > 0):
        for e in p:
            rows[e].append(r)
    x = budget_array(instance)
    if not need:
        return BudgetVector(x)
    support = sorted(rows)
    # milp's form need <= A z, path rows first, then the ordering rows in
    # column order: the form decides which optimum HiGHS returns
    start, index, value = [0], [], []
    ordering = len(need)  # the next ordering row
    for e in support:
        table = weights[e].table
        for i in range(1, box[e] + 1):
            if table[i] != table[i - 1]:
                index += rows[e]
                value += [float(table[i] - table[i - 1])] * len(rows[e])
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
    z, _ = _solve_highs((start, index, value), need + [0.0] * (ordering - len(need)),
                        [math.inf] * ordering, [1.0] * width)
    j = 0
    for e in support:
        x[e] = round(sum(z[j:j + box[e]]))
        j += box[e]
    return BudgetVector(x)


def oracle_opt(instance: QosdInstance, *, deadline: Deadline | float | None = None) -> RunReport:
    """Exact optimum for the full instance: re-solve
    :func:`min_budget_to_block` on a growing path set until no pair has a
    path below T. Each round is one outer and one inner iteration."""
    start = time.perf_counter()
    x, active, rounds = _generate(
        instance, BudgetVector.zeros(instance.graph.m), lambda x: separating_paths(instance, x),
        lambda paths: min_budget_to_block(instance, paths),
        deadline=Deadline.ensure(deadline), cap=math.inf, what="oracle",
    )
    return RunReport.finish("oracle", x, start, rounds, rounds, constraint_paths=len(active))
