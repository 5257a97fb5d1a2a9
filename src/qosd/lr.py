"""LP relaxation with lazy constraint generation and randomized rounding,
for instances whose weight tables are affine in the budget.

Constraint generation caches each path's covering row once, when the path
enters the candidate set (:class:`_PathRows`), and hands each round's LP
from that cache to the one HiGHS solver the cache keeps. The exact oracle's
integer program (:func:`baselines.min_budget_to_block`) builds its columns
from the same cache, and :func:`_solve_highs` solves both models cold on
scipy's private HiGHS binding, which loads with the first model."""

from __future__ import annotations

import ctypes
import math
import os
import random
import sys
import time
from bisect import insort
from dataclasses import dataclass
from functools import cache
from itertools import islice
from typing import Collection, Iterable, Sequence

import numpy as np

from .errors import ConfigError, InfeasibleBoxError, QosdError
from .framework import Candidates, _generate
from .instance import QosdInstance
from .pathcore import BudgetVector, budget_array, corridor, pair_shortest_paths, unseparated_pairs
from .report import Deadline, RunReport

FEAS_TOL = 1e-6
SNAP_TOL = 1e-9
# rounding attempts before the ceiling fallback
MAX_RETRIES = 10


@dataclass
class LpSolution:
    """Fractional optimum over the active constraint paths (edge tuples, in
    the order they entered), found in ``rounds`` rounds of constraint
    generation."""

    fractional: list[float]
    objective: float
    constraint_paths: Candidates
    rounds: int = 0


@cache
def _binding():
    """scipy's private HiGHS binding (the tests check it against ``linprog``
    and ``milp``) and the LP and MIP options ``linprog`` passes it: presolve
    on, dual simplex, no debug checks or log; the MIP's add ``mip_rel_gap = 0``.
    Built once: passOptions copies the options into the solver."""
    from scipy.optimize._highspy import _core as highs
    lp, mip = highs.HighsOptions(), highs.HighsOptions()
    for options in (lp, mip):
        options.presolve, options.output_flag, options.log_to_console = "on", False, False
        options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    mip.mip_rel_gap = 0.0
    return highs, lp, mip


def __getattr__(name: str):
    """``highs``, ``_LP_OPTIONS`` and ``_MIP_OPTIONS`` load on first use (PEP 562)."""
    names = ("highs", "_LP_OPTIONS", "_MIP_OPTIONS")
    if name in names:
        return _binding()[names.index(name)]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _solve_highs(
    columns: tuple[Sequence[int], Sequence[int], Sequence[float]],
    lower: Sequence[float],
    upper: Sequence[float],
    ub: Sequence[float],
    *,
    solver: highs._Highs,
    integral: bool = False,
) -> tuple[np.ndarray, float]:
    """``(y, objective)`` of min sum(y) s.t. lower <= A y <= upper, 0 <= y <= ub
    (y integral when asked) by one cold run of ``solver``: passModel drops the
    last model's basis and solution, so the vertex is a fresh solver's.

    ``columns`` is A column-wise, as the ``(indptr, indices, data)`` of a
    CSC matrix with ``len(lower)`` rows and ``len(ub)`` columns. Infeasible
    raises ``InfeasibleBoxError``, any other non-optimum ``QosdError``."""
    highs, lp_options, mip_options = _binding()
    num_row, num_col = len(lower), len(ub)
    lp = highs.HighsLp()
    matrix = lp.a_matrix_
    lp.num_row_, lp.num_col_ = matrix.num_row_, matrix.num_col_ = num_row, num_col
    matrix.format_ = highs.MatrixFormat.kColwise
    matrix.start_, matrix.index_, matrix.value_ = columns
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = [1.0] * num_col, [0.0] * num_col, ub
    lp.row_lower_, lp.row_upper_ = lower, upper
    if integral:
        lp.integrality_ = [highs.HighsVarType.kInteger] * num_col
    solver.passOptions(mip_options if integral else lp_options)
    solver.passModel(lp)
    if integral:  # HiGHS's MIP code prints some lines to fd 1 whatever its options: point it at fd 2
        sys.stdout.flush()
        saved = os.dup(1)
        os.dup2(2, 1)
    try:
        solver.run()
    finally:
        if integral:  # flush what went to Python's and C's stdout buffers before fd 1 comes back
            sys.stdout.flush()
            fflush = ctypes.CDLL(None).fflush
            fflush.argtypes, fflush.restype = [ctypes.c_void_p], ctypes.c_int
            fflush(None)  # NULL: every C output stream
            os.dup2(saved, 1)
            os.close(saved)
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        error = InfeasibleBoxError if status == highs.HighsModelStatus.kInfeasible else QosdError
        raise error(f"no optimum within the box: HiGHS reports {solver.modelStatusToString(status)}")
    return np.array(solver.getSolution().col_value), solver.getObjectiveValue()


class _PathRows:
    """The covering rows of a growing candidate set, cached as paths enter it:
    LR's LP and the oracle's integer program are both built from them.

    A path (its edge tuple) has a fixed row, so :meth:`extend` reads each
    new path once. Its edges join the sorted ``support`` (the edges of
    vacuous paths included). A path still short at zero budget becomes the
    next row: its ``need = T - sum_{e in p} f_e(0)`` is appended to
    ``need`` and its row number to ``rows[e]`` for each of its edges. Each
    model turns the rows into its own columns and solves them on ``solver``.
    """

    def __init__(self, instance: QosdInstance):
        self.instance = instance
        self.solver = _binding()[0]._Highs()
        self.read = 0
        self.support: list[int] = []
        self.rows: dict[int, list[int]] = {}
        self.need: list[float] = []

    def extend(self, paths: Collection[tuple[int, ...]]) -> None:
        """Cache the paths added to ``paths`` since the last call."""
        weights, rows = self.instance.weights, self.rows
        for p in islice(paths, self.read, None):
            gap = self.instance.threshold - sum(weights[e].table[0] for e in p)
            for e in p:
                if e not in rows:
                    rows[e] = []
                    insort(self.support, e)
                if gap > 0:
                    rows[e].append(len(self.need))
            if gap > 0:
                self.need.append(float(gap))
        self.read = len(paths)


def solve_lp(
    instance: QosdInstance, paths: Iterable[tuple[int, ...]], *, rows: _PathRows | None = None
) -> LpSolution:
    """min sum(x) s.t. sum_{e in p} beta_e x_e >= T - sum_{e in p} alpha_e
    for every path, 0 <= x_e <= b_e; deterministic for fixed input.

    ``rows`` is the cache that earlier calls on the same growing candidate
    set filled (constraint generation passes one); a fresh one otherwise."""
    betas = instance.affine_coeffs()[0]
    path_set = dict.fromkeys(paths)
    if rows is None:
        rows = _PathRows(instance)
    rows.extend(path_set)
    if not rows.need:
        return LpSolution([0.0] * instance.graph.m, 0.0, path_set)
    # linprog's A_ub form -A y <= -need, one column per support edge (empty
    # when beta_e = 0): the form decides which optimal vertex HiGHS returns
    start, index, value = [0], [], []
    for e in rows.support:
        if betas[e]:
            index += rows.rows[e]
            value += [-float(betas[e])] * len(rows.rows[e])
        start.append(len(index))
    y, objective = _solve_highs(
        (start, index, value), [-math.inf] * len(rows.need), [-need for need in rows.need],
        [instance.box[e] for e in rows.support], solver=rows.solver,
    )
    fractional = np.zeros(instance.graph.m)
    fractional[rows.support] = y
    return LpSolution(fractional.tolist(), objective, path_set)


def constraint_generation(
    instance: QosdInstance,
    *,
    deadline: Deadline | float | None = None,
    iteration_cap: int | None = None,
) -> LpSolution:
    """Grow the LP one round of violated shortest paths at a time until the
    fractional optimum keeps every pair at length >= T (within tolerance).

    The separation oracle is IG and AT's sweep,
    :func:`pathcore.pair_shortest_paths`, on the float lengths
    alpha_e + beta_e max(x'_e, 0) (all >= alpha_e = table[0], as the sweep's
    corridor needs), bounded by T * (1 - FEAS_TOL). A path
    enters each node by its lowest-index tight in-edge, tested by the same
    float64 sum that gave the distances, so fractional ties resolve exactly
    as the kernel's. Every round reuses one :class:`_PathRows` and its solver.
    """
    betas, alphas = (np.array(c, dtype=float) for c in instance.affine_coeffs())
    m = instance.graph.m
    cutoff = instance.threshold * (1.0 - FEAS_TOL)
    rows = _PathRows(instance)

    def separate(solution: LpSolution) -> list[tuple[int, ...]]:
        # the sweep needs every length >= alpha = table[0]: clip any negative LP noise
        lengths = alphas + betas * np.maximum(solution.fractional, 0.0)
        return [p for p in pair_shortest_paths(instance, None, lengths=lengths, bound=cutoff) if p is not None]

    solution, _, rounds = _generate(
        instance, LpSolution([0.0] * m, 0.0, {}), separate,
        lambda paths: solve_lp(instance, paths, rows=rows),
        deadline=Deadline.ensure(deadline), cap=iteration_cap, what="constraint generation",
    )
    solution.rounds = rounds
    return solution


def eta(n: int, h: int, beta_max: int, delta: float) -> float:
    """Inflation factor beta/(1-e^-beta) * (h ln n - ln delta + 1)."""
    if not (0.0 < delta < 1.0):
        raise ConfigError("delta must lie in (0, 1)")
    if beta_max < 1:
        raise ConfigError("beta_max must be at least 1")
    prefactor = beta_max / (1.0 - math.exp(-beta_max))
    return prefactor * (h * math.log(n) - math.log(delta) + 1.0)


def round_solution(
    instance: QosdInstance,
    lp: LpSolution,
    eta_value: float,
    rng: random.Random,
) -> BudgetVector:
    """Randomized rounding: keep integral components; otherwise take the
    ceiling outright when eta * frac >= 1, else ceil with that probability."""
    values, box = budget_array(instance), instance.box
    for e, xe in enumerate(lp.fractional):
        nearest = round(xe)
        if abs(xe - nearest) <= SNAP_TOL:
            v = int(nearest)
        else:
            frac = xe - math.floor(xe)
            if eta_value * frac >= 1.0 or rng.random() < eta_value * frac:
                v = math.ceil(xe)
            else:
                v = math.floor(xe)
        values[e] = min(v, box[e])
    return BudgetVector(values)


def run_lr(
    instance: QosdInstance,
    delta: float = 0.2,
    seed: int = 0,
    *,
    eta_override: float | None = None,
    threads: int = 1,
    deadline: Deadline | float | None = None,
) -> RunReport:
    """Constraint generation, then rounding with retries and a ceiling
    fallback, so the returned vector is always feasible.

    :func:`eta` checks ``delta`` before any LP, also when a positive
    ``eta_override`` replaces its factor. ``threads`` is accepted and
    ignored: every search runs in the caller's thread.
    """
    deadline = Deadline.ensure(deadline)
    start = time.perf_counter()
    # the largest slope on a path below T (a corridor edge's), floored at 1 for flat tables or none
    beta_max = max(np.take(instance.affine_coeffs()[0], corridor(instance).edges).tolist() + [1])
    eta_value = eta(instance.graph.n, instance.hop_bound, beta_max, delta)
    if eta_override is not None:
        if not eta_override > 0:
            raise ConfigError("eta must be positive")
        eta_value = eta_override
    lp = constraint_generation(instance, deadline=deadline)
    rng = random.Random(seed)
    fallback = False
    for retries in range(MAX_RETRIES):
        deadline.check("rounding")
        x = round_solution(instance, lp, eta_value, rng)
        if not unseparated_pairs(instance, x):
            feasible = True
            break
    else:
        # an infinite eta takes the ceiling of every fractional component
        retries, fallback = MAX_RETRIES, True
        x = round_solution(instance, lp, math.inf, rng)
        feasible = not unseparated_pairs(instance, x)

    return RunReport.finish(
        "lr", x, start, lp.rounds, retries + 1, feasible=feasible, seed=seed, retries=retries,
        fallback=fallback, lp_objective=lp.objective, eta=eta_value, constraint_paths=len(lp.constraint_paths),
    )
