"""LP relaxation with lazy constraint generation and randomized rounding,
for instances whose weight tables are affine in the budget.

Constraint generation grows one HiGHS model (:class:`_LpModel`, on scipy's
private binding, which loads with the first model) by each round's new
columns and rows and re-solves it from the last optimal basis. The rounded
vector then gives back (:func:`pathcore.prune`) the units that rounding
added and no pair needs."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from functools import cache
from itertools import islice
from typing import Iterable

import numpy as np

from .errors import ConfigError, InfeasibleBoxError, QosdError
from .framework import Candidates, _generate
from .instance import QosdInstance
from .pathcore import BudgetVector, budget_array, corridor, prune, separating_paths, unseparated_pairs
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


def _optimum(solver: highs._Highs) -> tuple[np.ndarray, float]:
    """``(column values, objective)`` of the solver's last run: infeasible
    raises ``InfeasibleBoxError``, any other non-optimum ``QosdError``."""
    highs = _binding()[0]
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        error = InfeasibleBoxError if status == highs.HighsModelStatus.kInfeasible else QosdError
        raise error(f"no optimum within the box: HiGHS reports {solver.modelStatusToString(status)}")
    return np.array(solver.getSolution().col_value), solver.getObjectiveValue()


class _LpModel:
    """One HiGHS LP that grows with a candidate set and keeps its basis: the
    ``columns`` of the edges read so far, in order of entry, and ``read`` paths."""

    def __init__(self):
        highs, options, _ = _binding()
        self.solver = highs._Highs()
        self.solver.passOptions(options)
        self.columns: dict[int, int] = {}
        self.read = 0


def solve_lp(instance: QosdInstance, paths: Iterable[tuple[int, ...]], *, model: _LpModel | None = None) -> LpSolution:
    """min sum(x) s.t. sum_{e in p} beta_e x_e >= T - sum_{e in p} alpha_e
    for every path, 0 <= x_e <= b_e; deterministic for fixed input.

    The paths not yet read join ``model`` (constraint generation passes one
    for all its rounds; a fresh one otherwise), which re-solves by dual
    simplex from its last basis; a first solve has none, so HiGHS presolves
    it. An edge's column (cost 1) enters with the first path through it;
    a path still short at zero budget adds a row, beta_e on its edges."""
    betas, alphas = instance.affine_coeffs()
    path_set = dict.fromkeys(paths)
    model = model or _LpModel()
    columns, solver, entered = model.columns, model.solver, len(model.columns)
    starts, index, value, need = [], [], [], []
    for p in islice(path_set, model.read, None):
        for e in p:
            columns.setdefault(e, len(columns))
        gap = instance.threshold - sum(alphas[e] for e in p)
        if gap > 0:
            starts.append(len(index))
            index += [columns[e] for e in p if betas[e]]
            value += [float(betas[e]) for e in p if betas[e]]
            need.append(float(gap))
    model.read = len(path_set)
    if len(columns) > entered:
        ub = np.array([instance.box[e] for e in islice(columns, entered, None)], dtype=float)
        solver.addCols(len(ub), np.ones(len(ub)), np.zeros(len(ub)), ub, 0, [], [], [])
    if need:
        solver.addRows(len(need), need, [math.inf] * len(need), len(index), starts, index, value)
    fractional, objective = np.zeros(instance.graph.m), 0.0
    if solver.getNumRow():
        solver.run()
        fractional[list(columns)], objective = _optimum(solver)
    return LpSolution(fractional.tolist(), objective, path_set)


def constraint_generation(
    instance: QosdInstance,
    *,
    deadline: Deadline | float | None = None,
    iteration_cap: int | None = None,
) -> LpSolution:
    """Grow the LP one round of violated paths at a time until the
    fractional optimum keeps every pair at length >= T (within tolerance).

    The separation oracle is IG and AT's, :func:`pathcore.separating_paths`,
    on the float lengths alpha_e + beta_e max(x'_e, 0) (all >= alpha_e =
    table[0], as the sweep's corridor needs), bounded by T * (1 - FEAS_TOL).
    A path enters each node by its lowest-index tight in-edge, tested by
    the same float64 sum that gave the distances, so fractional ties
    resolve exactly as the kernel's. Every round re-solves one :class:`_LpModel`.
    """
    betas, alphas = (np.array(c, dtype=float) for c in instance.affine_coeffs())
    cutoff = instance.threshold * (1.0 - FEAS_TOL)
    model = _LpModel()

    def separate(solution: LpSolution) -> list[tuple[int, ...]]:
        # the sweep needs every length >= alpha = table[0]: clip any negative LP noise
        lengths = alphas + betas * np.maximum(solution.fractional, 0.0)
        return separating_paths(instance, None, lengths=lengths, bound=cutoff)

    solution, _, rounds = _generate(
        instance, LpSolution([0.0] * instance.graph.m, 0.0, {}), separate,
        lambda paths: solve_lp(instance, paths, model=model),
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
    fallback, so the returned vector is always feasible, then
    :func:`pathcore.prune` on the edges that rounding raised above the LP
    optimum y, so x >= floor(y) still holds; ``unpruned_norm`` is the norm
    before it.

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
    # the edges rounded up, x_e = ceil(y_e) > y_e: each may give back its unit
    raised = np.flatnonzero(np.asarray(x.values) > np.add(lp.fractional, SNAP_TOL))
    pruned = prune(instance, x, raised.tolist())

    return RunReport.finish(
        "lr", pruned, start, lp.rounds, retries + 1, feasible=feasible, seed=seed, retries=retries,
        fallback=fallback, lp_objective=lp.objective, eta=eta_value, constraint_paths=len(lp.constraint_paths),
        unpruned_norm=x.norm,
    )
