"""LP relaxation with lazy constraint generation and randomized rounding,
for instances whose weight tables are affine in the budget.

:func:`path_rows` builds the path-length rows of this LP and of the exact
oracle's integer program (:func:`baselines.min_budget_to_block`)."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.optimize import linprog

from .errors import NonlinearWeightsError, QosdError
from .framework import _generate
from .instance import QosdInstance
from .pathcore import BudgetVector, CandidateSet, Path, path_below, source_rows, unseparated_pairs
from .report import Deadline, RunReport

FEAS_TOL = 1e-6
SNAP_TOL = 1e-9


@dataclass
class LpSolution:
    """Fractional optimum over the active constraint paths, found in
    ``rounds`` rounds of constraint generation."""

    fractional: list[float]
    objective: float
    constraint_paths: CandidateSet
    rounds: int = 0


def _affine_coeffs(instance: QosdInstance) -> tuple[list[int], list[int]]:
    betas: list[int] = []
    alphas: list[int] = []
    for i, wf in enumerate(instance.weights):
        coeffs = wf.affine_coeffs()
        if coeffs is None:
            raise NonlinearWeightsError(
                f"edge {i} has a non-affine weight table; LP solving needs "
                "linear (or cutting) weights"
            )
        betas.append(coeffs[0])
        alphas.append(coeffs[1])
    return betas, alphas


def path_rows(
    instance: QosdInstance,
    paths: Iterable[Path],
    columns: Mapping[int, Sequence[tuple[int, float]]],
    width: int,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Dense rows ``A`` and right-hand sides ``need`` of ``A y >= need``, one
    per path that is still short at zero budget.

    ``need = T - sum_{e in p} f_e(0)``; row entry j sums the coefficients of
    the ``(column, coefficient)`` terms ``columns[e]`` over the path's edges.
    Paths that already reach T get no row; None when none is left.
    """
    weights = instance.weights
    rows = []
    need = []
    for p in paths:
        gap = instance.threshold - sum(weights[e].table[0] for e in p.edge_seq)
        if gap <= 0:
            continue
        row = np.zeros(width)
        for e in p.edge_seq:
            for j, coeff in columns[e]:
                row[j] += coeff
        rows.append(row)
        need.append(gap)
    if not rows:
        return None
    return np.vstack(rows), np.array(need, dtype=float)


def solve_lp(instance: QosdInstance, paths: CandidateSet | list[Path]) -> LpSolution:
    """min sum(x) s.t. sum_{e in p} beta_e x_e >= T - sum_{e in p} alpha_e
    for every path, 0 <= x_e <= b_e; deterministic for fixed input."""
    betas, _ = _affine_coeffs(instance)
    path_set = paths if isinstance(paths, CandidateSet) else CandidateSet(paths)
    m = instance.graph.m
    support = sorted({e for p in path_set for e in p.edge_seq})
    columns = {e: [(j, betas[e])] for j, e in enumerate(support)}
    rows = path_rows(instance, path_set, columns, len(support))
    if rows is None:
        return LpSolution([0.0] * m, 0.0, path_set)
    A, need = rows
    result = linprog(
        c=np.ones(len(support)),
        A_ub=-A,
        b_ub=-need,
        bounds=[(0.0, float(instance.box[e])) for e in support],
        method="highs",
    )
    if not result.success:
        raise QosdError(f"LP solve failed unexpectedly: {result.message}")
    fractional = [0.0] * m
    for j, e in enumerate(support):
        fractional[e] = float(result.x[j])
    return LpSolution(fractional, float(result.fun), path_set)


def constraint_generation(
    instance: QosdInstance,
    *,
    deadline: Deadline | float | None = None,
    iteration_cap: int | None = None,
) -> LpSolution:
    """Grow the LP one round of violated shortest paths at a time until the
    fractional optimum keeps every pair at length >= T (within tolerance).

    The separation oracle is one :func:`pathcore.distances` call over every
    pair's source on the float lengths alpha_e + beta_e x'_e (all >= 1),
    bounded by T * (1 - FEAS_TOL), and :func:`pathcore.path_below` on each
    pair's row. As in IG and AT's sweeps, a path enters each node by its
    lowest-index tight in-edge, tested by the same float64 sum that gave
    the distances, so fractional ties resolve exactly as the kernel's.
    """
    betas, alphas = _affine_coeffs(instance)
    m = instance.graph.m
    cutoff = instance.threshold * (1.0 - FEAS_TOL)

    def separate(solution: LpSolution) -> list[Path]:
        lengths = [alphas[e] + betas[e] * solution.fractional[e] for e in range(m)]
        rows = source_rows(instance, lengths, cutoff)
        found = (path_below(instance, lengths, pair, cutoff, i, row)
                 for i, (pair, row) in enumerate(zip(instance.pairs, rows)))
        return [p for p in found if p is not None]

    solution, _, rounds = _generate(
        instance, LpSolution([0.0] * m, 0.0, CandidateSet()), separate,
        lambda paths: solve_lp(instance, paths),
        deadline=Deadline.ensure(deadline), cap=iteration_cap, what="constraint generation",
    )
    solution.rounds = rounds
    return solution


def eta(n: int, h: int, beta_max: int, delta: float) -> float:
    """Inflation factor beta/(1-e^-beta) * (h ln n - ln delta + 1)."""
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if beta_max < 1:
        raise ValueError("beta_max must be at least 1")
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
    values = []
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
        values.append(min(v, instance.box[e]))
    return BudgetVector(values)


def run_lr(
    instance: QosdInstance,
    delta: float = 0.1,
    seed: int = 0,
    *,
    eta_override: float | None = None,
    threads: int = 1,
    deadline: Deadline | float | None = None,
    max_retries: int = 10,
) -> RunReport:
    """Constraint generation, then rounding with retries and a ceiling
    fallback, so the returned vector is always feasible.

    ``threads`` is accepted and ignored: every search runs in the caller's
    thread.
    """
    deadline = Deadline.ensure(deadline)
    start = time.perf_counter()
    lp = constraint_generation(instance, deadline=deadline)
    betas, _ = _affine_coeffs(instance)
    eta_value = (
        eta_override
        if eta_override is not None
        # all-flat tables leave beta_max 0 and nothing to round; floor it at 1
        else eta(instance.graph.n, instance.hop_bound, max(max(betas), 1), delta)
    )
    rng = random.Random(seed)
    fallback = False
    for retries in range(max_retries):
        deadline.check("rounding")
        x = round_solution(instance, lp, eta_value, rng)
        if not unseparated_pairs(instance, x):
            feasible = True
            break
    else:
        # an infinite eta takes the ceiling of every fractional component
        retries = max_retries
        fallback = True
        x = round_solution(instance, lp, math.inf, rng)
        feasible = not unseparated_pairs(instance, x)

    return RunReport(
        algorithm="lr",
        budget=x,
        norm=x.norm,
        outer_iterations=lp.rounds,
        inner_iterations=retries + 1,
        wall_time=time.perf_counter() - start,
        feasible=feasible,
        seed=seed,
        extras={
            "retries": retries,
            "fallback": fallback,
            "lp_objective": lp.objective,
            "eta": eta_value,
            "constraint_paths": len(lp.constraint_paths),
        },
    )
