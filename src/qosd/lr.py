"""LP relaxation with lazy constraint generation and randomized rounding,
for instances whose weight tables are affine in the budget."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import IterationLimitError, NonlinearWeightsError, QosdError, StallError
from .instance import QosdInstance
from .pathcore import BudgetVector, CandidateSet, Path, path_below, unseparated_pairs
from .report import Deadline, RunReport

FEAS_TOL = 1e-6
SNAP_TOL = 1e-9


@dataclass
class LpSolution:
    """Fractional optimum over the active constraint paths."""

    fractional: list[float]
    objective: float
    constraint_paths: CandidateSet


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


def solve_lp(instance: QosdInstance, paths: CandidateSet | list[Path]) -> LpSolution:
    """min sum(x) s.t. sum_{e in p} beta_e x_e >= T - sum_{e in p} alpha_e
    for every path, 0 <= x_e <= b_e; deterministic for fixed input."""
    betas, alphas = _affine_coeffs(instance)
    path_set = paths if isinstance(paths, CandidateSet) else CandidateSet(paths)
    m = instance.graph.m
    if len(path_set) == 0:
        return LpSolution([0.0] * m, 0.0, path_set)

    support = sorted({e for p in path_set for e in p.edge_seq})
    col = {e: j for j, e in enumerate(support)}
    rows = []
    rhs = []
    for p in path_set:
        need = instance.threshold - sum(alphas[e] for e in p.edge_seq)
        if need <= 0:
            continue  # vacuous: initial weights already reach T
        row = np.zeros(len(support))
        for e in p.edge_seq:
            row[col[e]] -= betas[e]
        rows.append(row)
        rhs.append(-need)
    if not rows:
        return LpSolution([0.0] * m, 0.0, path_set)

    bounds = [(0.0, float(instance.box[e])) for e in support]
    result = linprog(
        c=np.ones(len(support)),
        A_ub=np.vstack(rows),
        b_ub=np.array(rhs, dtype=float),
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise QosdError(f"LP solve failed unexpectedly: {result.message}")
    fractional = [0.0] * m
    for e in support:
        fractional[e] = float(result.x[col[e]])
    return LpSolution(fractional, float(result.fun), path_set)


def constraint_generation(
    instance: QosdInstance,
    *,
    deadline: Deadline | float | None = None,
    iteration_cap: int | None = None,
    stats: dict | None = None,
) -> LpSolution:
    """Grow the LP one round of violated shortest paths at a time until the
    fractional optimum keeps every pair at length >= T (within tolerance).

    The separation oracle is :func:`pathcore.path_below` on the float
    lengths alpha_e + beta_e x'_e (all >= 1) with the strict bound
    T * (1 - FEAS_TOL); ties break by the lowest edge index, as in the
    path queries of IG and AT.
    """
    betas, alphas = _affine_coeffs(instance)
    deadline = Deadline.ensure(deadline)
    cap = iteration_cap if iteration_cap is not None else 10 * instance.k * instance.hop_bound
    m = instance.graph.m
    active = CandidateSet()
    solution = LpSolution([0.0] * m, 0.0, active)
    cutoff = instance.threshold * (1.0 - FEAS_TOL)
    rounds = 0
    while True:
        deadline.check("constraint generation")
        lengths = [alphas[e] + betas[e] * solution.fractional[e] for e in range(m)]
        found = (
            path_below(instance, lengths, pair, cutoff, i)
            for i, pair in enumerate(instance.pairs)
        )
        violated = [p for p in found if p is not None]
        if not violated:
            if stats is not None:
                stats["rounds"] = rounds
            return solution
        added = active.add_all(violated)
        if added == 0:
            raise StallError(
                "constraint generation re-proposed only known paths; the LP "
                "left a constraint violated beyond tolerance"
            )
        rounds += 1
        if rounds > cap:
            raise IterationLimitError(f"constraint generation exceeded {cap} rounds")
        solution = solve_lp(instance, active)


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
    cg_stats: dict = {}
    lp = constraint_generation(instance, deadline=deadline, stats=cg_stats)
    betas, _ = _affine_coeffs(instance)
    eta_value = (
        eta_override
        if eta_override is not None
        else eta(instance.graph.n, instance.hop_bound, max(betas), delta)
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
        outer_iterations=cg_stats.get("rounds", 0),
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
