"""Outer iterative scaffold shared by the greedy and trading blockers.

Each outer round harvests every unseparated pair's current shortest path
into the candidate set, resets the budget to zero and re-blocks the whole
set, until no pair has a path below the threshold.
"""

from __future__ import annotations

import time
from typing import Callable

from .errors import IterationLimitError, StallError
from .instance import QosdInstance
from .pathcore import BudgetVector, CandidateSet, Path, pair_shortest_paths
from .report import Deadline, RunReport

Blocker = Callable[..., BudgetVector]


def potential_paths(instance: QosdInstance, x: BudgetVector) -> list[Path]:
    """One shortest path (below T under x) per still-unseparated pair."""
    return [p for p in pair_shortest_paths(instance, x) if p is not None]


def run_iterative(
    instance: QosdInstance,
    blocker: str | Blocker = "ig",
    *,
    threads: int = 1,
    deadline: Deadline | float | None = None,
    iteration_cap: int | None = None,
    seed: int | None = None,
) -> RunReport:
    """Alternate path harvesting with full re-blocking until separation.

    ``blocker`` is "ig", "at", or any callable with the blocker signature
    ``(instance, candidate_set, trace=list) -> BudgetVector``. A round that
    contributes no new path means the previous blocking failed; that is a
    logic error surfaced as ``StallError`` rather than a silent loop. The
    loop ends only when a sweep under the final x finds no path below T, so
    the report is feasible.
    ``threads`` is accepted and ignored: every search runs in the caller's
    thread.
    """
    from .at import block_adaptive
    from .ig import block_greedy

    if blocker == "ig":
        blocker_fn: Blocker = block_greedy
        name = "ig"
    elif blocker == "at":
        blocker_fn = block_adaptive
        name = "at"
    elif callable(blocker):
        blocker_fn = blocker
        name = getattr(blocker, "__name__", "custom")
    else:
        raise ValueError(f"unknown blocker {blocker!r}")

    deadline = Deadline.ensure(deadline)
    cap = iteration_cap if iteration_cap is not None else 10 * instance.k * instance.hop_bound
    start = time.perf_counter()

    candidates = CandidateSet()
    x = BudgetVector.zeros(instance.graph.m)
    outer = 0
    inner = 0
    while True:
        deadline.check(f"{name} outer iteration {outer}")
        fresh = potential_paths(instance, x)
        if not fresh:
            break
        if candidates.add_all(fresh) == 0:
            raise StallError(
                f"outer iteration {outer} re-proposed only known paths; "
                "the previous blocking left a candidate path below T"
            )
        outer += 1
        if outer > cap:
            raise IterationLimitError(
                f"exceeded {cap} outer iterations "
                f"(|P|={len(candidates)}, k={instance.k}, h={instance.hop_bound})"
            )
        trace: list = []
        x = blocker_fn(instance, candidates, trace=trace, deadline=deadline)
        inner += len(trace)

    elapsed = time.perf_counter() - start
    return RunReport(
        algorithm=name,
        budget=x,
        norm=x.norm,
        outer_iterations=outer,
        inner_iterations=inner,
        wall_time=elapsed,
        feasible=True,
        seed=seed,
        extras={"candidate_paths": len(candidates)},
    )
