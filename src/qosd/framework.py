"""Lazy path generation (Israeli & Wood, 2002), shared by IG/AT's outer
iteration, LR's constraint generation and the exact oracle.

Each round separates: :func:`pathcore.separating_paths` finds paths below T
under the current solution whose blocking alone separates every pair. The
round adds them, each its edge tuple, to the candidate set, an insertion-
ordered ``dict``, and re-solves on the whole set, until no pair has a path
below T.
"""

from __future__ import annotations

import time
from itertools import islice
from typing import Callable, TypeVar

from . import at, ig
from .errors import ConfigError, IterationLimitError, StallError
from .instance import QosdInstance
from .pathcore import BudgetVector, PathSupport, pair_shortest_paths, separating_paths
from .report import Deadline, RunReport

S = TypeVar("S")
Candidates = dict[tuple[int, ...], None]


def potential_paths(instance: QosdInstance, x: BudgetVector) -> list[tuple[int, ...]]:
    """One shortest path (below T under x) per still-unseparated pair."""
    return [p for p in pair_shortest_paths(instance, x) if p is not None]


def _generate(
    instance: QosdInstance,
    x: S,
    separate: Callable[[S], list[tuple[int, ...]]],
    solve: Callable[[Candidates], S],
    *,
    deadline: Deadline,
    cap: float | None,
    what: str,
) -> tuple[S, Candidates, int]:
    """Alternate ``separate(x)`` and ``x = solve(paths)`` until separation
    finds no path; returns the last x, the candidate set and the rounds.

    A round that re-proposes any known path means the last solve left it
    below T: a logic error, raised as ``StallError`` rather than a silent
    loop. ``cap`` bounds the rounds (None: 10 * k * h).
    """
    cap = 10 * instance.k * instance.hop_bound if cap is None else cap
    paths: Candidates = {}
    rounds = 0
    while True:
        deadline.check(f"{what} round {rounds}")
        fresh = separate(x)
        if not fresh:
            return x, paths, rounds
        if not paths.keys().isdisjoint(fresh):
            raise StallError(f"{what} round {rounds} re-proposed a known path: the last solve left it below T")
        paths.update(dict.fromkeys(fresh))
        rounds += 1
        if rounds > cap:
            raise IterationLimitError(f"{what} exceeded {cap} rounds "
                                      f"(|P|={len(paths)}, k={instance.k}, h={instance.hop_bound})")
        x = solve(paths)


def run_iterative(
    instance: QosdInstance,
    blocker: str = "ig",
    *,
    threads: int = 1,
    deadline: Deadline | float | None = None,
    iteration_cap: int | None = None,
    seed: int | None = None,
) -> RunReport:
    """Alternate path harvesting with full re-blocking until separation.

    ``blocker`` is "ig" (:func:`ig.block_greedy`) or "at"
    (:func:`at.block_adaptive`); anything else is a ``ConfigError``. Each
    round blocks from the run's one zero-budget :class:`PathSupport` of the
    blocker's rule, extended by the round's new paths. The loop ends only
    when a sweep under the final x finds no path below T: the report is feasible.
    ``threads`` is accepted and ignored.
    """
    if blocker not in ("ig", "at"):
        raise ConfigError(f"unknown blocker {blocker!r}")
    blocker_fn = ig.block_greedy if blocker == "ig" else at.block_adaptive
    support = PathSupport(instance, (), chunks=blocker == "at")
    deadline = Deadline.ensure(deadline)
    start = time.perf_counter()
    inner = 0

    def block(candidates: Candidates) -> BudgetVector:
        nonlocal inner
        trace: list = []
        # the candidate set only grows, in insertion order
        support.extend(islice(candidates, len(support.lengths), None))
        x = blocker_fn(instance, candidates, trace=trace, deadline=deadline, support=support)
        inner += len(trace)
        return x

    x, candidates, outer = _generate(
        instance, BudgetVector.zeros(instance.graph.m), lambda x: separating_paths(instance, x), block,
        deadline=deadline, cap=iteration_cap, what=blocker,
    )
    return RunReport.finish(blocker, x, start, outer, inner, seed=seed, candidate_paths=len(candidates))
