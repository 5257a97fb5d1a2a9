"""Unit-greedy path blocking: spend one budget unit at a time on the edge
with the largest marginal gain of the blocking sum D."""

from __future__ import annotations

from typing import Iterable

from .instance import QosdInstance
from .pathcore import BudgetVector, PathSupport
from .report import Deadline


def block_greedy(
    instance: QosdInstance,
    paths: Iterable[tuple[int, ...]],
    *,
    trace: list | None = None,
    deadline: Deadline | float | None = None,
    support: PathSupport | None = None,
) -> BudgetVector:
    """Smallest-first greedy: add argmax-gain unit increments until every
    path in ``paths`` reaches the threshold.

    Only edges on candidate paths can change D, so the scan is restricted
    to that support. Ties go to the lowest edge index. When flat weight
    increments leave no unit with positive gain, the step is the best-ratio
    chunk instead (:meth:`PathSupport.best`'s default rule); ``InfeasibleBoxError``
    only when no chunk has positive gain either while some path is still
    below T. ``support``, when given, is a zero-budget support of ``paths``
    to start from (:meth:`PathSupport.block` leaves its x as it is).
    """
    if support is None:
        support = PathSupport(instance, paths)
    return support.block(Deadline.ensure(deadline), "greedy blocking", trace)
