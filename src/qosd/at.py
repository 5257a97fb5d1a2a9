"""Trading blocker: per iteration, pick the (edge, amount) chunk with the
best gain-per-unit ratio over every spendable amount."""

from __future__ import annotations

from typing import Iterable

from .instance import QosdInstance
from .pathcore import BudgetVector, PathSupport
from .report import Deadline


def block_adaptive(
    instance: QosdInstance,
    paths: Iterable[tuple[int, ...]],
    *,
    trace: list | None = None,
    deadline: Deadline | float | None = None,
    support: PathSupport | None = None,
) -> BudgetVector:
    """Blocks every candidate path by repeatedly adding the best-ratio chunk
    (:meth:`PathSupport.best`'s chunk rule holds the exact ratio and tie rules;
    with concave or linear tables the run matches the greedy blocker bit for
    bit). ``support``, when given, is a zero-budget ``chunks=True`` support of
    ``paths`` to start from (:meth:`PathSupport.block` leaves its x as it is).
    """
    if support is None:
        support = PathSupport(instance, paths, chunks=True)
    return support.block(Deadline.ensure(deadline), "adaptive trading", trace)
