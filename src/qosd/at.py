"""Trading blocker: per iteration, pick the (edge, amount) chunk with the
best gain-per-unit ratio, scanning every spendable amount exactly."""

from __future__ import annotations

from typing import Iterable

from .errors import InfeasibleBoxError
from .instance import QosdInstance
from .pathcore import BudgetVector, Path, PathSupport
from .report import Deadline


def block_adaptive(
    instance: QosdInstance,
    paths: Iterable[Path],
    *,
    trace: list | None = None,
    deadline: Deadline | float | None = None,
) -> BudgetVector:
    """Blocks every candidate path by repeatedly adding the best-ratio chunk
    (:meth:`PathSupport.best_chunk` holds the exact ratio and tie rules; with
    concave or linear tables the run matches the greedy blocker bit for bit).
    """
    deadline = Deadline.ensure(deadline)
    support = PathSupport(instance, paths)
    while support.gap > 0:
        deadline.check("adaptive trading")
        edge, amount, gain = support.best_chunk()
        if edge < 0:
            raise InfeasibleBoxError(
                "no chunk improves D while paths remain below T"
            )
        support.apply(edge, amount)
        if trace is not None:
            trace.append((edge, amount, gain))
    return BudgetVector(support.x)
