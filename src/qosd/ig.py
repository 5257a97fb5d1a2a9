"""Unit-greedy path blocking: spend one budget unit at a time on the edge
with the largest marginal gain of the blocking sum D."""

from __future__ import annotations

from typing import Iterable

from .errors import InfeasibleBoxError
from .instance import QosdInstance
from .pathcore import BudgetVector, Path, PathSupport
from .report import Deadline


def block_greedy(
    instance: QosdInstance,
    paths: Iterable[Path],
    *,
    trace: list | None = None,
    deadline: Deadline | float | None = None,
) -> BudgetVector:
    """Smallest-first greedy: add argmax-gain unit increments until every
    path in ``paths`` reaches the threshold.

    Only edges on candidate paths can change D, so the scan is restricted
    to that support. Ties go to the lowest edge index. Raises
    ``InfeasibleBoxError`` when no unit has positive gain while some path
    is still below T (with flat weight increments this can trigger even
    inside a feasible box; the trading blocker handles those instances).
    """
    deadline = Deadline.ensure(deadline)
    support = PathSupport(instance, paths)
    while support.gap > 0:
        deadline.check("greedy blocking")
        edge, gain = support.best_unit()
        if edge < 0:
            raise InfeasibleBoxError(
                "no unit increment improves D while paths remain below T"
            )
        support.apply(edge, 1)
        if trace is not None:
            trace.append((edge, 1, gain))
    return BudgetVector(support.x)
