"""Run reports and the cooperative deadline used by all solvers."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import ConfigError, SolverTimeout
from .pathcore import BudgetVector


@dataclass
class RunReport:
    """Outcome of one solver run; ``extras`` holds solver-specific counters."""

    algorithm: str
    budget: BudgetVector
    norm: int
    outer_iterations: int
    inner_iterations: int
    wall_time: float
    feasible: bool
    seed: int | None = None
    extras: dict = field(default_factory=dict)

    @classmethod
    def finish(
        cls, algorithm: str, budget: BudgetVector, start: float, outer: int, inner: int,
        *, feasible: bool = True, seed: int | None = None, **extras,
    ) -> "RunReport":
        """The report of a run that began at ``time.perf_counter()`` reading
        ``start`` and ends now, with the budget's norm."""
        return cls(algorithm, budget, budget.norm, outer, inner, time.perf_counter() - start, feasible, seed, extras)


class Deadline:
    """Wall-clock budget polled between iterations (no hard kills)."""

    def __init__(self, seconds: float | None):
        if seconds != seconds:  # NaN: no clock reading is ever past it
            raise ConfigError("time limit must be a number, not nan")
        self.seconds = seconds
        self._expiry = None if seconds is None else time.monotonic() + seconds

    def check(self, context: str = "") -> None:
        if self._expiry is not None and time.monotonic() > self._expiry:
            suffix = f" during {context}" if context else ""
            raise SolverTimeout(f"time limit of {self.seconds}s exceeded{suffix}")

    @classmethod
    def ensure(cls, deadline: "Deadline | float | None") -> "Deadline":
        return deadline if isinstance(deadline, Deadline) else cls(deadline)
