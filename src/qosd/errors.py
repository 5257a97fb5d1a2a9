"""Exception hierarchy shared across the toolkit.

Each class declares how it is reported: ``exit_code`` and ``prefix`` are
the CLI's exit code and stderr prefix, ``label`` the experiment CSV's row
error (None: ``"<Class>: <message>"``); one that declares none inherits
the internal error of :class:`QosdError`.
"""


class QosdError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 4
    prefix = "internal error"
    label: str | None = None


class ParseError(QosdError):
    """Malformed input text (edge lists, instance files, configs)."""

    exit_code, prefix = 1, "invalid input"

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class InvalidInstanceError(QosdError):
    """Structurally invalid problem instance."""

    exit_code, prefix = 1, "invalid input"


class InfeasibleBoxError(QosdError):
    """No budget vector within the box can achieve the required blocking."""

    exit_code, prefix = 2, "infeasible"


class StallError(QosdError):
    """A path-generation round re-proposed only known paths (solve-step bug)."""


class IterationLimitError(QosdError):
    """Outer-iteration cap exceeded."""


class SolverTimeout(QosdError):
    """Cooperative deadline expired between iterations."""

    exit_code, prefix, label = 3, "timeout", "timeout"


class NonlinearWeightsError(QosdError):
    """LP-based solving requested on non-affine weight tables."""

    exit_code, prefix, label = 2, "infeasible", "nonlinear-weights"


class GammaZeroError(QosdError):
    """Theoretical sample sizing is undefined at concave ratio zero."""

    exit_code, prefix = 1, "invalid input"


class ConfigError(QosdError):
    """Invalid experiment configuration."""

    exit_code, prefix = 1, "invalid input"
