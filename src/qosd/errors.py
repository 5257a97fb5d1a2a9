"""Exception hierarchy shared across the toolkit."""


class QosdError(Exception):
    """Base class for all toolkit errors."""


class ParseError(QosdError):
    """Malformed input text (edge lists, instance files, configs)."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class InvalidInstanceError(QosdError):
    """Structurally invalid problem instance."""


class InfeasibleBoxError(QosdError):
    """No budget vector within the box can achieve the required blocking."""


class StallError(QosdError):
    """A path-generation round re-proposed only known paths (solve-step bug)."""


class IterationLimitError(QosdError):
    """Outer-iteration cap exceeded."""


class SolverTimeout(QosdError):
    """Cooperative deadline expired between iterations."""


class NonlinearWeightsError(QosdError):
    """LP-based solving requested on non-affine weight tables."""


class GammaZeroError(QosdError):
    """Theoretical sample sizing is undefined at concave ratio zero."""


class ConfigError(QosdError):
    """Invalid experiment configuration."""
