"""Exception types shared across the package.

Configuration and input problems raise plain ``ValueError`` (or the
``ScenarioError`` subclass, which carries the offending field name).
Failures of the numerics themselves derive from ``NumericalError`` so
callers can tell the two classes apart, e.g. for process exit codes.
"""


class NumericalError(RuntimeError):
    """A computation failed to produce a usable result."""


class ConvergenceError(NumericalError):
    """An iterative solve failed, exhausted its budget, or returned an answer
    that misses its residual check; carries the last residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class SimulationError(NumericalError):
    """Time integration produced a non-finite state or left the gain's
    domain; carries the time of the failure."""

    def __init__(self, message: str, t_failure: float | None = None):
        super().__init__(message)
        self.t_failure = t_failure


class NoPulseError(NumericalError):
    """A trace contained no optical pulse to measure."""


class FitError(NumericalError):
    """A parameter fit could not reach its target; carries what was achieved."""

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class ScenarioError(ValueError):
    """A scenario document failed validation; names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
