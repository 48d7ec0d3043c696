"""Exception types shared across the package, and the one check of alpha."""


class ParameterError(ValueError):
    """A parameter is outside its admissible range."""


class NumericalError(RuntimeError):
    """A numerical routine failed to reach the requested accuracy."""


class DiagnosticError(RuntimeError):
    """A diagnostic procedure has too little usable data to report."""


def check_alpha(alpha: float) -> None:
    """Raise ParameterError unless 0 < alpha < 2 (so also for NaN)."""
    if not 0.0 < alpha < 2.0:
        raise ParameterError(f"alpha must lie in (0, 2), got {alpha}")
