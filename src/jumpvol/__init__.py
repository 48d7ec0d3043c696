"""jumpvol: truncated quadratic variation estimation for jump diffusions.

Simulates discretely observed jump diffusions driven by (tempered) stable
noise and estimates integrated volatility by truncated quadratic variation,
with bias subtraction, kernel cancellation, and Richardson extrapolation.
"""

import os as _os
import sys as _sys

# numpy's OpenBLAS starts a pool of one thread per CPU at import, which took
# about 70 ms of a 150-ms `import numpy` (numpy 2.4, 2 CPUs; 80 ms with one
# thread).  jumpvol never uses the pool: its parallel work runs on
# `workers.fork_map`'s processes, which keep every CPU busy already, and its
# BLAS calls are tiny.  Nor does one thread change a result: OpenBLAS splits
# a gemm along M or N, never along K, so every sum keeps its order.  A
# process without the pool also forks with no other thread running.  The
# variable is set only around the import, so nothing the program starts
# inherits it; a thread count the user set, or a numpy imported before
# jumpvol, is left alone.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in _sys.modules and not any(
    name in _os.environ for name in _THREAD_VARIABLES
):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401  (OpenBLAS starts here)
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .errors import DiagnosticError, NumericalError, ParameterError

# The exports of each submodule.  A submodule loads on the first use of it or
# of one of its exports, through `__getattr__` (PEP 562), so that a program
# imports only the modules it runs: `jumpvol dzeta` never compiles `harness`
# and `estimators`.
_EXPORTS = {
    "estimators": (
        "EstimatorConfig",
        "estimates",
        "jump_bias",
        "richardson",
        "richardson_paired",
        "tqv",
    ),
    "harness": (
        "CellConfig",
        "ExperimentConfig",
        "McReport",
        "emit_report",
        "load_config",
        "parse_config",
        "rate_fit",
        "run_mc",
        "run_rate_experiment",
    ),
    "kernels": ("Kernel", "c_tilde", "cancelling_kernel", "kernel_moment"),
    "levy": (
        "JumpLaw",
        "ModelSpec",
        "c_alpha",
        "simulate_path",
        "stable_scale",
        "tail_constant",
    ),
    "stable": ("d_zeta", "d_zeta_asymptotic", "d_zeta_quadrature", "stable_density"),
    "workers": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    """An export or a submodule, its module imported on first use."""
    module = _HOME.get(name, name)
    # An import of a submodule binds it on this package, and
    # `from .m import __name__` is such an import.  (`from . import m` would
    # look m up on this package first, and so call this function again.)
    match module:
        case "estimators":
            from .estimators import __name__ as _
        case "harness":
            from .harness import __name__ as _
        case "kernels":
            from .kernels import __name__ as _
        case "levy":
            from .levy import __name__ as _
        case "stable" | "workers":  # `stable` imports `workers`
            from .stable import __name__ as _
        case _:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[module]
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """This package's names, with the exports and submodules not yet loaded."""
    return sorted({*globals(), *_EXPORTS, *_HOME})


__version__ = "0.1.0"

__all__ = [
    "CellConfig",
    "DiagnosticError",
    "EstimatorConfig",
    "ExperimentConfig",
    "JumpLaw",
    "Kernel",
    "McReport",
    "ModelSpec",
    "NumericalError",
    "ParameterError",
    "c_alpha",
    "c_tilde",
    "cancelling_kernel",
    "d_zeta",
    "d_zeta_asymptotic",
    "d_zeta_quadrature",
    "emit_report",
    "estimates",
    "jump_bias",
    "kernel_moment",
    "load_config",
    "parse_config",
    "rate_fit",
    "richardson",
    "richardson_paired",
    "run_mc",
    "run_rate_experiment",
    "simulate_path",
    "stable_density",
    "stable_scale",
    "tail_constant",
    "tqv",
]
