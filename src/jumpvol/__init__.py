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
from .estimators import (
    EstimatorConfig,
    estimates,
    jump_bias,
    richardson,
    richardson_paired,
    tqv,
)
from .harness import (
    CellConfig,
    ExperimentConfig,
    McReport,
    emit_report,
    load_config,
    parse_config,
    rate_fit,
    run_mc,
    run_rate_experiment,
)
from .kernels import Kernel, c_tilde, cancelling_kernel, kernel_moment
from .levy import (
    JumpLaw,
    ModelSpec,
    c_alpha,
    simulate_path,
    stable_scale,
    tail_constant,
)
from .stable import d_zeta, d_zeta_asymptotic, d_zeta_quadrature, stable_density

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
