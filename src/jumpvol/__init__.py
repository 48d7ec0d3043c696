"""jumpvol: truncated quadratic variation estimation for jump diffusions.

Simulates discretely observed jump diffusions driven by (tempered) stable
noise and estimates integrated volatility by truncated quadratic variation,
with bias subtraction, kernel cancellation, and Richardson extrapolation.
"""

from .errors import DiagnosticError, NumericalError, ParameterError
from .estimators import (
    EstimatorConfig,
    estimates,
    jump_bias,
    rate_fit,
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
    run_mc,
    run_rate_experiment,
)
from .kernels import Kernel, c_tilde, cancelling_kernel, kernel_moment, parse_kernel
from .levy import (
    JumpLaw,
    ModelSpec,
    PathSample,
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
    "PathSample",
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
    "parse_kernel",
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
