"""fracctrl: fractional-order (Caputo) LTI control systems.

Simulation of commensurate-order state-space systems, modified
controllability Gramians, Kalman rank analysis, and synthesis of
minimum-modified-energy and rank-based steering controls, with
Mittag-Leffler kernel evaluation and grid fractional calculus underneath.
"""

from .errors import (
    DomainError,
    FracctrlError,
    InvalidOrder,
    InvalidParams,
    NonConvergence,
    RankDeficient,
    RankDeficientB,
    SingularGramian,
    SingularKernel,
)
from .fraccalc import (
    GridFunction,
    TimeGrid,
    caputo_derivative,
    frac_integral_left,
    frac_integral_right,
    rl_compose,
    rl_derivative_left,
    singular_convolution,
)
from .fracsys import (
    ControlSignal,
    CuspControl,
    FracSystem,
    MinEnergyControl,
    PinvControl,
    SampledControl,
    Trajectory,
    caputo_residual,
    simulate,
    trajectory_from_csv,
    trajectory_to_csv,
)
from .mlkernel import (
    DEFAULT_POLICY,
    MLParams,
    SeriesPolicy,
    alpha_exp,
    cl_truncation,
    frac_cos,
    frac_sin,
    inverse_kernel,
    ml_matrix,
    ml_matrix_batch,
    ml_scalar,
    state_transition,
)
from .controlsyn import (
    DEFAULT_QUAD,
    GramianResult,
    QuadSettings,
    RankData,
    SINGULAR_GRAMIAN_RCOND,
    SteeringProblem,
    SteeringReport,
    SynthesisResult,
    control_from_dict,
    default_shaping_density,
    gramian,
    kalman_rank,
    modified_energy,
    synthesis_to_dict,
    synthesize_min_energy,
    synthesize_pinv,
    synthesize_rank_based,
    verify_steering,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError", "FracctrlError", "InvalidOrder", "InvalidParams",
    "NonConvergence", "RankDeficient", "RankDeficientB", "SingularGramian",
    "SingularKernel",
    "GridFunction", "TimeGrid", "caputo_derivative", "frac_integral_left",
    "frac_integral_right", "rl_compose", "rl_derivative_left",
    "singular_convolution",
    "ControlSignal", "CuspControl", "FracSystem", "MinEnergyControl",
    "PinvControl", "SampledControl", "Trajectory", "caputo_residual",
    "simulate", "trajectory_from_csv", "trajectory_to_csv",
    "DEFAULT_POLICY", "MLParams", "SeriesPolicy", "alpha_exp",
    "cl_truncation", "frac_cos", "frac_sin", "inverse_kernel", "ml_matrix",
    "ml_matrix_batch", "ml_scalar", "state_transition",
    "DEFAULT_QUAD", "GramianResult", "QuadSettings", "RankData",
    "SINGULAR_GRAMIAN_RCOND", "SteeringProblem", "SteeringReport",
    "SynthesisResult", "control_from_dict", "default_shaping_density",
    "gramian", "kalman_rank", "modified_energy", "synthesis_to_dict",
    "synthesize_min_energy", "synthesize_pinv", "synthesize_rank_based",
    "verify_steering",
]
