"""Sampled-data stability analysis of fixed-frequency PWM DC-DC converters.

The package solves the T-periodic orbit of a two-stage switched-linear
converter model, builds the exact one-cycle Jacobian and its feedback
decomposition, evaluates the period-doubling / saddle-node /
Neimark-Sacker boundary conditions (generally and in buck closed form,
including a harmonic-balance equivalent), and cross-checks everything
against an exact piecewise-exponential time-domain simulator.
"""

import os

# The matrices are N <= 8, so BLAS threads only add wake-up stalls on a busy
# host.  Pin them before numpy/scipy load (as perfbench/run.py does).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .buck import (
    BuckPlant,
    HarmonicBalanceResult,
    HarmonicGains,
    TaylorCoefficients,
    buck_pdb_residual,
    equivalence_residual,
    harmonic_balance,
    harmonic_gains,
    lem_boundary_coefficient,
    make_buck_plant,
    taylor_coefficients,
    taylor_critical_vs,
    vs_critical_lem,
    vs_critical_tem,
)
from .config import ConverterConfig, build, emit_config, parse_config
from .errors import (
    ConfigError,
    DegenerateOrbitError,
    DimensionError,
    DivergenceError,
    DomainError,
    GrazingError,
    NoConvergenceError,
    NoSwitchingError,
    OracleInvalidError,
    PwmStabError,
    ResolventPoleError,
    SingularMatrixError,
)
from .model import (
    BuckColumns,
    InputVector,
    ModulationEdge,
    RampSignal,
    SwitchedLinearModel,
    detect_buck_structure,
    preset_vmc_buck,
    ramp_value,
)
from .sim import (
    CycleSimulator,
    Trajectory,
    detect_period,
    fd_jacobian,
    simulate,
    steady_period,
)
from .stability import (
    BoundaryCurve,
    CurveSample,
    JacobianDecomposition,
    StabilityClass,
    StabilityReport,
    classify,
    f_plot,
    general_critical_value,
    jacobian,
    nsb_residual,
    nyquist,
    pdb_residual,
    s_plot,
    snb_residual,
)
from .steadystate import (
    SteadyState,
    orbit_at,
    solve_periodic_orbit,
)

__version__ = "0.1.0"
