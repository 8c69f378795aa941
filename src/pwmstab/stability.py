"""Exact sampled-data Jacobian, eigenvalue classification, and boundary curves.

The one-cycle linearization of the stroboscopic map factors into an
open-loop part ``Phi0`` (the two stage exponentials), a rank-one switching
correction built from the vector-field jump ``Gamma`` and the sensitivity
row ``Psi``, with ``Phi = Phi0 - Gamma Psi``.  The same pieces yield the
general critical condition: ``lambda`` is an eigenvalue of ``Phi`` exactly
when

    C xdot(d-) + C e^{A1 d} (lambda I - Phi0)^{-1} Gamma  ==  hdot

which specializes to the period-doubling (lambda = -1), saddle-node
(lambda = +1) and Neimark-Sacker (lambda = e^{j theta}) boundary residuals,
and to the swept S-plot / F-plot / discrete-time Nyquist curves.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import DomainError, GrazingError, ResolventPoleError
from .model import InputVector, RampSignal, SwitchedLinearModel, switch_time_of_duty
from .steadystate import SteadyState, stage_exponentials, switch_derivatives, x0_of_d_stack
# x0_of_d stays bound here: perfbench's tracer wraps it on this module.
from .steadystate import x0_of_d  # noqa: F401

#: Relative threshold on |C xdot(d-) - hdot| below which the switching
#: condition is declared tangent to the ramp (linearization undefined).
GRAZING_RTOL = 1e-12


class StabilityClass(enum.Enum):
    STABLE = "Stable"
    PDB = "PDB"
    SNB = "SNB"
    NSB = "NSB"
    UNSTABLE_MIXED = "Unstable-mixed"


@dataclass(frozen=True)
class JacobianDecomposition:
    """One-cycle Jacobian ``Phi`` and its feedback-loop factors.

    ``Gamma`` and ``Psi`` are stored as 1-D arrays; the identity
    ``Phi == Phi0 - outer(Gamma, Psi)`` holds to rounding error.
    """

    Phi: np.ndarray
    Phi0: np.ndarray
    Gamma: np.ndarray
    Psi: np.ndarray


@dataclass(frozen=True)
class StabilityReport:
    eigenvalues: np.ndarray
    spectral_radius: float
    classification: StabilityClass
    critical_eigenvalue: complex


@dataclass(frozen=True)
class CurveSample:
    """One sweep sample; ``value is None`` exactly when ``singular``."""

    parameter: float
    value: complex | None
    singular: bool = False


@dataclass(frozen=True)
class BoundaryCurve:
    parameter: str
    samples: tuple[CurveSample, ...]


@dataclass(frozen=True)
class _Linearization:
    # Shared pieces of the critical condition at one orbit point, or at a
    # stack of them along a leading axis.
    phi0: np.ndarray
    gamma: np.ndarray
    cm1: np.ndarray  # row C e^{A1 d}
    c_xdot_minus: float | np.ndarray
    jump: np.ndarray  # xdot(d-) - xdot(d+)


def _linearization(
    model: SwitchedLinearModel,
    m1: np.ndarray,
    m2: np.ndarray,
    xdot_minus: np.ndarray,
    xdot_plus: np.ndarray,
) -> _Linearization:
    # From the stage transition matrices and the orbit derivatives at the
    # switch; for one orbit point, or for stacks of them.
    jump = xdot_minus - xdot_plus
    return _Linearization(
        phi0=m2 @ m1,
        gamma=(m2 @ jump[..., None])[..., 0],
        cm1=model.C @ m1,
        c_xdot_minus=xdot_minus @ model.C,
        jump=jump,
    )


def _orbit_linearization(model: SwitchedLinearModel, ss: SteadyState) -> _Linearization:
    if ss.m1 is None:
        raise DomainError(
            "the orbit carries no linearization: build it with "
            "solve_periodic_orbit or orbit_at"
        )
    return _linearization(model, ss.m1, ss.m2, ss.xdot_minus, ss.xdot_plus)


def _loop_denominator(lin: _Linearization, hdot: float) -> float:
    # C xdot(d-) - hdot; zero when the switching condition grazes the ramp.
    denom = lin.c_xdot_minus - hdot
    scale = abs(lin.c_xdot_minus) + abs(hdot)
    if abs(denom) <= GRAZING_RTOL * scale or denom == 0.0:
        raise GrazingError(
            "switching condition tangent to the ramp: "
            f"C xdot(d-) = {lin.c_xdot_minus:.6g}, hdot = {hdot:.6g}"
        )
    return denom


def _resolvent_term(lin: _Linearization, lam) -> tuple[np.ndarray, np.ndarray]:
    # C e^{A1 d} (lam I - Phi0)^{-1} Gamma in one stacked solve: at every
    # lam of an array for one orbit point, or at one lam for a stacked
    # linearization.  The solve is real when lam is.  Returns the values
    # and the ok mask, false where lam is an eigenvalue of Phi0.
    n = lin.phi0.shape[-1]
    systems = (np.asarray(lam)[..., None, None] * np.eye(n) - lin.phi0).reshape(-1, n, n)
    rg, ok = numerics.solve_linear_stack(
        systems, np.broadcast_to(lin.gamma, systems.shape[:-1])
    )
    return np.sum(lin.cm1 * rg, axis=-1), ok


def _point_value(model: SwitchedLinearModel, ss: SteadyState, lam):
    # Left side of the critical condition at the orbit point and one lam.
    lin = _orbit_linearization(model, ss)
    term, ok = _resolvent_term(lin, lam)
    if not ok[0]:
        raise ResolventPoleError(
            f"lambda = {lam:.6g} is an eigenvalue of the open-loop cycle map"
        )
    return lin.c_xdot_minus + term[0]


def _curve(parameter: str, params, values, ok) -> BoundaryCurve:
    return BoundaryCurve(parameter=parameter, samples=tuple(
        CurveSample(float(x), complex(v)) if good
        else CurveSample(float(x), None, singular=True)
        for x, v, good in zip(params, values, ok)
    ))


def jacobian(
    model: SwitchedLinearModel,
    ramp: RampSignal,
    u: InputVector,
    ss: SteadyState,
) -> JacobianDecomposition:
    """Closed-form one-cycle Jacobian at the periodic orbit.

    Raises :class:`GrazingError` when the switching condition is tangent
    to the ramp (zero linearization denominator).
    """
    lin = _orbit_linearization(model, ss)
    denom = _loop_denominator(lin, ramp.slope)
    correction = np.eye(model.n) - np.outer(lin.jump, model.C) / denom
    phi = ss.m2 @ correction @ ss.m1
    psi = lin.cm1 / denom
    return JacobianDecomposition(Phi=phi, Phi0=lin.phi0, Gamma=lin.gamma, Psi=psi)


def classify(jd: JacobianDecomposition, class_tol: float = 1e-4) -> StabilityReport:
    """Eigenvalues of ``Phi`` and the bifurcation they sit on, if any.

    The critical eigenvalue is the one of largest modulus (ties broken by
    real then imaginary part, so reports are deterministic).
    """
    if class_tol <= 0.0:
        raise DomainError(f"class_tol must be positive, got {class_tol}")
    eigs = numerics.eigenvalues(jd.Phi)
    crit = max(eigs, key=lambda z: (abs(z), z.real, z.imag))
    rho = abs(crit)
    if rho < 1.0 - class_tol:
        cls = StabilityClass.STABLE
    elif abs(crit + 1.0) <= class_tol:
        cls = StabilityClass.PDB
    elif abs(crit - 1.0) <= class_tol:
        cls = StabilityClass.SNB
    elif abs(rho - 1.0) <= class_tol and crit.imag != 0.0:
        cls = StabilityClass.NSB
    else:
        cls = StabilityClass.UNSTABLE_MIXED
    return StabilityReport(
        eigenvalues=eigs,
        spectral_radius=rho,
        classification=cls,
        critical_eigenvalue=complex(crit),
    )


def general_critical_value(
    model: SwitchedLinearModel,
    ramp: RampSignal,
    u: InputVector,
    ss: SteadyState,
    lam: complex,
) -> complex:
    """Left side of the general critical condition at ``lambda``.

    Equals the ramp slope exactly when ``lambda`` is an eigenvalue of the
    closed-loop Jacobian.  ``lambda`` must not be an eigenvalue of the
    open-loop map ``Phi0`` (raises :class:`ResolventPoleError`).
    """
    return complex(_point_value(model, ss, lam))


def pdb_residual(
    model: SwitchedLinearModel, ramp: RampSignal, u: InputVector, ss: SteadyState
) -> float:
    """Period-doubling boundary residual (zero on the boundary)."""
    return float(_point_value(model, ss, -1.0) - ramp.slope)


def snb_residual(
    model: SwitchedLinearModel, ramp: RampSignal, u: InputVector, ss: SteadyState
) -> float:
    """Saddle-node boundary residual (zero on the boundary)."""
    return float(_point_value(model, ss, 1.0) - ramp.slope)


def nsb_residual(
    model: SwitchedLinearModel,
    ramp: RampSignal,
    u: InputVector,
    ss: SteadyState,
    theta: float,
) -> complex:
    """Neimark-Sacker boundary residual at angle ``theta``.

    Both the real and imaginary part vanish on the boundary.  ``theta``
    must stay away from 0 and pi, where the saddle-node and
    period-doubling residuals apply instead.
    """
    wrapped = math.remainder(theta, 2.0 * math.pi)
    if abs(wrapped) <= 1e-9 or abs(abs(wrapped) - math.pi) <= 1e-9:
        raise DomainError(
            f"theta = {theta:.6g} coincides with the lambda = +1 or -1 case"
        )
    lam = cmath.exp(1j * wrapped)
    return complex(_point_value(model, ss, lam)) - ramp.slope


def s_plot(
    model: SwitchedLinearModel,
    ramp: RampSignal,
    u: InputVector,
    lam: complex,
    duty_grid,
) -> BoundaryCurve:
    """Critical-condition value swept over imposed duty cycles.

    At every grid duty the orbit boundary-value problem is re-solved with
    the switching instant imposed (the ramp-crossing condition is *not*
    enforced), so the curve shows where the boundary condition would be
    met.  The whole grid is evaluated in one pass over stacked stage
    exponentials.  Degenerate or pole points are marked singular, never
    dropped.
    """
    duties = np.asarray(duty_grid, dtype=float).reshape(-1)
    outside = ~((duties > 0.0) & (duties < 1.0))
    if outside.any():
        raise DomainError(
            f"duty grid values must lie in (0, 1), got {duties[outside][0]}"
        )
    n = model.n
    e1, e2 = stage_exponentials(
        model, ramp, u, switch_time_of_duty(model.edge, duties, ramp.T)
    )
    _, x0_switch, orbit_ok = x0_of_d_stack(e1, e2)
    # Degenerate duties have NaN states; any finite stand-in keeps the
    # stacked resolvent solve well defined, and those samples stay singular.
    lin = _linearization(
        model, e1[:, :n, :n], e2[:, :n, :n],
        *switch_derivatives(model, u, np.where(orbit_ok[:, None], x0_switch, 0.0)),
    )
    term, pole_ok = _resolvent_term(lin, lam)
    return _curve("duty", duties, lin.c_xdot_minus + term, orbit_ok & pole_ok)


def f_plot(
    model: SwitchedLinearModel,
    ramp: RampSignal,
    u: InputVector,
    ss: SteadyState,
    thetas,
) -> BoundaryCurve:
    """Critical-condition value around the unit circle at the operating point.

    ``F(theta)`` evaluated on the supplied angles in ``(-pi, pi]``; the
    endpoints 0 and pi reproduce the saddle-node and period-doubling
    left sides.
    """
    thetas = np.asarray(thetas, dtype=float)
    lin = _orbit_linearization(model, ss)
    term, ok = _resolvent_term(lin, np.exp(1j * thetas))
    return _curve("theta", thetas, lin.c_xdot_minus + term, ok)


def nyquist(
    model: SwitchedLinearModel,
    ramp: RampSignal,
    u: InputVector,
    ss: SteadyState,
    omegas,
) -> BoundaryCurve:
    """Discrete-time Nyquist curve of the switching feedback loop.

    The loop gain is ``N(z) = Psi (z I - Phi0)^{-1} Gamma`` with
    ``z = e^{j omega T}``; the loop closes with unity negative feedback,
    so crossings of -1 reproduce the critical conditions.  It equals
    ``(F - C xdot(d-)) / (C xdot(d-) - hdot)`` and raises
    :class:`GrazingError` where :func:`jacobian` does.
    """
    omegas = np.asarray(omegas, dtype=float)
    lin = _orbit_linearization(model, ss)
    denom = _loop_denominator(lin, ramp.slope)
    term, ok = _resolvent_term(lin, np.exp(1j * omegas * ramp.T))
    return _curve("omega", omegas, term / denom, ok)
