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
from .errors import (
    DomainError,
    GrazingError,
    ResolventPoleError,
    SingularMatrixError,
)
from .model import (
    InputVector,
    ModulationEdge,
    RampSignal,
    SwitchedLinearModel,
    ramp_slope,
)
# x0_of_d stays bound here: perfbench's tracer wraps it on this module.
from .steadystate import SteadyState, stage_exponentials, x0_of_d, x0_of_d_stack  # noqa: F401

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
    # Shared pieces of the critical condition at one orbit point.
    phi0: np.ndarray
    gamma: np.ndarray
    cm1: np.ndarray  # row C e^{A1 d}
    c_xdot_minus: float
    m1: np.ndarray
    m2: np.ndarray
    jump: np.ndarray  # xdot(d-) - xdot(d+)


def _linearization(
    model: SwitchedLinearModel,
    u: InputVector,
    m1: np.ndarray,
    m2: np.ndarray,
    x0_switch: np.ndarray,
) -> _Linearization:
    # From the stage transition matrices and the switch state; for one
    # orbit point, or for stacks of them along a leading axis.
    uv = u.as_array()
    xdot_minus = (model.A1 @ x0_switch[..., None])[..., 0] + model.B1 @ uv
    xdot_plus = (model.A2 @ x0_switch[..., None])[..., 0] + model.B2 @ uv
    jump = xdot_minus - xdot_plus
    return _Linearization(
        phi0=m2 @ m1,
        gamma=(m2 @ jump[..., None])[..., 0],
        cm1=model.C @ m1,
        c_xdot_minus=xdot_minus @ model.C,
        m1=m1,
        m2=m2,
        jump=jump,
    )


def _linearize_at(
    model: SwitchedLinearModel,
    ramp: RampSignal,
    u: InputVector,
    d: float,
    x0_switch: np.ndarray,
) -> _Linearization:
    m1 = numerics.mat_exp(model.A1, d)
    m2 = numerics.mat_exp(model.A2, ramp.T - d)
    return _linearization(model, u, m1, m2, x0_switch)


def _linearize(
    model: SwitchedLinearModel, ramp: RampSignal, u: InputVector, ss: SteadyState
) -> _Linearization:
    return _linearize_at(model, ramp, u, ss.d, ss.x0_switch)


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
    lin = _linearize(model, ramp, u, ss)
    hdot = ramp_slope(ramp)
    denom = lin.c_xdot_minus - hdot
    scale = abs(lin.c_xdot_minus) + abs(hdot)
    if abs(denom) <= GRAZING_RTOL * scale or denom == 0.0:
        raise GrazingError(
            "switching condition tangent to the ramp: "
            f"C xdot(d-) = {lin.c_xdot_minus:.6g}, hdot = {hdot:.6g}"
        )
    correction = np.eye(model.n) - np.outer(lin.jump, model.C) / denom
    phi = lin.m2 @ correction @ lin.m1
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


def _critical_value(lin: _Linearization, lam: complex) -> complex:
    n = lin.phi0.shape[0]
    try:
        resolvent_gamma = numerics.solve_complex(
            lam * np.eye(n) - lin.phi0, lin.gamma
        )
    except SingularMatrixError as exc:
        raise ResolventPoleError(
            f"lambda = {lam:.6g} is an eigenvalue of the open-loop cycle map"
        ) from exc
    return complex(lin.c_xdot_minus + lin.cm1 @ resolvent_gamma)


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
    return _critical_value(_linearize(model, ramp, u, ss), lam)


def _real_residual(lin: _Linearization, sign: float, hdot: float) -> float:
    # sign = +1 evaluates at lambda = +1, sign = -1 at lambda = -1,
    # via a real solve of (sign*I - Phi0).
    n = lin.phi0.shape[0]
    try:
        resolvent_gamma = numerics.solve_linear(
            sign * np.eye(n) - lin.phi0, lin.gamma
        )
    except SingularMatrixError as exc:
        raise ResolventPoleError(
            f"{sign:+.0f} is an eigenvalue of the open-loop cycle map"
        ) from exc
    return float(lin.c_xdot_minus + lin.cm1 @ resolvent_gamma - hdot)


def pdb_residual(
    model: SwitchedLinearModel, ramp: RampSignal, u: InputVector, ss: SteadyState
) -> float:
    """Period-doubling boundary residual (zero on the boundary)."""
    return _real_residual(_linearize(model, ramp, u, ss), -1.0, ramp_slope(ramp))


def snb_residual(
    model: SwitchedLinearModel, ramp: RampSignal, u: InputVector, ss: SteadyState
) -> float:
    """Saddle-node boundary residual (zero on the boundary)."""
    return _real_residual(_linearize(model, ramp, u, ss), +1.0, ramp_slope(ramp))


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
    lin = _linearize(model, ramp, u, ss)
    return _critical_value(lin, lam) - ramp_slope(ramp)


def _edge_switch_time(edge: ModulationEdge, duty: float, T: float) -> float:
    return duty * T if edge is ModulationEdge.TEM else (1.0 - duty) * T


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
        model, ramp, u, _edge_switch_time(model.edge, duties, ramp.T)
    )
    _, x0_switch, orbit_ok = x0_of_d_stack(e1, e2)
    # Degenerate duties have NaN states; any finite stand-in keeps the
    # stacked resolvent solve well defined, and those samples stay singular.
    lin = _linearization(
        model, u, e1[:, :n, :n], e2[:, :n, :n],
        np.where(orbit_ok[:, None], x0_switch, 0.0),
    )
    resolvent_gamma, pole_ok = numerics.solve_linear_stack(
        lam * np.eye(n) - lin.phi0, lin.gamma.astype(complex)
    )
    values = lin.c_xdot_minus + np.sum(lin.cm1 * resolvent_gamma, axis=1)
    samples = tuple(
        CurveSample(float(duty), complex(value))
        if ok else CurveSample(float(duty), None, singular=True)
        for duty, value, ok in zip(duties, values, orbit_ok & pole_ok)
    )
    return BoundaryCurve(parameter="duty", samples=samples)


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
    lin = _linearize(model, ramp, u, ss)
    samples = []
    for theta in np.asarray(thetas, dtype=float):
        try:
            value = _critical_value(lin, cmath.exp(1j * theta))
            samples.append(CurveSample(float(theta), value))
        except ResolventPoleError:
            samples.append(CurveSample(float(theta), None, singular=True))
    return BoundaryCurve(parameter="theta", samples=tuple(samples))


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
    so crossings of -1 reproduce the critical conditions.
    """
    jd = jacobian(model, ramp, u, ss)
    n = model.n
    samples = []
    for omega in np.asarray(omegas, dtype=float):
        z = cmath.exp(1j * omega * ramp.T)
        try:
            rg = numerics.solve_complex(z * np.eye(n) - jd.Phi0, jd.Gamma)
            samples.append(CurveSample(float(omega), complex(jd.Psi @ rg)))
        except SingularMatrixError:
            samples.append(CurveSample(float(omega), None, singular=True))
    return BoundaryCurve(parameter="omega", samples=tuple(samples))
