"""Exact sampled-data Jacobian, eigenvalue classification, and boundary curves.

The one-cycle linearization of the stroboscopic map factors into an
open-loop part ``Phi0`` (the two stage exponentials), a rank-one switching
correction built from the vector-field jump ``Gamma`` and the sensitivity
row ``Psi``, with ``Phi = Phi0 - Gamma Psi``; :func:`jacobian` computes
``Phi`` by exactly that formula.  The same pieces yield the general
critical condition: ``lambda`` is an eigenvalue of ``Phi`` exactly when

    C xdot(d-) + C e^{A1 d} (lambda I - Phi0)^{-1} Gamma  ==  hdot

which specializes to the period-doubling (lambda = -1), saddle-node
(lambda = +1) and Neimark-Sacker (lambda = e^{j theta}) boundary residuals,
and to the swept S-plot / F-plot / discrete-time Nyquist curves.  Every
quantity in it but ``hdot`` is a :class:`SteadyState` field of the orbit
point (``phi0``, ``gamma``, ``cm1``, ``c_xdot_minus``), read, never rebuilt.
One lambda is :func:`steadystate.critical_value`, the orbit solver's own
slope, at one LAPACK solve; a sweep takes one stacked solve.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .errors import DimensionError, DomainError, GrazingError
from .model import InputVector, RampSignal, SwitchedLinearModel, switch_time_of_duty
from .steadystate import SteadyState, critical_value, orbit_grid
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

    ``Gamma`` and ``Psi`` are stored as 1-D arrays, and ``Phi`` is
    computed as ``Phi0 - outer(Gamma, Psi)``.
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


def _linearized(ss: SteadyState) -> SteadyState:
    # An orbit built from its states alone leaves the linearization None.
    if ss.phi0 is None:
        raise DomainError(
            "the orbit carries no linearization: build it with "
            "solve_periodic_orbit or orbit_at"
        )
    return ss


def _parameter(name: str, value, ndim: int = 0, real: bool = True):
    # lambda (numeric), theta (real; both ndim 0) and real sweep samples
    # (1-D) as arrays, checked before they are exponentiated or multiplied,
    # so a wrong shape, a wrong number type (bool included) or inf/NaN
    # raises without a RuntimeWarning or an untyped TypeError first.
    arr = np.asarray(value)
    if arr.ndim != ndim:
        shape = "a 1-D array" if ndim else "a scalar"
        raise DimensionError(f"{name} must be {shape}, got shape {arr.shape}")
    if arr.dtype.kind not in ("iuf" if real else "iufc"):
        kind = "real" if real else "a number"
        raise DomainError(f"{name} must be {kind}, got {value!r}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite, got {value}")
    return arr.astype(float, copy=False) if real else arr


def _loop_denominator(ss: SteadyState, hdot: float) -> float:
    # C xdot(d-) - hdot; zero when the switching condition grazes the ramp.
    denom = _linearized(ss).c_xdot_minus - hdot
    scale = abs(ss.c_xdot_minus) + abs(hdot)
    if abs(denom) <= GRAZING_RTOL * scale or denom == 0.0:
        raise GrazingError(
            "switching condition tangent to the ramp: "
            f"C xdot(d-) = {ss.c_xdot_minus:.6g}, hdot = {hdot:.6g}"
        )
    return denom


def _resolvent_term(ss: SteadyState, lam) -> tuple[np.ndarray, np.ndarray]:
    # The sweeps' C e^{A1 d} (lam I - Phi0)^{-1} Gamma in one stacked solve:
    # at every lam of an array for one orbit point, or at one lam (a 0-d
    # array) for the stacked points of orbit_grid.  The solve is real when
    # lam is.  Returns the values and the ok mask, false where lam is an
    # eigenvalue of Phi0.
    n = _linearized(ss).phi0.shape[-1]
    systems = (lam[..., None, None] * np.eye(n) - ss.phi0).reshape(-1, n, n)
    rg, ok = numerics.solve_linear_stack(
        systems, np.broadcast_to(ss.gamma, systems.shape[:-1])
    )
    return np.sum(ss.cm1 * rg, axis=-1), ok


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
    psi = ss.cm1 / _loop_denominator(ss, ramp.slope)
    return JacobianDecomposition(
        Phi=ss.phi0 - np.outer(ss.gamma, psi), Phi0=ss.phi0, Gamma=ss.gamma, Psi=psi
    )


def classify(jd: JacobianDecomposition, class_tol: float = 1e-4) -> StabilityReport:
    """Eigenvalues of ``Phi`` and the bifurcation they sit on, if any.

    The critical eigenvalue is the one of largest modulus (ties broken by
    real then imaginary part, so reports are deterministic).
    """
    numerics.check_positive("class_tol", class_tol)
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
    return complex(critical_value(_linearized(ss), _parameter("lambda", lam, real=False)))


def pdb_residual(
    model: SwitchedLinearModel, ramp: RampSignal, u: InputVector, ss: SteadyState
) -> float:
    """Period-doubling boundary residual (zero on the boundary)."""
    return float(critical_value(_linearized(ss), -1.0) - ramp.slope)


def snb_residual(
    model: SwitchedLinearModel, ramp: RampSignal, u: InputVector, ss: SteadyState
) -> float:
    """Saddle-node boundary residual (zero on the boundary)."""
    return float(critical_value(_linearized(ss), 1.0) - ramp.slope)


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
    wrapped = math.remainder(_parameter("theta", theta), 2.0 * math.pi)
    if abs(wrapped) <= 1e-9 or abs(abs(wrapped) - math.pi) <= 1e-9:
        raise DomainError(
            f"theta = {theta:.6g} coincides with the lambda = +1 or -1 case"
        )
    lam = cmath.exp(1j * wrapped)
    return complex(critical_value(_linearized(ss), lam)) - ramp.slope


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
    met.  The whole grid is evaluated in one pass from :func:`orbit_grid`,
    at one step exponential per stage.  Degenerate or pole points are
    marked singular, never dropped.
    """
    lam = _parameter("lambda", lam, real=False)
    duties = _parameter("duty grid", duty_grid, 1)
    outside = ~((duties > 0.0) & (duties < 1.0))
    if outside.any():
        raise DomainError(
            f"duty grid values must lie in (0, 1), got {duties[outside][0]}"
        )
    d = switch_time_of_duty(model.edge, duties, ramp.T)
    points, orbit_ok = orbit_grid(model, ramp, u, d)
    # Degenerate duties have NaN states; a finite stand-in Gamma keeps the
    # stacked resolvent solve well defined, and those samples stay singular.
    gamma = np.where(orbit_ok[:, None], points.gamma, 0.0)
    term, pole_ok = _resolvent_term(replace(points, gamma=gamma), lam)
    return _curve("duty", duties, points.c_xdot_minus + term, orbit_ok & pole_ok)


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
    thetas = _parameter("theta", thetas, 1)
    term, ok = _resolvent_term(ss, np.exp(1j * thetas))
    return _curve("theta", thetas, ss.c_xdot_minus + term, ok)


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
    omegas = _parameter("omega", omegas, 1)
    denom = _loop_denominator(ss, ramp.slope)
    term, ok = _resolvent_term(ss, np.exp(1j * omegas * ramp.T))
    return _curve("omega", omegas, term / denom, ok)
