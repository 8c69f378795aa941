"""Periodic steady-state solver for the switched-linear converter.

The T-periodic orbit is pinned down by three conditions: propagating the
state through stage S1 for ``d`` seconds, through stage S2 for ``T - d``,
returning to the starting state, and the compensator output meeting the
ramp at the switching instant.  For a candidate ``d`` the first two are a
linear boundary-value problem solved in closed form with matrix
exponentials; the third is a scalar root-finding problem in ``d``, solved
by Newton steps on the exact slope of its residual, ``F(+1) - hdot`` of
:func:`critical_value`.  The roots are bracketed by a scan on a uniform
grid of ``d``, whose stage exponentials are the powers of one step
exponential per stage, both stages powered in one doubling pass
(``numerics.mat_powers``); :func:`orbit_grid`, at arbitrary switching
times, multiplies such powers by a Taylor sum over the rest of each time.

Every orbit point of one ``(model, ramp, u)`` comes from one private
evaluator that holds what the points share: the augmented stage
generators, ``B_i u``, ``D u`` and ``I``.  :func:`orbit_at` builds one for
its point; :func:`solve_periodic_orbit` builds one for its scan and one
for all of its Newton steps.  A single point takes two stage
exponentials and one guarded LU factor of ``I - Phi0``
(``numerics.factor_linear``); the solver's Newton slope solves
``(I - Phi0)^{-1} Gamma`` from that same factor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .errors import (
    DegenerateOrbitError,
    DomainError,
    NoSwitchingError,
    ResolventPoleError,
    SingularMatrixError,
)
from .model import (
    InputVector,
    RampSignal,
    SwitchedLinearModel,
    duty_of_switch_time,
    ramp_value,
    stage_generators,
)


@dataclass(frozen=True)
class SteadyState:
    """Periodic orbit at a switching instant, with its linearization data.

    ``d`` is the switching instant within the cycle; ``duty`` is the ON
    fraction (``d/T`` for TEM, ``1 - d/T`` for LEM).  ``candidates`` is
    how many switching-condition sign changes the solver saw; values
    above 1 mean the first crossing was chosen by the latch convention.
    The last four fields, the linearization, are the blocks of the (x0, d)
    orbit Jacobian ``[[phi0 - I, gamma], [cm1, c_xdot_minus - hdot]]``:
    ``phi0 = e^{A2 (T-d)} e^{A1 d}``, ``gamma = e^{A2 (T-d)} (xdot(d-) -
    xdot(d+))``, the row ``cm1 = C e^{A1 d}`` and ``c_xdot_minus = C
    xdot(d-)``.  Every :mod:`pwmstab.stability` consumer reads them; an
    orbit given only by its states leaves them ``None``.  The points of
    :func:`orbit_grid` share one instance whose fields carry a leading
    grid axis (``y_switch`` and ``c_xdot_minus`` are then arrays);
    ``candidates`` is unused there.
    """

    d: float
    duty: float
    x0_start: np.ndarray
    x0_switch: np.ndarray
    y_switch: float
    candidates: int = 1
    phi0: np.ndarray | None = None
    gamma: np.ndarray | None = None
    cm1: np.ndarray | None = None
    c_xdot_minus: float | np.ndarray | None = None


def critical_value(ss: SteadyState, lam, factor=None):
    """``C xdot(d-) + C e^{A1 d} (lam I - Phi0)^{-1} Gamma`` at one orbit point.

    The critical condition's left side ``F(lam)`` at one real or complex
    ``lam``, by one :func:`numerics.solve_linear`.  Raises
    :class:`ResolventPoleError` where ``lam I - Phi0`` is singular.  A
    caller that holds the :func:`numerics.factor_linear` factor of
    ``lam I - Phi0`` passes it as ``factor``, and only its solve step
    runs: the orbit solver's Newton slope reuses the factor of ``I - Phi0``
    that solved ``x0``.
    """
    if factor is not None:
        rg = numerics.solve_factored(factor, ss.gamma)
    else:
        try:
            rg = numerics.solve_linear(lam * np.eye(len(ss.phi0)) - ss.phi0, ss.gamma)
        except SingularMatrixError as exc:
            raise ResolventPoleError(
                f"lambda = {lam:.6g} is an eigenvalue of the open-loop cycle map"
            ) from exc
    return ss.c_xdot_minus + ss.cm1 @ rg


def _cycle_system(e1: np.ndarray, e2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Periodicity x0 = e^{A2 (T-d)} (e^{A1 d} x0 + J1 B1 u) + J2 B2 u as
    # x0 = phi0 x0 + rhs, from the stage exponentials of the augmented
    # generators (one pair, or stacks of them along a leading axis); the
    # callers solve (I - phi0) x0 = rhs.  An overflowed exponential raises
    # here, for the whole stack, with no RuntimeWarning.
    n = e1.shape[-1] - 1
    m2 = e2[..., :n, :n]
    with np.errstate(over="ignore", invalid="ignore"):
        phi0 = m2 @ e1[..., :n, :n]
        rhs = (m2 @ e1[..., :n, n:])[..., 0] + e2[..., :n, n]
    if not (np.isfinite(phi0).all() and np.isfinite(rhs).all()):
        raise DomainError("a stage exponential overflows: the cycle map is not finite")
    return phi0, rhs


class _OrbitEvaluator:
    # Orbit points of one (model, ramp, u): the augmented stage generators,
    # B_i u, D u and I are built once, here, and shared by every point
    # (orbit_at, orbit_grid, the solver's scan and each of its Newton steps).

    def __init__(self, model: SwitchedLinearModel, ramp: RampSignal, u: InputVector):
        n = model.n
        self.model, self.ramp = model, ramp
        self.g1, self.g2 = stage_generators(model, u)
        # B_i u is the generators' last column.
        self.b1u, self.b2u = self.g1[:n, n], self.g2[:n, n]
        self.du = model.D @ u.as_array()
        self.eye = np.eye(n)

    def point(self, d: float):
        # orbit_at's point, and the numerics.factor_linear factor of
        # I - Phi0 that solved x0 (the resolvent's at lambda = 1).
        T = self.ramp.T
        if not 0.0 <= d <= T:
            raise DomainError(f"d must lie in [0, {T}], got {d}")
        e1 = numerics.mat_exp(self.g1, d)
        e2 = numerics.mat_exp(self.g2, T - d)
        phi0, rhs = _cycle_system(e1, e2)
        try:
            factor = numerics.factor_linear(self.eye - phi0)
        except SingularMatrixError as exc:
            raise DegenerateOrbitError(
                f"open-loop cycle map has a multiplier at +1 for d={d:.6g}"
            ) from exc
        x0_start = numerics.solve_factored(factor, rhs)
        return self.build(d, e1, e2, phi0, x0_start), factor

    def grid(self, d, e1, e2) -> tuple[SteadyState, np.ndarray]:
        # The points of a grid of switching times from stacks of stage
        # exponentials, and the mask of the non-degenerate ones.
        phi0, rhs = _cycle_system(e1, e2)
        x0_start, ok = numerics.solve_linear_stack(self.eye - phi0, rhs)
        return self.build(d, e1, e2, phi0, x0_start), ok

    def build(self, d, e1, e2, phi0, x0_start) -> SteadyState:
        # Orbit point(s) at switching time(s) d from the augmented stage
        # exponentials, the cycle map and start state(s); grid points lie
        # along a leading axis.
        model = self.model
        n = model.n
        m1 = e1[..., :n, :n]
        x0_switch = (m1 @ x0_start[..., None])[..., 0] + e1[..., :n, n]
        y_switch = x0_switch @ model.C + self.du
        xdot_minus = x0_switch @ model.A1.T + self.b1u
        jump = xdot_minus - (x0_switch @ model.A2.T + self.b2u)
        return SteadyState(
            d=d,
            duty=duty_of_switch_time(model.edge, d, self.ramp.T),
            x0_start=x0_start,
            x0_switch=x0_switch,
            y_switch=float(y_switch) if x0_switch.ndim == 1 else y_switch,
            phi0=phi0,
            gamma=(e2[..., :n, :n] @ jump[..., None])[..., 0],
            cm1=model.C @ m1,
            c_xdot_minus=xdot_minus @ model.C,
        )


def x0_of_d(
    model: SwitchedLinearModel,
    ramp: RampSignal,
    u: InputVector,
    d: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Boundary states ``(x0_start, x0_switch)`` of :func:`orbit_at`."""
    # A named layer for perfbench's span tracer; the package never calls it.
    ss = orbit_at(model, ramp, u, d)
    return ss.x0_start, ss.x0_switch


def orbit_at(
    model: SwitchedLinearModel,
    ramp: RampSignal,
    u: InputVector,
    d: float,
) -> SteadyState:
    """Orbit point at an imposed switching time, linearization included.

    Solves ``(I - e^{A2 (T-d)} e^{A1 d}) x0 = e^{A2 (T-d)} J1 B1 u + J2 B2 u``
    where ``J_i`` are the stage exponential integrals, then maps forward to
    the switch state.  Each stage takes one exponential of its augmented
    generator ``[[A_i, B_i u], [0, 0]]``.  The ramp-crossing condition is
    not enforced (boundary sweeps impose ``d``).  Raises
    :class:`DegenerateOrbitError` when the open-loop cycle map has a
    multiplier at +1 (no isolated orbit).
    """
    return _OrbitEvaluator(model, ramp, u).point(d)[0]


def orbit_grid(
    model: SwitchedLinearModel, ramp: RampSignal, u: InputVector, d
) -> tuple[SteadyState, np.ndarray]:
    """:func:`orbit_at` at every switching time of the 1-D array ``d``.

    Each stage takes one step exponential for the whole grid; its powers
    and Taylor terms give every point's stage exponential
    (:func:`numerics.grid_exponentials`).  Returns the orbit points, their
    fields stacked along a leading axis, and an ``ok`` mask; where ``ok``
    is false the open-loop cycle map has a multiplier at +1 and the states
    are NaN.
    """
    d = np.asarray(d, dtype=float)
    ev = _OrbitEvaluator(model, ramp, u)
    e1 = numerics.grid_exponentials(ev.g1, ramp.T, d)
    e2 = numerics.grid_exponentials(ev.g2, ramp.T, ramp.T - d)
    return ev.grid(d, e1, e2)


def _power_scan(
    model: SwitchedLinearModel, ramp: RampSignal, u: InputVector, grid_points: int
) -> tuple[SteadyState, np.ndarray]:
    # orbit_grid on the interior grid d_j = j h, j = 1..K, h = T / (K + 1),
    # from two step exponentials, powered in one doubling pass: e^{A1 d_j}
    # is the j-th power of e^{G1 h} and e^{A2 (T - d_j)} the (K + 1 - j)-th
    # of e^{G2 h}.
    d = np.linspace(0.0, ramp.T, grid_points + 2)[1:-1]
    h = ramp.T / (grid_points + 1)
    ev = _OrbitEvaluator(model, ramp, u)
    steps = np.stack((numerics.mat_exp(ev.g1, h), numerics.mat_exp(ev.g2, h)))
    powers = numerics.mat_powers(steps, grid_points)
    return ev.grid(d, powers[1:, 0], powers[:0:-1, 1])


def solve_periodic_orbit(
    model: SwitchedLinearModel,
    ramp: RampSignal,
    u: InputVector,
    grid_points: int = 256,
    d_tol: float | None = None,
) -> SteadyState:
    """Find the periodic orbit: scan the switching residual, refine roots.

    The residual is sampled on the uniform interior grid ``d_j = j h``,
    ``j = 1..grid_points``, ``h = T / (grid_points + 1)``.  The scan takes
    one step exponential ``e^{G_i h}`` per stage and reads
    ``e^{A1 d_j}`` and ``e^{A2 (T - d_j)}`` off their powers
    (:func:`numerics.mat_powers`); it then solves every point as
    :func:`orbit_grid` does.  Grid points where the residual is exactly
    zero and sign-change brackets are the candidates; they are walked in
    cycle order and the first one that refines to a non-degenerate orbit
    wins (first crossing in the cycle, matching comparator latch
    behavior).  ``candidates`` on the result reports how many candidates
    the scan saw.  A bracket is refined by :func:`numerics.newton_root`
    from the scan's values at its ends, with the exact slope
    ``F(+1) - hdot`` at the orbit point each step builds; the result is
    the point of the last step, whose Newton step, or bracket, is at most
    ``d_tol`` (default ``1e-12 T``) long.  Each step is one point of
    :func:`orbit_at` from an evaluator built once per solve: two stage
    exponentials and one LU factor of ``I - Phi0``, which solves ``x0``
    and, in :func:`critical_value`, the slope.  A refined point whose
    residual is larger in magnitude than the scan's values at both bracket
    ends is a pole of the residual, where an open-loop multiplier crosses
    +1 inside the bracket; it is skipped like a degenerate candidate.

    Raises
    ------
    DomainError
        ``d_tol`` is not positive and finite.
    NoSwitchingError
        No sign change anywhere: the converter never switches in steady
        state (duty saturated at 0 or 1).
    DegenerateOrbitError
        Every scan point, or every candidate, sat at a degenerate orbit
        or a pole of the residual (open-loop multiplier at +1).
    """
    T = ramp.T
    numerics.check_count("grid_points", grid_points, 2)
    if d_tol is None:
        d_tol = 1e-12 * T
    numerics.check_positive("d_tol", d_tol)

    # Degenerate grid points come back NaN and take part in no bracket.
    scan, ok = _power_scan(model, ramp, u, grid_points)
    grid = scan.d
    if not ok.any():
        raise DegenerateOrbitError(
            "open-loop cycle map has a multiplier at +1 at every scan point "
            "(typically an integrating state): the cycle equations are singular "
            "for every d"
        )
    values = scan.y_switch - ramp_value(ramp, grid)

    # Candidates (lo, hi): sign change to the next point, or a zero not before NaN.
    sign = np.sign(values)
    step = np.append(sign[:-1] * sign[1:] < 0.0, False)
    zero = (values == 0.0) & np.append(~np.isnan(values[1:]), True)
    los = np.flatnonzero(step | zero)
    his = los + step[los]
    if not los.size:
        raise NoSwitchingError(
            "switching condition has no solution in (0, T): "
            "the converter never switches in steady state"
        )

    # Every orbit point the refinement builds is kept with its residual;
    # newton_root returns one of the points it evaluated, so the root's
    # point is among them.
    points = {}
    evaluator = _OrbitEvaluator(model, ramp, u)

    def residual(t):
        ss, factor = evaluator.point(t)
        r = ss.y_switch - float(ramp_value(ramp, t))
        points[t] = ss, r
        # d/dd of r is F(+1) - hdot, from the factor of I - Phi0 that
        # solved x0.
        return r, float(critical_value(ss, 1.0, factor)) - ramp.slope

    poles = 0
    for lo, hi in zip(los, his):
        if lo == hi:
            return replace(orbit_at(model, ramp, u, grid[lo]), candidates=len(los))
        try:
            d = numerics.newton_root(
                residual, grid[lo], grid[hi], values[lo], values[hi], d_tol
            )
        except DegenerateOrbitError:
            continue
        ss, r = points[d]
        if abs(r) > max(abs(values[lo]), abs(values[hi])):
            poles += 1
            continue
        return replace(ss, candidates=len(los))
    raise DegenerateOrbitError(
        f"all {len(los)} switching candidates hit degenerate orbits "
        f"({poles} of them poles of the switching residual)"
    )
