"""Periodic steady-state solver for the switched-linear converter.

The T-periodic orbit is pinned down by three conditions: propagating the
state through stage S1 for ``d`` seconds, through stage S2 for ``T - d``,
returning to the starting state, and the compensator output meeting the
ramp at the switching instant.  For a candidate ``d`` the first two are a
linear boundary-value problem solved in closed form with matrix
exponentials; the third is a scalar root-finding problem in ``d``, solved
by Newton steps on the exact slope of its residual.  The roots are
bracketed by a scan on a uniform grid of ``d``, whose stage exponentials
are the powers of one step exponential per stage
(``numerics.mat_powers``); :func:`orbit_grid` takes one Pade exponential
per point instead, for arbitrary switching times.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .errors import (
    DegenerateOrbitError,
    DimensionError,
    DomainError,
    NoSwitchingError,
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
    The stage transition matrices ``m1 = e^{A1 d}``, ``m2 = e^{A2 (T-d)}``
    and the orbit derivatives ``xdot_minus``/``xdot_plus`` around the
    switch are what every :mod:`pwmstab.stability` consumer reads; an
    orbit given only by its states leaves them ``None``.  The points of
    :func:`orbit_grid` share one instance whose fields carry a leading
    grid axis (``y_switch`` is then an array); ``candidates`` is unused
    there.
    """

    d: float
    duty: float
    x0_start: np.ndarray
    x0_switch: np.ndarray
    y_switch: float
    candidates: int = 1
    m1: np.ndarray | None = None
    m2: np.ndarray | None = None
    xdot_minus: np.ndarray | None = None
    xdot_plus: np.ndarray | None = None


def _cycle_system(e1: np.ndarray, e2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Periodicity x0 = e^{A2 (T-d)} (e^{A1 d} x0 + J1 B1 u) + J2 B2 u as
    # lhs x0 = rhs, from the stage exponentials of the augmented generators
    # (one pair, or stacks of them along a leading axis).  An overflowed
    # exponential raises here, for the whole stack, with no RuntimeWarning.
    n = e1.shape[-1] - 1
    m2 = e2[..., :n, :n]
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = np.eye(n) - m2 @ e1[..., :n, :n]
        rhs = (m2 @ e1[..., :n, n:])[..., 0] + e2[..., :n, n]
    if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
        raise DomainError("a stage exponential overflows: the cycle map is not finite")
    return lhs, rhs


def _orbit_point(
    model: SwitchedLinearModel, ramp: RampSignal, u: InputVector, d, e1, e2, x0_start
) -> SteadyState:
    # Orbit point(s) at switching time(s) d from the augmented stage
    # exponentials and start state(s); grid points lie along a leading axis.
    n = model.n
    uv = u.as_array()
    m1 = e1[..., :n, :n]
    x0_switch = (m1 @ x0_start[..., None])[..., 0] + e1[..., :n, n]
    y_switch = x0_switch @ model.C + model.D @ uv
    return SteadyState(
        d=d,
        duty=duty_of_switch_time(model.edge, d, ramp.T),
        x0_start=x0_start,
        x0_switch=x0_switch,
        y_switch=float(y_switch) if x0_switch.ndim == 1 else y_switch,
        m1=m1,
        m2=e2[..., :n, :n],
        xdot_minus=x0_switch @ model.A1.T + model.B1 @ uv,
        xdot_plus=x0_switch @ model.A2.T + model.B2 @ uv,
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
    T = ramp.T
    if not 0.0 <= d <= T:
        raise DomainError(f"d must lie in [0, {T}], got {d}")
    g1, g2 = stage_generators(model, u)
    e1 = numerics.mat_exp(g1, d)
    e2 = numerics.mat_exp(g2, T - d)
    try:
        x0_start = numerics.solve_linear(*_cycle_system(e1, e2))
    except SingularMatrixError as exc:
        raise DegenerateOrbitError(
            f"open-loop cycle map has a multiplier at +1 for d={d:.6g}"
        ) from exc
    return _orbit_point(model, ramp, u, d, e1, e2, x0_start)


def orbit_grid(
    model: SwitchedLinearModel, ramp: RampSignal, u: InputVector, d
) -> tuple[SteadyState, np.ndarray]:
    """:func:`orbit_at` at every switching time of the 1-D array ``d``.

    Both stages are exponentiated for the whole grid in one stacked pass.
    Returns the orbit points, their fields stacked along a leading axis,
    and an ``ok`` mask; where ``ok`` is false the open-loop cycle map has
    a multiplier at +1 and the states are NaN.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 1:
        raise DimensionError(f"d must be a 1-D array, got shape {d.shape}")
    if not np.all((d >= 0.0) & (d <= ramp.T)):
        raise DomainError(f"switching times must lie in [0, {ramp.T}]")
    g1, g2 = stage_generators(model, u)
    # One stacked pass for both stages: the kernel's cost barely grows with
    # the stack, and every slice is exponentiated on its own.
    e = numerics.mat_exp_stack(
        np.concatenate([g1 * d[:, None, None], g2 * (ramp.T - d)[:, None, None]])
    )
    e1, e2 = e[: d.size], e[d.size:]
    x0_start, ok = numerics.solve_linear_stack(*_cycle_system(e1, e2))
    return _orbit_point(model, ramp, u, d, e1, e2, x0_start), ok


def _power_scan(
    model: SwitchedLinearModel, ramp: RampSignal, u: InputVector, grid_points: int
) -> tuple[SteadyState, np.ndarray]:
    # orbit_grid on the interior grid d_j = j h, j = 1..K, h = T / (K + 1),
    # from two step exponentials: e^{A1 d_j} is the j-th power of e^{G1 h}
    # and e^{A2 (T - d_j)} the (K + 1 - j)-th of e^{G2 h}.
    d = np.linspace(0.0, ramp.T, grid_points + 2)[1:-1]
    h = ramp.T / (grid_points + 1)
    g1, g2 = stage_generators(model, u)
    p1 = numerics.mat_powers(numerics.mat_exp(g1, h), grid_points)
    p2 = numerics.mat_powers(numerics.mat_exp(g2, h), grid_points)
    e1, e2 = p1[1:], p2[:0:-1]
    x0_start, ok = numerics.solve_linear_stack(*_cycle_system(e1, e2))
    return _orbit_point(model, ramp, u, d, e1, e2, x0_start), ok


def _switching_slope(
    model: SwitchedLinearModel, ramp: RampSignal, ss: SteadyState
) -> float:
    # d/dd of the switching residual y_switch(d) - h(d) at an orbit point:
    # C xdot(d-) - hdot + C m1 (I - m2 m1)^{-1} m2 (xdot(d-) - xdot(d+)),
    # the saddle-node residual of pwmstab.stability.  The matrix is the one
    # orbit_at just factored, so the solve cannot find it singular.
    dx0 = numerics.solve_linear(
        np.eye(model.n) - ss.m2 @ ss.m1, ss.m2 @ (ss.xdot_minus - ss.xdot_plus)
    )
    return float(model.C @ (ss.xdot_minus + ss.m1 @ dx0)) - ramp.slope


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
    from the scan's values at its ends, with the exact slope of the
    residual (the saddle-node left side minus the ramp slope) from the
    orbit point each step builds; the result is the point of the last
    step, whose Newton step, or bracket, is at most ``d_tol`` (default
    ``1e-12 T``) long.

    Raises
    ------
    DomainError
        ``d_tol`` is not positive and finite.
    NoSwitchingError
        No sign change anywhere: the converter never switches in steady
        state (duty saturated at 0 or 1).
    DegenerateOrbitError
        Every scan point, or every candidate, sat at a degenerate orbit
        (open-loop multiplier at +1).
    """
    T = ramp.T
    numerics.check_count("grid_points", grid_points, 2)
    if d_tol is None:
        d_tol = 1e-12 * T
    if not 0.0 < d_tol < np.inf:
        raise DomainError(f"d_tol must be positive and finite, got {d_tol}")

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

    # Every orbit point the refinement builds is kept; newton_root returns
    # one of the points it evaluated, so the root's point is among them.
    points = {}

    def residual(t):
        ss = points[t] = orbit_at(model, ramp, u, t)
        r = ss.y_switch - float(ramp_value(ramp, t))
        return r, _switching_slope(model, ramp, ss)

    for lo, hi in zip(los, his):
        if lo == hi:
            return replace(orbit_at(model, ramp, u, grid[lo]), candidates=len(los))
        try:
            d = numerics.newton_root(
                residual, grid[lo], grid[hi], values[lo], values[hi], d_tol
            )
        except DegenerateOrbitError:
            continue
        return replace(points[d], candidates=len(los))
    raise DegenerateOrbitError(
        f"all {len(los)} switching candidates hit degenerate orbits"
    )
