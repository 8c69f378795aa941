"""Periodic steady-state solver for the switched-linear converter.

The T-periodic orbit is pinned down by three conditions: propagating the
state through stage S1 for ``d`` seconds, through stage S2 for ``T - d``,
returning to the starting state, and the compensator output meeting the
ramp at the switching instant.  For a candidate ``d`` the first two are a
linear boundary-value problem solved in closed form with matrix
exponentials; the third is a scalar root-finding problem in ``d``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .errors import (
    DegenerateOrbitError,
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
    orbit given only by its states leaves them ``None``.
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
    # (one pair, or stacks of them along a leading axis).
    n = e1.shape[-1] - 1
    m2 = e2[..., :n, :n]
    lhs = np.eye(n) - m2 @ e1[..., :n, :n]
    rhs = (m2 @ e1[..., :n, n:])[..., 0] + e2[..., :n, n]
    return lhs, rhs


def _switch_state(e1: np.ndarray, x0_start: np.ndarray) -> np.ndarray:
    # State at the switching instant: e^{A1 d} x0 + J1 B1 u.
    n = e1.shape[-1] - 1
    return (e1[..., :n, :n] @ x0_start[..., None])[..., 0] + e1[..., :n, n]


def switch_derivatives(
    model: SwitchedLinearModel, u: InputVector, x0_switch: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Orbit derivatives ``xdot(d-)``, ``xdot(d+)`` at the switch state(s)."""
    uv = u.as_array()
    return (
        (model.A1 @ x0_switch[..., None])[..., 0] + model.B1 @ uv,
        (model.A2 @ x0_switch[..., None])[..., 0] + model.B2 @ uv,
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
    lhs, rhs = _cycle_system(e1, e2)
    try:
        x0_start = numerics.solve_linear(lhs, rhs)
    except SingularMatrixError as exc:
        raise DegenerateOrbitError(
            f"open-loop cycle map has a multiplier at +1 for d={d:.6g}"
        ) from exc
    x0_switch = _switch_state(e1, x0_start)
    xdot_minus, xdot_plus = switch_derivatives(model, u, x0_switch)
    n = model.n
    return SteadyState(
        d=d,
        duty=duty_of_switch_time(model.edge, d, T),
        x0_start=x0_start,
        x0_switch=x0_switch,
        y_switch=float(model.C @ x0_switch + model.D @ u.as_array()),
        m1=e1[:n, :n],
        m2=e2[:n, :n],
        xdot_minus=xdot_minus,
        xdot_plus=xdot_plus,
    )


def stage_exponentials(
    model: SwitchedLinearModel, ramp: RampSignal, u: InputVector, d: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Augmented stage exponentials at every switching time of ``d``.

    Returns two ``(k, N+1, N+1)`` stacks: ``e^{G1 d}`` and
    ``e^{G2 (T - d)}`` with ``G_i = [[A_i, B_i u], [0, 0]]``.
    """
    d = np.asarray(d, dtype=float)[:, None, None]
    if not np.all((d >= 0.0) & (d <= ramp.T)):
        raise DomainError(f"switching times must lie in [0, {ramp.T}]")
    g1, g2 = stage_generators(model, u)
    return (
        numerics.mat_exp_stack(g1 * d),
        numerics.mat_exp_stack(g2 * (ramp.T - d)),
    )


def x0_of_d_stack(
    e1: np.ndarray, e2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boundary states of :func:`orbit_at` over a grid, from
    :func:`stage_exponentials`.

    Returns ``(x0_start, x0_switch, ok)``; where ``ok`` is false the
    open-loop cycle map has a multiplier at +1 and both states are NaN.
    """
    lhs, rhs = _cycle_system(e1, e2)
    x0_start, ok = numerics.solve_linear_stack(lhs, rhs)
    return x0_start, _switch_state(e1, x0_start), ok


def _residual(
    model: SwitchedLinearModel,
    ramp: RampSignal,
    u: InputVector,
    x0_switch: np.ndarray,
    d: float | np.ndarray,
) -> float | np.ndarray:
    # y(d) - h(d); elementwise over a grid when x0_switch is (k, N).
    y = x0_switch @ model.C + model.D @ u.as_array()
    return y - ramp_value(ramp, d)


def solve_periodic_orbit(
    model: SwitchedLinearModel,
    ramp: RampSignal,
    u: InputVector,
    grid_points: int = 256,
    d_tol: float | None = None,
) -> SteadyState:
    """Find the periodic orbit: scan the switching residual, refine roots.

    The residual is sampled on a uniform interior grid over ``(0, T)``.
    Grid points where it is exactly zero and sign-change brackets are the
    candidates; they are walked in cycle order and the first one that
    refines to a non-degenerate orbit wins (first crossing in the cycle,
    matching comparator latch behavior).  ``candidates`` on the result
    reports how many candidates the scan saw.

    Raises
    ------
    NoSwitchingError
        No sign change anywhere: the converter never switches in steady
        state (duty saturated at 0 or 1).
    DegenerateOrbitError
        Every scan point, or every candidate, sat at a degenerate orbit
        (open-loop multiplier at +1).
    """
    T = ramp.T
    if grid_points < 2:
        raise DomainError(f"grid_points must be >= 2, got {grid_points}")
    if d_tol is None:
        d_tol = 1e-12 * T
    grid = np.linspace(0.0, T, grid_points + 2)[1:-1]

    # Degenerate grid points come back NaN and take part in no bracket.
    _, x0_switch, ok = x0_of_d_stack(*stage_exponentials(model, ramp, u, grid))
    if not ok.any():
        raise DegenerateOrbitError(
            "open-loop cycle map has a multiplier at +1 at every scan point "
            "(typically an integrating state): the cycle equations are singular "
            "for every d"
        )
    values = _residual(model, ramp, u, x0_switch, grid)

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

    # Every orbit point the refinement builds is kept; find_root returns
    # one of the points it evaluated, so the root's point is among them.
    points = {}

    def residual(t):
        ss = points[t] = orbit_at(model, ramp, u, t)
        return ss.y_switch - float(ramp_value(ramp, t))

    for lo, hi in zip(los, his):
        if lo == hi:
            return replace(orbit_at(model, ramp, u, grid[lo]), candidates=len(los))
        try:
            d = numerics.find_root(residual, grid[lo], grid[hi], d_tol)
        except DegenerateOrbitError:
            continue
        ss = points[d] if d in points else orbit_at(model, ramp, u, d)
        return replace(ss, candidates=len(los))
    raise DegenerateOrbitError(
        f"all {len(los)} switching candidates hit degenerate orbits"
    )
