"""Periodic steady-state solver for the switched-linear converter.

The T-periodic orbit is pinned down by three conditions: propagating the
state through stage S1 for ``d`` seconds, through stage S2 for ``T - d``,
returning to the starting state, and the compensator output meeting the
ramp at the switching instant.  For a candidate ``d`` the first two are a
linear boundary-value problem solved in closed form with matrix
exponentials; the third is a scalar root-finding problem in ``d``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import (
    DegenerateOrbitError,
    DomainError,
    NoRootError,
    NoSwitchingError,
    SingularMatrixError,
)
from .model import InputVector, ModulationEdge, RampSignal, SwitchedLinearModel, ramp_value


@dataclass(frozen=True)
class SteadyState:
    """Solved periodic orbit data.

    ``d`` is the switching instant within the cycle; ``duty`` is the ON
    fraction (``d/T`` for TEM, ``1 - d/T`` for LEM).  ``candidates`` is
    how many switching-condition sign changes the solver saw; values
    above 1 mean the first crossing was chosen by the latch convention.
    """

    d: float
    duty: float
    x0_start: np.ndarray
    x0_switch: np.ndarray
    y_switch: float
    candidates: int = 1


@dataclass(frozen=True)
class OrbitDerivatives:
    """One-sided orbit time-derivatives at the switching instant."""

    xdot_minus: np.ndarray
    xdot_plus: np.ndarray


def _stage_generators(
    model: SwitchedLinearModel, u: InputVector
) -> tuple[np.ndarray, np.ndarray]:
    # Van Loan's augmented generators [[A_i, B_i u], [0, 0]]: one exponential
    # of size N + 1 holds both e^{A_i t} (top left) and J_i(t) B_i u (top
    # right column), where J_i(t) = int_0^t e^{A_i s} ds.
    uv = u.as_array()
    gens = np.zeros((2, model.n + 1, model.n + 1))
    gens[0, :-1, :-1] = model.A1
    gens[0, :-1, -1] = model.B1 @ uv
    gens[1, :-1, :-1] = model.A2
    gens[1, :-1, -1] = model.B2 @ uv
    return gens[0], gens[1]


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


def x0_of_d(
    model: SwitchedLinearModel,
    ramp: RampSignal,
    u: InputVector,
    d: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Boundary states of the periodic orbit for an imposed switching time.

    Solves ``(I - e^{A2 (T-d)} e^{A1 d}) x0 = e^{A2 (T-d)} J1 B1 u + J2 B2 u``
    where ``J_i`` are the stage exponential integrals, then maps forward to
    the switch state.  Each stage takes one exponential of its augmented
    generator ``[[A_i, B_i u], [0, 0]]``.  Raises
    :class:`DegenerateOrbitError` when the open-loop cycle map has a
    multiplier at +1 (no isolated orbit).
    """
    T = ramp.T
    if not 0.0 <= d <= T:
        raise DomainError(f"d must lie in [0, {T}], got {d}")
    g1, g2 = _stage_generators(model, u)
    e1 = numerics.mat_exp(g1, d)
    lhs, rhs = _cycle_system(e1, numerics.mat_exp(g2, T - d))
    try:
        x0_start = numerics.solve_linear(lhs, rhs)
    except SingularMatrixError as exc:
        raise DegenerateOrbitError(
            f"open-loop cycle map has a multiplier at +1 for d={d:.6g}"
        ) from exc
    return x0_start, _switch_state(e1, x0_start)


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
    g1, g2 = _stage_generators(model, u)
    return (
        numerics.mat_exp_stack(g1 * d),
        numerics.mat_exp_stack(g2 * (ramp.T - d)),
    )


def x0_of_d_stack(
    e1: np.ndarray, e2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`x0_of_d` over a grid, from :func:`stage_exponentials`.

    Returns ``(x0_start, x0_switch, ok)``; where ``ok`` is false the
    open-loop cycle map has a multiplier at +1 and both states are NaN.
    """
    lhs, rhs = _cycle_system(e1, e2)
    x0_start, ok = numerics.solve_linear_stack(lhs, rhs)
    return x0_start, _switch_state(e1, x0_start), ok


def switching_residual(
    model: SwitchedLinearModel,
    ramp: RampSignal,
    u: InputVector,
    d: float,
) -> float:
    """Compensator-output-minus-ramp mismatch at an imposed switching time."""
    _, x0_switch = x0_of_d(model, ramp, u, d)
    return float(_residual(model, ramp, u, x0_switch, d))


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


def _duty(edge: ModulationEdge, d: float, T: float) -> float:
    return d / T if edge is ModulationEdge.TEM else 1.0 - d / T


def solve_periodic_orbit(
    model: SwitchedLinearModel,
    ramp: RampSignal,
    u: InputVector,
    grid_points: int = 256,
    d_tol: float | None = None,
) -> SteadyState:
    """Find the periodic orbit: scan the switching residual, refine roots.

    The residual is sampled on a uniform interior grid over ``(0, T)``;
    every sign change is refined by the bracketing root finder, and the
    smallest root wins (first crossing in the cycle, matching comparator
    latch behavior).  ``candidates`` on the result reports how many sign
    changes were seen.

    Raises
    ------
    NoSwitchingError
        No sign change anywhere: the converter never switches in steady
        state (duty saturated at 0 or 1).
    DegenerateOrbitError
        Every candidate sat at a degenerate orbit (open-loop multiplier
        at +1).
    """
    T = ramp.T
    if grid_points < 2:
        raise DomainError(f"grid_points must be >= 2, got {grid_points}")
    if d_tol is None:
        d_tol = 1e-12 * T
    grid = np.linspace(0.0, T, grid_points + 2)[1:-1]

    # Degenerate grid points come back NaN and take part in no bracket.
    _, x0_switch, _ = x0_of_d_stack(*stage_exponentials(model, ramp, u, grid))
    values = _residual(model, ramp, u, x0_switch, grid)

    brackets: list[int] = []
    exact: list[float] = []
    for i in range(len(grid) - 1):
        a, b = values[i], values[i + 1]
        if np.isnan(a) or np.isnan(b):
            continue
        if a == 0.0:
            exact.append(grid[i])
        elif a * b < 0.0:
            brackets.append(i)
    if len(grid) and values[-1] == 0.0:
        exact.append(grid[-1])

    n_candidates = len(brackets) + len(exact)
    if n_candidates == 0:
        raise NoSwitchingError(
            "switching condition has no solution in (0, T): "
            "the converter never switches in steady state"
        )

    roots = list(exact)
    failures = 0
    for i in brackets:
        lo, hi = grid[i], grid[i + 1]
        try:
            roots.append(
                numerics.find_root(
                    lambda d: switching_residual(model, ramp, u, d), lo, hi, d_tol
                )
            )
        except NoRootError:
            # The scan and the refinement evaluate the residual in different
            # association orders; a few-ulp disagreement at a bracket edge
            # means the crossing sits at the edge the scan found nearest zero.
            roots.append(lo if abs(values[i]) <= abs(values[i + 1]) else hi)
        except DegenerateOrbitError:
            failures += 1
    if not roots:
        raise DegenerateOrbitError(
            f"all {failures} switching candidates hit degenerate orbits"
        )

    d_star = min(roots)
    x0_start, x0_switch = x0_of_d(model, ramp, u, d_star)
    y_switch = float(model.C @ x0_switch + model.D @ u.as_array())
    return SteadyState(
        d=d_star,
        duty=_duty(model.edge, d_star, T),
        x0_start=x0_start,
        x0_switch=x0_switch,
        y_switch=y_switch,
        candidates=n_candidates,
    )


def orbit_derivatives(
    model: SwitchedLinearModel, u: InputVector, ss: SteadyState
) -> OrbitDerivatives:
    """Orbit time-derivatives just before and after the switch."""
    uv = u.as_array()
    return OrbitDerivatives(
        xdot_minus=model.A1 @ ss.x0_switch + model.B1 @ uv,
        xdot_plus=model.A2 @ ss.x0_switch + model.B2 @ uv,
    )
