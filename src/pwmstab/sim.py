"""Independent time-domain oracle: exact piecewise-exponential simulation.

Within each stage the dynamics are linear, so states are propagated with
matrix exponentials of the augmented (state, constant-input) system; the
only numerical content is locating the comparator event ``h(t) = y(t)``.
That is done with a dense scan of precomputed stage responses followed by
bracketing refinement, giving event times accurate to ~1e-13 of a period.
The oracle shares the ``numerics`` layer with the orbit solver and none
of the orbit code: the scan grid uses ``numerics.mat_exp_stack`` and the
event refinement ``numerics.find_root`` (which returns the bracket end
nearest zero when the refiner, evaluating ``y`` in another association
order, sees no sign change over a scan step), while every propagation and
every event evaluation calls ``scipy.linalg.expm`` on its own.  The
simulation therefore validates the closed-form machinery to the 1e-6 level.

Comparator semantics: stage S1 starts at every clock edge; the first
up-crossing of ``h - y`` inside the cycle latches stage S2 until the next
clock.  If ``h >= y`` already holds at the clock edge the trigger fires
immediately (``d = 0``); if no crossing occurs the cycle stays in S1 and
the event is reported as saturated (``d = None``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import numerics
from .errors import (
    DivergenceError,
    DomainError,
    NoConvergenceError,
    OracleInvalidError,
)
from .model import InputVector, RampSignal, SwitchedLinearModel


@dataclass(frozen=True)
class CycleRecord:
    """One clock period: switching time and the states bounding each stage."""

    d_event: float | None  # None = no trigger, cycle stayed in S1
    x_start: np.ndarray
    x_switch: np.ndarray | None
    x_end: np.ndarray

    @property
    def saturated(self) -> bool:
        """True when the duty railed: no trigger, or trigger at t = 0."""
        return self.d_event is None or self.d_event == 0.0


@dataclass(frozen=True)
class Trajectory:
    """Cycle records of consecutive clock periods."""

    cycles: tuple[CycleRecord, ...]


class CycleSimulator:
    """Propagates one converter cycle exactly; reusable across many cycles.

    Builds the stage responses on a fixed scan grid once, so repeated
    cycles cost a few matrix-vector products plus the event refinement.
    """

    def __init__(
        self,
        model: SwitchedLinearModel,
        ramp: RampSignal,
        u: InputVector,
        scan_points: int = 512,
    ):
        if scan_points < 8:
            raise DomainError(f"scan_points must be >= 8, got {scan_points}")
        self.model = model
        self.ramp = ramp
        self.u = u
        self.scan_points = scan_points

        n = model.n
        uv = u.as_array()
        self._du = float(model.D @ uv)
        # Augmented generators [[A, B u], [0, 0]]: one exponential yields both
        # the state transition and the constant-input response.
        self._aug1 = np.zeros((n + 1, n + 1))
        self._aug1[:n, :n] = model.A1
        self._aug1[:n, n] = model.B1 @ uv
        self._aug2 = np.zeros((n + 1, n + 1))
        self._aug2[:n, :n] = model.A2
        self._aug2[:n, n] = model.B2 @ uv

        # Scan-grid responses of stage S1: y(t) = rows @ x_in + offset.
        self._grid = np.linspace(0.0, ramp.T, scan_points + 1)
        m = numerics.mat_exp_stack(self._aug1 * self._grid[:, None, None])
        self._y_rows = model.C @ m[:, :n, :n]
        self._y_offsets = m[:, :n, n] @ model.C + self._du
        self._h_grid = ramp.Vl + ramp.slope * self._grid

    def _propagate(self, stage: int, x: np.ndarray, t: float) -> np.ndarray:
        if t == 0.0:
            return x.copy()
        aug = self._aug1 if stage == 1 else self._aug2
        n = self.model.n
        with np.errstate(over="ignore", invalid="ignore"):
            # Overflow here is the divergence the caller detects explicitly.
            m = scipy.linalg.expm(aug * t)
            return m[:n, :n] @ x + m[:n, n]

    def _y_stage1(self, x_in: np.ndarray, t: float) -> float:
        n = self.model.n
        m = scipy.linalg.expm(self._aug1 * t)
        return float(self.model.C @ (m[:n, :n] @ x_in + m[:n, n]) + self._du)

    def cycle(self, x_in) -> CycleRecord:
        """Run one clock period starting from ``x_in`` at the clock edge."""
        x = np.asarray(x_in, dtype=float)
        if x.shape != (self.model.n,):
            raise DomainError(f"state must have shape ({self.model.n},)")
        if not np.all(np.isfinite(x)):
            raise DivergenceError("state is not finite")
        T = self.ramp.T

        # Event function e(t) = h(t) - y(t) on the scan grid.
        with np.errstate(over="ignore", invalid="ignore"):
            e = self._h_grid - (self._y_rows @ x + self._y_offsets)
        if not np.all(np.isfinite(e)):
            raise DivergenceError("compensator output overflowed during the cycle")
        hits = np.flatnonzero(e >= 0.0)
        if not hits.size:
            # No trigger this cycle: stay in S1 throughout.
            return CycleRecord(None, x, None, self._finish(self._propagate(1, x, T)))
        # A hit at index 0 (trigger at the clock edge) or a grid zero is the event.
        i = hits[0]
        d = float(self._grid[i])
        if i > 0 and e[i] > 0.0:
            d = numerics.find_root(
                lambda t: self.ramp.Vl + self.ramp.slope * t - self._y_stage1(x, t),
                float(self._grid[i - 1]), d, 1e-13 * T,
            )
        x_switch = self._propagate(1, x, d)
        x_end = self._propagate(2, x_switch, T - d)
        return CycleRecord(d, x, x_switch, self._finish(x_end))

    def _finish(self, x_end: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(x_end)):
            raise DivergenceError("state diverged during the cycle")
        return x_end

    def map(self, x_in) -> np.ndarray:
        """Stroboscopic map: state at the next clock edge."""
        return self.cycle(x_in).x_end

    def run(self, x0, cycles: int) -> Trajectory:
        """Simulate ``cycles`` consecutive clock periods."""
        if cycles < 1:
            raise DomainError(f"cycles must be >= 1, got {cycles}")
        records = []
        x = np.asarray(x0, dtype=float)
        for _ in range(cycles):
            rec = self.cycle(x)
            records.append(rec)
            x = rec.x_end
        return Trajectory(cycles=tuple(records))


def simulate(
    model: SwitchedLinearModel,
    ramp: RampSignal,
    u: InputVector,
    x0,
    cycles: int,
    scan_points: int = 512,
) -> Trajectory:
    """Simulate many cycles with one shared simulator."""
    return CycleSimulator(model, ramp, u, scan_points=scan_points).run(x0, cycles)


def fd_jacobian(
    model: SwitchedLinearModel,
    ramp: RampSignal,
    u: InputVector,
    x_fixed,
    eps: float = 1e-6,
    scan_points: int = 512,
) -> np.ndarray:
    """Central-difference Jacobian of the stroboscopic map at a fixed point.

    Column ``j`` uses step ``eps * max(|x_j|, 1)``.  Raises
    :class:`OracleInvalidError` if any perturbed cycle saturates (the
    probe left the one-switching regime) and :class:`DomainError` if
    ``x_fixed`` is not actually fixed to 1e-9.
    """
    sim = CycleSimulator(model, ramp, u, scan_points=scan_points)
    x = np.asarray(x_fixed, dtype=float)
    fx = sim.map(x)
    if np.linalg.norm(fx - x) > 1e-9 * (1.0 + np.linalg.norm(x)):
        raise DomainError("x_fixed is not a fixed point of the cycle map")
    n = model.n
    jac = np.empty((n, n))
    for j in range(n):
        h = eps * max(abs(x[j]), 1.0)
        xp = x.copy()
        xp[j] += h
        xm = x.copy()
        xm[j] -= h
        rec_p = sim.cycle(xp)
        rec_m = sim.cycle(xm)
        if rec_p.saturated or rec_m.saturated:
            raise OracleInvalidError(
                f"perturbation of state {j} saturated the duty cycle"
            )
        jac[:, j] = (rec_p.x_end - rec_m.x_end) / (2.0 * h)
    return jac


def find_fixed_point(
    model: SwitchedLinearModel,
    ramp: RampSignal,
    u: InputVector,
    x_guess,
    max_iter: int = 2000,
    tol: float = 1e-11,
    damping: float = 1.0,
    scan_points: int = 512,
) -> np.ndarray:
    """Damped fixed-point iteration of the stroboscopic map.

    Converges only onto *attracting* orbits; an unstable orbit makes the
    iteration wander and raises :class:`NoConvergenceError` (use the
    closed-form steady-state solver for those).
    """
    if not 0.0 < damping <= 1.0:
        raise DomainError(f"damping must lie in (0, 1], got {damping}")
    sim = CycleSimulator(model, ramp, u, scan_points=scan_points)
    x = np.asarray(x_guess, dtype=float)
    for _ in range(max_iter):
        fx = sim.map(x)
        if np.linalg.norm(fx - x) <= tol * (1.0 + np.linalg.norm(x)):
            return x
        x = (1.0 - damping) * x + damping * fx
    raise NoConvergenceError(
        f"fixed-point iteration did not converge in {max_iter} cycles "
        "(orbit may be unstable)"
    )


def detect_period(states, tol: float = 1e-6) -> int | None:
    """Smallest period k <= 8 of a post-transient stroboscopic tail.

    ``states`` must hold at least 64 samples.  Returns ``None`` when no
    period up to 8 fits within ``tol`` (relative to the state magnitude).
    """
    arr = np.asarray(states, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 64:
        raise DomainError(
            f"need at least 64 tail samples, got shape {arr.shape}"
        )
    norms = 1.0 + np.linalg.norm(arr, axis=1)
    for k in range(1, 9):
        diffs = np.linalg.norm(arr[k:] - arr[:-k], axis=1)
        if np.all(diffs <= tol * norms[:-k]):
            return k
    return None


def steady_period(
    model: SwitchedLinearModel,
    ramp: RampSignal,
    u: InputVector,
    x0,
    transient: int = 512,
    tail: int = 64,
    tol: float = 1e-6,
    scan_points: int = 512,
) -> int | None:
    """Simulate past the transient and classify the attractor's period."""
    if tail < 64:
        raise DomainError(f"tail must be >= 64, got {tail}")
    sim = CycleSimulator(model, ramp, u, scan_points=scan_points)
    x = np.asarray(x0, dtype=float)
    for _ in range(transient):
        x = sim.map(x)
    states = np.empty((tail, model.n))
    for i in range(tail):
        states[i] = x
        x = sim.map(x)
    return detect_period(states, tol=tol)
