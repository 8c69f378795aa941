"""Time-domain oracle: exact piecewise-exponential simulation.

Within each stage the dynamics are linear, so states are propagated with
matrix exponentials of the augmented (state, constant-input) system
``G = [[A, B u], [0, 0]]``; the only numerical content is locating the
comparator event ``h(t) = y(t)``.  Stage S1 is exponentiated once per
simulator, on a fixed scan grid ``t_j = j h`` (``numerics.mat_exp_stack``,
the kernel the orbit solver's scan also uses).  A cycle scans the event
function on that grid, then refines the first hit inside its scan step
without another exponential: the stage-1 response from the step's start
state ``z`` is the truncated Taylor series ``sum_k (G tau)^k / k! z``, with
the step split into ``2^s`` sub-steps so that ``||G tau||_1 <= 1`` and ``K``
terms chosen so the first dropped term is below ``2^-53`` (the truncation
bound of Al-Mohy & Higham 2009).  ``numerics.find_root`` refines the event
on the scalar series (returning the bracket end nearest zero when the
series sees no sign change over the bracket, as the orbit solver does),
and the switch state comes from the same series.  Stage S2 is one
``scipy.linalg.expm`` per switching cycle.  Event times agree with
per-evaluation exponentials to ~1e-13 of a period.

The oracle shares the model's augmented generator layout
(``model.stage_generators``), ``numerics.mat_exp_stack`` and
``numerics.find_root`` with the orbit solver, and none of the orbit code.
Its independence therefore rests on the mpmath and scipy reference tests
of ``mat_exp_stack``, on the test that pins ``find_root`` to scipy's
``brentq`` (same roots from the same evaluations), and on the test that
replays every cycle against a reference cycle taking one
``scipy.linalg.expm`` per evaluation; on that footing the simulation
validates the closed-form machinery to the 1e-6 level.

Comparator semantics: stage S1 starts at every clock edge; the first
up-crossing of ``h - y`` inside the cycle latches stage S2 until the next
clock.  If ``h >= y`` already holds at the clock edge the trigger fires
immediately (``d = 0``); if no crossing occurs the cycle stays in S1 and
the event is reported as saturated (``d = None``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import numerics
from .errors import (
    DivergenceError,
    DomainError,
    OracleInvalidError,
)
from .model import InputVector, RampSignal, SwitchedLinearModel, stage_generators


@dataclass(frozen=True)
class CycleRecord:
    """One clock period: switching time and the states ending each stage."""

    d_event: float | None  # None = no trigger, cycle stayed in S1
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

    Builds the stage-1 exponentials on a fixed scan grid and the Taylor
    terms of one scan step once, so repeated cycles cost a few
    matrix-vector products, a scalar event refinement and one stage-2
    exponential.
    """

    def __init__(
        self,
        model: SwitchedLinearModel,
        ramp: RampSignal,
        u: InputVector,
        scan_points: int = 512,
    ):
        numerics.check_count("scan_points", scan_points, 8)
        self.model = model
        self.ramp = ramp
        self.u = u
        self.scan_points = scan_points

        n = model.n
        self._du = float(model.D @ u.as_array())
        self._aug1, self._aug2 = stage_generators(model, u)

        # Stage S1 on the scan grid: z(t_j) = stage1[j] @ [x_in; 1], and
        # y(t_j) = rows @ x_in + offset.
        self._grid = np.linspace(0.0, ramp.T, scan_points + 1)
        self._stage1 = numerics.mat_exp_stack(self._aug1 * self._grid[:, None, None])
        self._y_rows = model.C @ self._stage1[:, :n, :n]
        self._y_offsets = self._stage1[:, :n, n] @ model.C + self._du
        self._h_grid = ramp.Vl + ramp.slope * self._grid

        # Taylor terms of one sub-step tau = h / 2^s, with s the smallest
        # integer giving ||G1 tau||_1 <= 1 and K the smallest order whose
        # first dropped term ||G1 tau||^(K+1) / (K+1)! is below 2^-53.
        h = ramp.T / scan_points
        norm = float(np.abs(self._aug1).sum(axis=0).max())
        frac, s = math.frexp(norm * h)
        s = max(s - (frac == 0.5), 0)
        self._substeps = 2 ** s
        self._tau = h / self._substeps
        rho = norm * self._tau
        order, term = 0, rho
        while term > 2.0 ** -53:
            order += 1
            term *= rho / (order + 1)
        # powers[k] = (G1 tau)^k / k!, rows[k] = [C, 0] powers[k], and their
        # sum is e^{G1 tau} to the same bound.
        powers = [np.eye(n + 1)]
        for k in range(1, order + 1):
            powers.append(powers[-1] @ self._aug1 * (self._tau / k))
        self._taylor_powers = np.stack(powers)
        self._taylor_rows = model.C @ self._taylor_powers[:, :n, :]
        self._taylor_orders = np.arange(order + 1)
        self._tau_exp = self._taylor_powers.sum(axis=0)

    def cycle(self, x_in) -> CycleRecord:
        """Run one clock period starting from ``x_in`` at the clock edge."""
        x = np.asarray(x_in, dtype=float)
        n = self.model.n
        if x.shape != (n,):
            raise DomainError(f"state must have shape ({n},)")
        if not np.all(np.isfinite(x)):
            raise DivergenceError("state is not finite")
        z = np.concatenate((x, (1.0,)))

        with np.errstate(over="ignore", invalid="ignore"):
            # Overflow here is the divergence the checks below report.
            # Event function e(t) = h(t) - y(t) on the scan grid.
            e = self._h_grid - (self._y_rows @ x + self._y_offsets)
            if not np.all(np.isfinite(e)):
                raise DivergenceError("compensator output overflowed during the cycle")
            hits = np.flatnonzero(e >= 0.0)
            if not hits.size:
                # No trigger this cycle: stay in S1 throughout.
                return CycleRecord(None, None, self._finish((self._stage1[-1] @ z)[:n]))
            # A hit at index 0 (trigger at the clock edge) or a grid zero is
            # the event.
            i = hits[0]
            if i > 0 and e[i] > 0.0:
                d, x_switch = self._refine(i, self._stage1[i - 1] @ z)
            else:
                d, x_switch = float(self._grid[i]), (self._stage1[i] @ z)[:n]
            m = scipy.linalg.expm(self._aug2 * (self.ramp.T - d))
            x_end = m[:n, :n] @ x_switch + m[:n, n]
        return CycleRecord(d, x_switch, self._finish(x_end))

    def _refine(self, i: int, z: np.ndarray) -> tuple[float, np.ndarray]:
        """Event time and switch state inside scan step ``i``, from the
        augmented state ``z`` at its start, by the stage-1 Taylor series."""
        ramp, n, du, tau = self.ramp, self.model.n, self._du, self._tau
        start = lo = float(self._grid[i - 1])
        hi = float(self._grid[i])
        # The first sub-step that ends with e >= 0, or the last one.
        for j in range(1, self._substeps):
            z_next = self._tau_exp @ z
            t = start + j * tau
            if ramp.Vl + ramp.slope * t - (self.model.C @ z_next[:n] + du) >= 0.0:
                hi = t
                break
            z, lo = z_next, t
        coeffs = (self._taylor_rows @ z).tolist()[::-1]

        def event(t: float) -> float:
            # h(t) - y(t) in absolute time, y by Horner in (t - lo) / tau.
            v = (t - lo) / tau
            y = 0.0
            for c in coeffs:
                y = y * v + c
            return ramp.Vl + ramp.slope * t - (y + du)

        d = numerics.find_root(event, lo, hi, 1e-13 * ramp.T)
        weights = ((d - lo) / tau) ** self._taylor_orders
        return d, weights @ (self._taylor_powers[:, :n] @ z)

    def _finish(self, x_end: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(x_end)):
            raise DivergenceError("state diverged during the cycle")
        return x_end

    def map(self, x_in) -> np.ndarray:
        """Stroboscopic map: state at the next clock edge."""
        return self.cycle(x_in).x_end


def simulate(
    model: SwitchedLinearModel,
    ramp: RampSignal,
    u: InputVector,
    x0,
    cycles: int,
    scan_points: int = 512,
) -> Trajectory:
    """Simulate ``cycles`` consecutive clock periods with one shared simulator."""
    numerics.check_count("cycles", cycles, 1)
    sim = CycleSimulator(model, ramp, u, scan_points=scan_points)
    records = []
    x = np.asarray(x0, dtype=float)
    for _ in range(cycles):
        rec = sim.cycle(x)
        records.append(rec)
        x = rec.x_end
    return Trajectory(cycles=tuple(records))


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value}")


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
    ``x_fixed`` is not actually fixed to 1e-9, or ``eps`` is not positive
    and finite.
    """
    _check_positive("eps", eps)
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


def detect_period(states, tol: float = 1e-6) -> int | None:
    """Smallest period k <= 8 of a post-transient stroboscopic tail.

    ``states`` must hold at least 64 samples.  Returns ``None`` when no
    period up to 8 fits within ``tol`` (relative to the state magnitude).
    """
    _check_positive("tol", tol)
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
    numerics.check_count("tail", tail, 64)
    numerics.check_count("transient", transient, 0)
    _check_positive("tol", tol)
    sim = CycleSimulator(model, ramp, u, scan_points=scan_points)
    x = np.asarray(x0, dtype=float)
    for _ in range(transient):
        x = sim.map(x)
    states = np.empty((tail, model.n))
    for i in range(tail):
        states[i] = x
        x = sim.map(x)
    return detect_period(states, tol=tol)
