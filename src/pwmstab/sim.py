"""Time-domain oracle: exact piecewise-exponential simulation.

Within each stage the dynamics are linear, so states are propagated with
matrix exponentials of the augmented (state, constant-input) system
``G = [[A, B u], [0, 0]]``; the only numerical content is locating the
comparator event ``h(t) = y(t)``.  A simulator takes two matrix
exponentials, one step exponential ``e^{G_i h}`` per stage
(``numerics.mat_exp``, i.e. ``scipy.linalg.expm``), and a cycle takes
none.  Each stage's exponentials on the scan grid ``t_j = j h`` are the
powers of its step exponential.  Inside a scan step each stage is the
truncated Taylor series ``sum_k (G tau)^k / k! z``, with the step split
into ``2^s`` sub-steps so that ``||G tau||_1 <= 1`` and ``K`` terms chosen
so the first dropped term is below ``2^-53`` (the truncation bound of
Al-Mohy & Higham 2009).  A cycle scans the event function on the grid
from stage S1's powers, then refines the first hit inside its scan step:
the step's sub-steps are walked to the first one whose end the event
reaches, and over that sub-step the event is ``h(t) - y(t)`` with ``y`` a
degree-``K`` polynomial in ``v = (t - lo) / tau`` whose coefficients are
the ``C`` rows of the Taylor terms.  ``numerics.newton_root`` refines it
from the event values the scan already has at the bracket ends, with the
slope from the same Horner pass as the value; an event exactly zero at a
sub-step end is the event itself.  The switch state comes from the same
Taylor terms.  Stage S2 runs from the event to the next grid point by its
own series, then to the clock edge by one of its powers.  Event times
agree with per-evaluation exponentials to ~1e-13 of a period.

The oracle shares the model's augmented generator layout
(``model.stage_generators``), ``numerics.mat_exp``, the power kernel
``numerics.mat_powers`` and the bracketed Newton ``numerics.newton_root``
with the orbit solver, and none of the orbit code: the solver's Newton
runs on its orbit residual, the oracle's on the stage-1 series.  The
oracle's independence therefore rests on the test that replays every
cycle against a reference cycle taking one ``scipy.linalg.expm`` per
evaluation and refining by Brent (``numerics.find_root``), not Newton
(``TestReferenceCycle``); on the tests of every power against one
``scipy.linalg.expm`` per point (``TestMatPowers``, ``TestScanGrid``); on
scipy's ``expm`` for the two step exponentials; and on the ``2^-53``
truncation bound of the series.  On that footing the simulation validates
the closed-form machinery to the 1e-6 level.

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


class _Stage:
    """Exponentials of one augmented stage generator ``G`` for a uniform
    scan grid of step ``h``, from one Pade exponential ``e^{G h}``.

    ``grid[j] = e^{G j h}`` for ``j = 0..points`` are the powers of
    ``e^{G h}`` (``numerics.mat_powers``).  ``powers[k] =
    (G tau)^k / k!`` for ``k = 0..K`` are the Taylor terms of one sub-step
    ``tau = h / substeps``: ``substeps = 2^s`` with ``s`` the smallest
    integer giving ``||G tau||_1 <= 1``, and ``K`` the smallest order whose
    first dropped term ``||G tau||^(K+1) / (K+1)!`` is below ``2^-53``.
    ``step = e^{G tau}`` is their sum, to the same bound.
    """

    def __init__(self, gen: np.ndarray, h: float, points: int):
        # An overflowing power comes back non-finite; the cycle that reads
        # it raises DivergenceError.
        self.grid = numerics.mat_powers(numerics.mat_exp(gen, h), points)

        norm = float(np.abs(gen).sum(axis=0).max())
        frac, s = math.frexp(norm * h)
        s = max(s - (frac == 0.5), 0)
        self.substeps = 2 ** s
        self.tau = h / self.substeps
        rho = norm * self.tau
        order, term = 0, rho
        while term > 2.0 ** -53:
            order += 1
            term *= rho / (order + 1)
        powers = [np.eye(len(gen))]
        for k in range(1, order + 1):
            powers.append(powers[-1] @ gen * (self.tau / k))
        self.powers = np.stack(powers)
        self.orders = np.arange(order + 1)
        self.step = self.powers.sum(axis=0)

    def series(self, z: np.ndarray, v: float) -> np.ndarray:
        """``e^{G v tau} z`` by the truncated series, for ``0 <= v <= 1``."""
        return v ** self.orders @ (self.powers @ z)

    def advance(self, z: np.ndarray, r: float) -> np.ndarray:
        """``e^{G r} z`` for ``0 <= r <= h``: whole sub-steps of ``e^{G tau}``,
        then the series over the rest."""
        v = r / self.tau
        q = int(v)
        for _ in range(q):
            z = self.step @ z
        return self.series(z, v - q)


class CycleSimulator:
    """Propagates one converter cycle exactly; reusable across many cycles.

    Takes two matrix exponentials when built, one step exponential per
    stage, and from their powers and the Taylor terms of one sub-step
    builds both stages on a fixed scan grid.  A cycle then takes no
    exponential: it costs a few matrix-vector products, a scalar Newton
    refinement of the event (two to four evaluations of the stage-1
    polynomial) and the stage-2 series from the event to the next grid
    point.
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

        # Both stages on the scan grid t_j = j h.  Stage S1 gives the event
        # function there, z(t_j) = stage1.grid[j] @ [x_in; 1] and
        # y(t_j) = rows @ x_in + offset; inside a step, the C rows of its
        # Taylor terms give y.
        h = ramp.T / scan_points
        self._stage1 = _Stage(self._aug1, h, scan_points)
        self._stage2 = _Stage(self._aug2, h, scan_points)
        grid1 = self._stage1.grid
        self._grid = np.linspace(0.0, ramp.T, scan_points + 1)
        self._y_rows = model.C @ grid1[:, :n, :n]
        self._y_offsets = grid1[:, :n, n] @ model.C + self._du
        self._h_grid = ramp.Vl + ramp.slope * self._grid

    def cycle(self, x_in) -> CycleRecord:
        """Run one clock period starting from ``x_in`` at the clock edge."""
        x = np.asarray(x_in, dtype=float)
        n = self.model.n
        if x.shape != (n,):
            raise DomainError(f"state must have shape ({n},)")
        if not np.isfinite(x).all():
            raise DivergenceError("state is not finite")
        z = np.concatenate((x, (1.0,)))
        stage1, stage2 = self._stage1, self._stage2

        with np.errstate(over="ignore", invalid="ignore"):
            # Overflow here is the divergence the checks below report.
            # Event function e(t) = h(t) - y(t) on the scan grid.
            e = self._h_grid - (self._y_rows @ x + self._y_offsets)
            if not np.isfinite(e).all():
                raise DivergenceError("compensator output overflowed during the cycle")
            hits = np.flatnonzero(e >= 0.0)
            if not hits.size:
                # No trigger this cycle: stay in S1 throughout.
                return CycleRecord(None, None, self._finish((stage1.grid[-1] @ z)[:n]))
            # A hit at index 0 (trigger at the clock edge) or a grid zero is
            # the event.  A refined event d first runs S2 over t_i - d to the
            # grid point; from there S2 is on the grid.
            i = hits[0]
            if i > 0 and e[i] > 0.0:
                d, z_switch = self._refine(i, stage1.grid[i - 1] @ z, e[i - 1], e[i])
                z_grid = stage2.advance(z_switch, self._grid[i] - d)
            else:
                d = float(self._grid[i])
                z_switch = z_grid = stage1.grid[i] @ z
            x_end = (stage2.grid[self.scan_points - i] @ z_grid)[:n]
        return CycleRecord(d, z_switch[:n], self._finish(x_end))

    def _refine(
        self, i: int, z: np.ndarray, flo: float, fhi: float
    ) -> tuple[float, np.ndarray]:
        """Event time and augmented switch state inside scan step ``i``, from
        the augmented state ``z`` at its start and the scan's event values
        ``flo < 0 < fhi`` at its ends, by the stage-1 Taylor series."""
        n, du, stage1 = self.model.n, self._du, self._stage1
        vl, slope, tau = self.ramp.Vl, self.ramp.slope, stage1.tau
        start = lo = float(self._grid[i - 1])
        hi = float(self._grid[i])
        # The first sub-step that ends with e >= 0, or the last one.
        for j in range(1, stage1.substeps):
            z_next = stage1.step @ z
            t = start + j * tau
            f = vl + slope * t - (self.model.C @ z_next[:n] + du)
            if f == 0.0:
                return t, z_next
            if f > 0.0:
                hi, fhi = t, f
                break
            z, lo, flo = z_next, t, f
        # Taylor terms (G tau)^k / k! z of the sub-step; y's coefficients in
        # v = (t - lo) / tau are their C rows.
        terms = stage1.powers @ z
        coeffs = (terms[:, :n] @ self.model.C).tolist()[::-1]

        def event(t: float) -> tuple[float, float]:
            # h(t) - y(t) and its slope, y and dy/dv by one Horner pass.
            v = (t - lo) / tau
            y = dy = 0.0
            for c in coeffs:
                dy = dy * v + y
                y = y * v + c
            return vl + slope * t - (y + du), slope - dy / tau

        # newton_root stops once its next step is at most tol and does not
        # take it, so tol sits a decade below the ~1e-13 T accuracy wanted.
        d = numerics.newton_root(event, lo, hi, flo, fhi, 1e-14 * self.ramp.T)
        return d, ((d - lo) / tau) ** stage1.orders @ terms

    def _finish(self, x_end: np.ndarray) -> np.ndarray:
        if not np.isfinite(x_end).all():
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
