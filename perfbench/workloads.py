"""Workload item runners and the oracle gate.

Each runner performs one item's analysis through the public functions of
the pwmstab modules.  Functions are looked up on their module at call
time (``steadystate.solve_periodic_orbit``, not a name bound at import),
so the traced run can wrap them in place.

The oracle gate runs outside the timed loop.  It checks every pool item's
answer against the package's independent simulator or closed-form
identities, using tolerances the acceptance suite already uses.
"""

from __future__ import annotations

import cmath
import dataclasses
import enum
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from pwmstab import buck, config, sim, stability, steadystate
from pwmstab.errors import OracleInvalidError, PwmStabError

from generate import Item

# Sweep grids: 64 angles and frequencies, 33 duties over 0.1..0.9.
#: Angles of the F-plot; the last one is pi, where F equals the PDB left side.
THETAS = tuple(np.linspace(-math.pi, math.pi, 65)[1:].tolist())
#: Nyquist frequencies as fractions of the switching frequency.
OMEGA_FRACTIONS = tuple(np.linspace(0.0, 1.0, 64).tolist())
#: Imposed duty grid of the S-plot and of the buck boundary sweeps.
DUTY_GRID = tuple(np.linspace(0.1, 0.9, 33).tolist())
#: Duties at which the harmonic-balance series is evaluated.
HB_DUTIES = (0.2, 0.35, 0.5, 0.65, 0.8)
NSB_THETAS = (math.pi / 3.0, 2.0 * math.pi / 3.0)
CRITICAL_LAMBDAS = (0.5, -0.5, cmath.exp(0.75j * math.pi))
FD_EPS = 1e-5
#: Cycles from the generated start to the attractor.  Stable items settle
#: well inside the period-1 tolerance in 96 cycles (rho ~ 0.82); unstable
#: ones grow well past it.  The transient is simulated once, untimed, in
#: ``prepare``; the timed ``steady_period`` classifies the 64-cycle tail
#: from there, which is the tail a 96-cycle transient in the call gives.
SIM_TRANSIENT = 96

# Acceptance-suite tolerances.
ORBIT_D_RTOL = 1e-8  # switching time, relative to T (test_sim_oracle)
ORBIT_X_RTOL = 1e-9  # end state, relative to 1 + |x0| (test_sim_oracle)
JACOBIAN_RTOL = 1e-6  # criterion 1
ANTISYMMETRY_RTOL = 1e-9  # criterion 4
EQUIVALENCE_RTOL = 1e-4  # criterion 5
FPLOT_RTOL = 1e-6  # criterion 8


@dataclass(frozen=True)
class Refused:
    """The package's documented answer: a typed :class:`PwmStabError`."""

    error: str


@dataclass(frozen=True)
class Crashed:
    """An exception outside the documented error hierarchy."""

    error: str


@dataclass
class Prepared:
    """An item built through ``config.parse_config``/``config.build``."""

    item: Item
    model: object
    ramp: object
    u: object
    solver: object
    reference: object = None  # sim-oracle: closed-form orbit data


@dataclass(frozen=True)
class SimReference:
    ss: object
    phi: np.ndarray
    report: object
    start: np.ndarray | None  # state after SIM_TRANSIENT cycles
    start_error: str = ""  # typed error that ended the transient instead


@dataclass(frozen=True)
class Verdict:
    """Oracle outcome of one pool item.

    ``status`` is ``ok``, ``refused`` (typed error, the package's stated
    answer), ``unchecked`` (the oracle itself could not decide) or
    ``failed``.  ``cls`` names the failed check; ``latch`` on a general
    model is the known solver defect (solved orbit rejected by the
    simulator's latching comparator).
    """

    status: str
    cls: str = ""
    detail: str = ""

    @property
    def known_defect(self) -> bool:
        return self.status == "failed" and self.cls == "latch"


def prepare(workload: str, items: list[Item]) -> list[Prepared]:
    """Build every item from its config text (plus sim-oracle references)."""
    pool = []
    for item in items:
        model, ramp, u, solver = config.build(config.parse_config(item.text))
        prep = Prepared(item, model, ramp, u, solver)
        if workload == "sim-oracle":
            prep.reference = _sim_reference(prep)
        pool.append(prep)
    return pool


def _sim_reference(p: Prepared):
    try:
        ss = steadystate.solve_periodic_orbit(
            p.model, p.ramp, p.u, p.solver.grid_points, p.solver.d_tol
        )
        jd = stability.jacobian(p.model, p.ramp, p.u, ss)
        report = stability.classify(jd, p.solver.class_tol)
    except PwmStabError as exc:
        return Refused(type(exc).__name__)
    x = ss.x0_start + np.asarray(p.item.start_offset)
    try:
        trajectory = sim.simulate(
            p.model, p.ramp, p.u, x, SIM_TRANSIENT, scan_points=p.solver.scan_points
        )
    except PwmStabError as exc:
        return SimReference(ss, jd.Phi, report, None, type(exc).__name__)
    return SimReference(ss, jd.Phi, report, trajectory.cycles[-1].x_end)


# --------------------------------------------------------------------------
# Runners: one item each, closed loop.


def _orbit(p: Prepared):
    return steadystate.solve_periodic_orbit(
        p.model, p.ramp, p.u, p.solver.grid_points, p.solver.d_tol
    )


def run_orbit_analysis(p: Prepared):
    m, r, u = p.model, p.ramp, p.u
    ss = _orbit(p)
    jd = stability.jacobian(m, r, u, ss)
    report = stability.classify(jd, p.solver.class_tol)
    pdb = stability.pdb_residual(m, r, u, ss)
    snb = stability.snb_residual(m, r, u, ss)
    return ss, jd, report, pdb, snb


def run_boundary_sweep(p: Prepared):
    m, r, u = p.model, p.ramp, p.u
    ss = _orbit(p)
    curves = (
        stability.f_plot(m, r, u, ss, THETAS),
        stability.nyquist(m, r, u, ss, [f * r.ws for f in OMEGA_FRACTIONS]),
        stability.s_plot(m, r, u, -1.0, DUTY_GRID),
    )
    residuals = (
        stability.pdb_residual(m, r, u, ss),
        tuple(stability.nsb_residual(m, r, u, ss, th) for th in NSB_THETAS),
        tuple(
            stability.general_critical_value(m, r, u, ss, lam)
            for lam in CRITICAL_LAMBDAS
        ),
    )
    closed_forms = None
    if p.item.is_buck:
        plant = buck.make_buck_plant(m, r)
        K = p.solver.harmonics
        gains = buck.harmonic_gains(plant, K)
        hb_d = [(1.0 - D) * r.T for D in HB_DUTIES]
        closed_forms = (
            tuple(buck.vs_critical_tem(plant, D) for D in DUTY_GRID),
            tuple(buck.vs_critical_lem(plant, 1.0 - D) for D in DUTY_GRID),
            tuple(buck.harmonic_balance(plant, d, K, m.edge, gains) for d in hb_d),
            tuple(buck.equivalence_residual(plant, d, K, gains) for d in hb_d),
            tuple(buck.taylor_critical_vs(plant, D) for D in DUTY_GRID),
        )
    return ss, curves, residuals, closed_forms


def run_sim_oracle(p: Prepared):
    ref = p.reference
    if isinstance(ref, Refused):
        return ref
    if ref.start is None:
        return Refused(ref.start_error)
    m, r, u = p.model, p.ramp, p.u
    period = sim.steady_period(
        m, r, u, ref.start, transient=0, scan_points=p.solver.scan_points
    )
    fd = sim.fd_jacobian(
        m, r, u, ref.ss.x0_start, eps=FD_EPS, scan_points=p.solver.scan_points
    )
    return period, fd


RUNNERS = {
    "orbit-analysis": run_orbit_analysis,
    "boundary-sweep": run_boundary_sweep,
    "sim-oracle": run_sim_oracle,
}

#: Errors that end an item with "no periodic orbit" (steadystate.refused_frac).
NO_ORBIT_ERRORS = ("NoSwitchingError", "DegenerateOrbitError")


def run_item(runner, p: Prepared):
    """Run one item; typed errors and crashes become answers."""
    try:
        return runner(p)
    except PwmStabError as exc:
        return Refused(type(exc).__name__)
    except Exception as exc:  # noqa: BLE001 - recorded as a failed item
        return Crashed(f"{type(exc).__name__}: {exc}")


# --------------------------------------------------------------------------
# Exact fingerprints: a repeated item must return a bit-identical answer.


def _canonical(obj):
    if isinstance(obj, np.ndarray):
        return ("array", obj.shape, tuple(obj.ravel().tolist()))
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            _canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        )
    if isinstance(obj, (tuple, list)):
        return tuple(_canonical(x) for x in obj)
    if isinstance(obj, (np.floating, np.integer, np.complexfloating)):
        return obj.item()
    return obj


def fingerprint(answer) -> str:
    return hashlib.sha256(repr(_canonical(answer)).encode()).hexdigest()


# --------------------------------------------------------------------------
# Oracle gate.


def _check_orbit(p: Prepared, ss) -> Verdict | None:
    """One simulated cycle from x0_start must reproduce d and return."""
    rec = sim.CycleSimulator(p.model, p.ramp, p.u, scan_points=p.solver.scan_points).cycle(
        ss.x0_start
    )
    x0 = ss.x0_start
    gap_x = float(np.linalg.norm(rec.x_end - x0)) / (1.0 + float(np.linalg.norm(x0)))
    if rec.d_event is None:
        detail = "simulator never switches"
    elif rec.d_event == 0.0:
        detail = "simulator switches at the clock edge"
    elif abs(rec.d_event - ss.d) > ORBIT_D_RTOL * p.ramp.T:
        detail = f"simulated d/T {rec.d_event / p.ramp.T:.9g} vs solved {ss.d / p.ramp.T:.9g}"
    elif gap_x > ORBIT_X_RTOL:
        detail = f"end state off by {gap_x:.2e}"
    else:
        return None
    return Verdict("failed", "orbit" if p.item.is_buck else "latch", detail)


def jacobian_gap(fd: np.ndarray, phi: np.ndarray) -> float:
    """Worst entrywise relative gap, with a floor for entries near zero.

    Criterion 1 divides by each entry; general models can have entries
    that vanish, so the divisor is floored at 1e-2 of the largest entry.
    """
    floor = 1e-2 * float(np.max(np.abs(phi)))
    return float(np.max(np.abs(fd - phi) / np.maximum(np.abs(phi), floor)))


def _check_jacobian(p: Prepared, x0, phi, fd=None) -> Verdict | None:
    """Closed-form Jacobian vs central differences of the simulated map.

    The first step is criterion 1's ``FD_EPS``.  On a strongly curved map
    its truncation error alone can exceed the tolerance, so a failing gap
    is re-measured once with a ten times smaller step; a wrong Jacobian
    fails at both steps.
    """
    gaps = []
    for eps in (FD_EPS, FD_EPS / 10):
        if fd is None or eps != FD_EPS:
            try:
                fd = sim.fd_jacobian(
                    p.model, p.ramp, p.u, x0, eps=eps, scan_points=p.solver.scan_points
                )
            except OracleInvalidError:
                return Verdict("unchecked", "jacobian", "finite-difference probe saturated")
        gaps.append(jacobian_gap(fd, phi))
        if gaps[-1] <= JACOBIAN_RTOL:
            return None
    return Verdict("failed", "jacobian", "entrywise gaps " + ", ".join(f"{g:.2e}" for g in gaps))


def _check_boundary(p: Prepared, answer) -> Verdict | None:
    ss, curves, residuals, closed_forms = answer
    hdot = p.ramp.slope
    f_pi = curves[0].samples[-1]
    pdb = residuals[0]
    if f_pi.singular or abs(f_pi.value - (pdb + hdot)) > FPLOT_RTOL * hdot:
        return Verdict("failed", "fplot", f"F(pi) {f_pi.value} vs PDB left side {pdb + hdot}")
    if closed_forms is None:
        return None
    tem, lem, _, eq, _ = closed_forms
    for D, a, b in zip(DUTY_GRID, tem, lem):
        if math.isinf(a) and math.isinf(b):
            continue
        if abs(a + b) > ANTISYMMETRY_RTOL * abs(b):
            return Verdict("failed", "antisymmetry", f"D={D}: TEM {a!r}, LEM {b!r}")
    plant = buck.make_buck_plant(p.model, p.ramp)
    for D, res in zip(HB_DUTIES, eq):
        rhs = buck.lem_boundary_coefficient(plant, (1.0 - D) * p.ramp.T)
        if res > EQUIVALENCE_RTOL * abs(rhs):
            return Verdict("failed", "equivalence", f"D={D}: residual {res:.2e} of {rhs:.3e}")
    return None


def _check_sim(p: Prepared, answer) -> Verdict | None:
    ref = p.reference
    period, fd = answer
    verdict = _check_jacobian(p, ref.ss.x0_start, ref.phi, fd)
    if verdict is not None:
        return verdict
    report = ref.report
    crit = report.critical_eigenvalue
    if report.spectral_radius < 1.0 - p.solver.class_tol:
        if period != 1:
            return Verdict("failed", "period", f"stable orbit, simulated period {period}")
    elif crit.real < -1.0 and abs(crit.imag) <= 1e-12:
        if period == 1:
            return Verdict("failed", "period", "period-doubled orbit simulated as period 1")
    else:
        return Verdict("unchecked", "period", f"critical eigenvalue {crit:.6g}")
    return None


def check(workload: str, p: Prepared, answer) -> Verdict:
    """Oracle verdict for one pool item's answer."""
    if isinstance(answer, Crashed):
        return Verdict("failed", "crash", answer.error)
    if isinstance(answer, Refused):
        if workload == "sim-oracle" and not isinstance(p.reference, Refused):
            return Verdict("failed", "sim-refused", answer.error)
        return Verdict("refused", answer.error)
    if workload == "sim-oracle":
        return (
            _check_orbit(p, p.reference.ss)
            or _check_sim(p, answer)
            or Verdict("ok")
        )
    ss = answer[0]
    verdict = _check_orbit(p, ss)
    if verdict is not None:
        return verdict
    if workload == "orbit-analysis":
        return _check_jacobian(p, ss.x0_start, answer[1].Phi) or Verdict("ok")
    return _check_boundary(p, answer) or Verdict("ok")
