"""Shared fixtures: the desk-scale buck operating points used across tests.

The converter is the acceptance preset (L = 20 mH, Cf = 47 uF, R = 22 ohm,
T = 400 us, proportional gain 8.4) with ramp 3.8..8.2 V.  The TEM point
runs at vr = 11.3 V; the LEM loop is only a negative-feedback loop on the
sign-mirrored branch, so its point runs at vr = -11.3 V with a negative
source voltage.  Both land at duty cycles inside (0.3, 0.7).
"""

import math

import numpy as np
import pytest

import pwmstab as p
from pwmstab import buck, numerics, steadystate

L, CF, R, GAIN = 20e-3, 47e-6, 22.0, 8.4
T = 400e-6
VL, VH = 3.8, 8.2
VR_TEM, VS_TEM = 11.3, 20.0
VR_LEM, VS_LEM = -11.3, -20.0


@pytest.fixture(scope="session")
def ramp():
    return p.RampSignal(VL, VH, T)


@pytest.fixture(scope="session")
def buck_tem():
    return p.preset_vmc_buck(L, CF, R, GAIN, p.ModulationEdge.TEM)


@pytest.fixture(scope="session")
def buck_lem():
    return p.preset_vmc_buck(L, CF, R, GAIN, p.ModulationEdge.LEM)


@pytest.fixture(scope="session")
def u_tem():
    return p.InputVector(VR_TEM, VS_TEM)


@pytest.fixture(scope="session")
def u_lem():
    return p.InputVector(VR_LEM, VS_LEM)


@pytest.fixture(scope="session")
def ss_tem(buck_tem, ramp, u_tem):
    return p.solve_periodic_orbit(buck_tem, ramp, u_tem)


@pytest.fixture(scope="session")
def ss_lem(buck_lem, ramp, u_lem):
    return p.solve_periodic_orbit(buck_lem, ramp, u_lem)


def mat_exp_integral(a, t):
    """Integral ``int_0^t e^{A s} ds`` via the augmented block exponential.

    Exponentiates ``[[A, I], [0, 0]] * t`` and reads the upper-right block,
    which remains correct when ``A`` is singular (unlike the closed form
    ``A^{-1}(e^{A t} - I)``).  A reference for the package's augmented
    stage exponentials.
    """
    arr = numerics.as_square_matrix(a, "A").astype(float, copy=False)
    if not math.isfinite(t) or t < 0.0:
        raise p.DomainError(f"t must be finite and >= 0, got {t}")
    n = arr.shape[0]
    if t == 0.0:
        return np.zeros((n, n))
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = arr
    block[:n, n:] = np.eye(n)
    return numerics.mat_exp(block, t)[:n, n:]


def switching_residual(model, ramp, u, d):
    """Compensator-output-minus-ramp mismatch ``y(d) - h(d)`` at an imposed
    switching time: the residual ``solve_periodic_orbit`` refines."""
    ss = p.orbit_at(model, ramp, u, d)
    return ss.y_switch - float(p.ramp_value(ramp, d))


def compensator_output(model, x, u):
    """Compensator output ``y = C x + D u`` (scalar)."""
    xv = np.asarray(x, dtype=float)
    if xv.shape != (model.n,):
        raise p.DimensionError(f"x must have shape ({model.n},), got {xv.shape}")
    return float(model.C @ xv + model.D @ u.as_array())


def transfer_eval(plant, s):
    """Source-to-compensator transfer function ``G(s) = C (sI - A)^{-1} B``
    of a buck plant, by one resolvent solve."""
    n = plant.A.shape[0]
    try:
        x = numerics.solve_linear(s * np.eye(n) - plant.A, plant.B.astype(complex))
    except p.SingularMatrixError as exc:
        raise p.ResolventPoleError(f"s = {s:.6g} is a pole of the plant") from exc
    return complex(plant.C @ x)


def spy_solve_kernels(monkeypatch):
    """Count the calls of numerics' two guarded solve kernels from now on.

    Returns ``{"solve_linear": 0, "solve_linear_stack": 0}``, kept up to
    date by wrappers set on :mod:`pwmstab.numerics` for the test's span.
    """
    counts = dict.fromkeys(("solve_linear", "solve_linear_stack"), 0)
    for name in counts:
        def spy(*args, _name=name, _kernel=getattr(numerics, name)):
            counts[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(numerics, name, spy)
    return counts


def taylor_pdb_residual(plant, D, vs, order=2):
    """Truncated TEM boundary residual of the Taylor expansion: the
    coefficient behind ``taylor_critical_vs`` times ``vs``, minus the ramp
    slope."""
    buck._check_duty(D)
    return buck._taylor_coefficient_matrix(plant, D, order) * vs - plant.ramp.slope


def find_fixed_point(model, ramp, u, x_guess, max_iter=2000):
    """Fixed-point iteration of the simulated stroboscopic map, to 1e-11.

    Converges only onto attracting orbits; an unstable orbit makes the
    iteration wander and raises :class:`NoConvergenceError`.
    """
    sim = p.CycleSimulator(model, ramp, u)
    x = np.asarray(x_guess, dtype=float)
    for _ in range(max_iter):
        fx = sim.map(x)
        if np.linalg.norm(fx - x) <= 1e-11 * (1.0 + np.linalg.norm(x)):
            return x
        x = fx
    raise p.NoConvergenceError(
        f"fixed-point iteration did not converge in {max_iter} cycles"
    )


def critical_vs(model, ramp, vr, vs0, tol=1e-13, max_iter=200):
    """Self-consistent critical source voltage for a fixed reference.

    Iterates vs -> vs_critical(duty(vs)) until stationary; the fixed point
    is the operating source voltage at which the orbit sits exactly on the
    period-doubling boundary.
    """
    plant = p.make_buck_plant(model, ramp)
    critical = (
        p.vs_critical_tem
        if model.edge is p.ModulationEdge.TEM
        else p.vs_critical_lem
    )
    vs = vs0
    for _ in range(max_iter):
        ss = p.solve_periodic_orbit(model, ramp, p.InputVector(vr, vs))
        vs_new = critical(plant, ss.duty)
        if abs(vs_new - vs) <= tol * abs(vs):
            return vs_new
        vs = vs_new
    raise AssertionError("critical-voltage iteration did not settle")


def slaved_reference_orbit(model, ramp, vs, d):
    """Orbit with v_r chosen so the switching condition holds at ``d``.

    Valid for models whose v_r column is zero (v_r enters only through the
    feedthrough row), so the state trajectory is v_r-free.
    """
    assert not model.B1[:, 0].any() and not model.B2[:, 0].any()
    assert model.D[0] != 0.0
    _, xd = steadystate.x0_of_d(model, ramp, p.InputVector(0.0, vs), d)
    vr = (p.ramp_value(ramp, d) - float(model.C @ xd) - model.D[1] * vs) / model.D[0]
    u = p.InputVector(vr, vs)
    return u, p.orbit_at(model, ramp, u, d)


# Synthetic two-state families used for the saddle-node and Neimark-Sacker
# boundary tests (frozen from a seeded search; the tests re-locate the
# crossings by bisection, so the exact constants only need to keep the
# crossing inside the scanned d-range).
SNB_MODEL = dict(
    A=[[-0.9444, 0.0], [0.0, -2.9137]],
    W=[1.6725, 1.3013],
    C=[-0.2026, -0.9110],
    vs=1.0,
)
NSB_MODEL = dict(
    w0=1.0263,
    zeta=0.4196,
    W=[1.7824, -0.1924],
    C=[-0.7879, -0.8863],
    vs=1.0,
)


def make_snb_model():
    a = SNB_MODEL["A"]
    w = SNB_MODEL["W"]
    return p.SwitchedLinearModel(
        A1=a, A2=a,
        B1=[[0.0, 0.0], [0.0, 0.0]],
        B2=[[0.0, w[0]], [0.0, w[1]]],
        C=SNB_MODEL["C"], D=[1.0, 0.0],
        edge=p.ModulationEdge.TEM,
    )


def make_nsb_model():
    w0, zeta = NSB_MODEL["w0"], NSB_MODEL["zeta"]
    a = [[-zeta * w0, w0], [-w0, -zeta * w0]]
    w = NSB_MODEL["W"]
    return p.SwitchedLinearModel(
        A1=a, A2=a,
        B1=[[0.0, 0.0], [0.0, 0.0]],
        B2=[[0.0, w[0]], [0.0, w[1]]],
        C=NSB_MODEL["C"], D=[1.0, 0.0],
        edge=p.ModulationEdge.TEM,
    )


UNIT_RAMP = p.RampSignal(0.0, 1.0, 1.0)


def _random_general_model(rng, n):
    # Random TEM model (A1 != A2) for UNIT_RAMP: each stage matrix is a
    # Gaussian matrix shifted left just past its rightmost eigenvalue.
    def hurwitz():
        a = rng.normal(size=(n, n))
        return a - (np.linalg.eigvals(a).real.max() + rng.uniform(0.3, 1.5)) * np.eye(n)

    model = p.SwitchedLinearModel(
        A1=hurwitz(), A2=hurwitz(),
        B1=rng.normal(size=(n, 2)), B2=rng.normal(size=(n, 2)),
        C=rng.normal(size=n), D=[rng.uniform(0.5, 1.5), rng.normal(0.0, 0.3)],
        edge=p.ModulationEdge.TEM,
    )
    return model, p.InputVector(rng.uniform(0.2, 0.8), rng.uniform(0.5, 1.5))


@pytest.fixture(scope="session")
def model_cases(buck_tem, buck_lem, ramp, u_tem, u_lem):
    """(model, ramp, u) for the buck preset on both edges and for random
    general models with N = 2..5 (Hurwitz stages, A1 != A2, unit ramp)."""
    rng = np.random.default_rng(41)
    cases = [(buck_tem, ramp, u_tem), (buck_lem, ramp, u_lem)]
    for n in (2, 3, 4, 5):
        model, u = _random_general_model(rng, n)
        cases.append((model, UNIT_RAMP, u))
    return cases
