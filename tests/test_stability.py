"""Tests of the Jacobian decomposition, classification, and boundary curves."""

import math

import numpy as np
import pytest

import pwmstab as p
from pwmstab import stability
from pwmstab.errors import DomainError, GrazingError, ResolventPoleError
from conftest import UNIT_RAMP, imposed_orbit, slaved_reference_orbit


def _smooth_model():
    # Identical stages: the switching correction vanishes entirely.
    a = [[-1.0, 0.3], [0.0, -2.0]]
    b = [[0.0, 0.4], [0.0, 0.6]]
    return p.SwitchedLinearModel(A1=a, A2=a, B1=b, B2=b, C=[1.0, 0.2],
                                 D=[1.0, 0.0], edge=p.ModulationEdge.TEM)


class TestJacobian:
    def test_no_jump_gives_open_loop(self):
        from pwmstab import numerics
        m = _smooth_model()
        u = p.InputVector(0.2, 0.5)
        ss = p.solve_periodic_orbit(m, UNIT_RAMP, u)
        jd = p.jacobian(m, UNIT_RAMP, u, ss)
        assert np.allclose(jd.Gamma, 0.0, atol=1e-14)
        eat = numerics.mat_exp(np.asarray(m.A1), 1.0)
        assert np.allclose(jd.Phi, eat, rtol=1e-12)
        assert np.allclose(jd.Phi0, eat, rtol=1e-12)

    def test_decomposition_identity(self, buck_tem, ramp, u_tem, ss_tem):
        jd = p.jacobian(buck_tem, ramp, u_tem, ss_tem)
        recomposed = jd.Phi0 - np.outer(jd.Gamma, jd.Psi)
        scale = np.max(np.abs(jd.Phi))
        assert np.max(np.abs(jd.Phi - recomposed)) <= 1e-10 * scale

    def test_matches_simulated_map(self, buck_tem, ramp, u_tem, ss_tem):
        jd = p.jacobian(buck_tem, ramp, u_tem, ss_tem)
        fd = p.fd_jacobian(buck_tem, ramp, u_tem, ss_tem.x0_start, eps=1e-5)
        assert np.max(np.abs(fd - jd.Phi) / np.abs(jd.Phi)) <= 1e-6

    def test_ramp_slope_scales_only_psi(self, buck_tem, ramp, u_tem, ss_tem):
        jd1 = p.jacobian(buck_tem, ramp, u_tem, ss_tem)
        steeper = p.RampSignal(ramp.Vl, ramp.Vl + 2 * ramp.Vm, ramp.T)
        jd2 = p.jacobian(buck_tem, steeper, u_tem, ss_tem)
        assert np.allclose(jd1.Phi0, jd2.Phi0)
        assert np.allclose(jd1.Gamma, jd2.Gamma)
        assert not np.allclose(jd1.Psi, jd2.Psi)

    def test_grazing_raises(self):
        # Constant compensator output equal to the ramp slope scale: build a
        # model whose C xdot(d-) equals hdot exactly.
        a = [[0.0]]
        m = p.SwitchedLinearModel(
            A1=a, A2=[[-1.0]], B1=[[1.0, 0.0]], B2=[[0.0, 1.0]],
            C=[1.0], D=[0.0, 0.0], edge=p.ModulationEdge.TEM,
        )
        # Stage 1: xdot = vr, so C xdot(d-) = vr; pick vr = slope = 1.
        u = p.InputVector(1.0, 0.3)
        ss = imposed_orbit(m, UNIT_RAMP, u, 0.4)
        with pytest.raises(GrazingError):
            p.jacobian(m, UNIT_RAMP, u, ss)


class TestClassify:
    def _jd(self, phi):
        n = phi.shape[0]
        return stability.JacobianDecomposition(
            Phi=phi, Phi0=phi, Gamma=np.zeros(n), Psi=np.zeros(n)
        )

    def test_stable(self):
        rep = p.classify(self._jd(0.5 * np.eye(2)))
        assert rep.classification is p.StabilityClass.STABLE
        assert rep.spectral_radius == pytest.approx(0.5)

    def test_pdb(self):
        rep = p.classify(self._jd(np.diag([-1.0, 0.3])))
        assert rep.classification is p.StabilityClass.PDB
        assert rep.critical_eigenvalue == pytest.approx(-1.0)

    def test_snb(self):
        rep = p.classify(self._jd(np.diag([1.0, 0.3])))
        assert rep.classification is p.StabilityClass.SNB

    def test_nsb(self):
        th = math.pi / 3
        rot = np.array([[math.cos(th), -math.sin(th)],
                        [math.sin(th), math.cos(th)]])
        rep = p.classify(self._jd(rot))
        assert rep.classification is p.StabilityClass.NSB
        assert abs(rep.critical_eigenvalue) == pytest.approx(1.0)

    def test_unstable_mixed(self):
        rep = p.classify(self._jd(np.diag([1.5, 0.1])))
        assert rep.classification is p.StabilityClass.UNSTABLE_MIXED

    def test_eigenvalues_match_decomposed_form(self, buck_tem, ramp, u_tem, ss_tem):
        jd = p.jacobian(buck_tem, ramp, u_tem, ss_tem)
        from pwmstab import numerics
        direct = numerics.eigenvalues(jd.Phi)
        recomposed = numerics.eigenvalues(jd.Phi0 - np.outer(jd.Gamma, jd.Psi))
        for lam in direct:
            gaps = np.abs(recomposed - lam)
            assert gaps.min() <= 1e-9 * (1 + abs(lam))


class TestGeneralCriticalValue:
    def test_no_jump_is_lambda_free(self):
        m = _smooth_model()
        u = p.InputVector(0.2, 0.5)
        ss = p.solve_periodic_orbit(m, UNIT_RAMP, u)
        der = p.orbit_derivatives(m, u, ss)
        want = float(np.asarray(m.C) @ der.xdot_minus)
        for lam in (2.0, -3.0 + 1j, 0.9j):
            got = p.general_critical_value(m, UNIT_RAMP, u, ss, lam)
            assert got == pytest.approx(want, rel=1e-12)

    def test_equals_slope_at_eigenvalue(self, buck_tem, ramp, u_tem, ss_tem):
        jd = p.jacobian(buck_tem, ramp, u_tem, ss_tem)
        rep = p.classify(jd)
        hdot = p.ramp_slope(ramp)
        for lam in rep.eigenvalues:
            val = p.general_critical_value(buck_tem, ramp, u_tem, ss_tem, lam)
            assert abs(val - hdot) <= 1e-6 * hdot

    def test_approaching_eigenvalue(self, buck_tem, ramp, u_tem, ss_tem):
        rep = p.classify(p.jacobian(buck_tem, ramp, u_tem, ss_tem))
        lam = rep.critical_eigenvalue
        hdot = p.ramp_slope(ramp)
        far = abs(p.general_critical_value(buck_tem, ramp, u_tem, ss_tem, lam * 1.1) - hdot)
        near = abs(p.general_critical_value(buck_tem, ramp, u_tem, ss_tem, lam * 1.0001) - hdot)
        assert near < far

    def test_pdb_sign_identity(self, buck_tem, ramp, u_tem, ss_tem):
        # S(-1) - hdot must equal the dedicated residual exactly
        # ((-I - Phi0)^{-1} = -(I + Phi0)^{-1}).
        s = p.general_critical_value(buck_tem, ramp, u_tem, ss_tem, -1.0)
        res = p.pdb_residual(buck_tem, ramp, u_tem, ss_tem)
        assert s.imag == pytest.approx(0.0, abs=1e-9)
        assert s.real - p.ramp_slope(ramp) == pytest.approx(res, rel=1e-12)

    def test_open_loop_pole_raises(self, buck_tem, ramp, u_tem, ss_tem):
        jd = p.jacobian(buck_tem, ramp, u_tem, ss_tem)
        mu = np.linalg.eigvals(jd.Phi0)[0]
        with pytest.raises(ResolventPoleError):
            p.general_critical_value(buck_tem, ramp, u_tem, ss_tem, mu)

    def test_determinant_identity(self, buck_tem, ramp, u_tem, ss_tem):
        # det(lam I - Phi) = det(lam I - Phi0) (1 + Psi (lam I - Phi0)^-1 Gamma)
        jd = p.jacobian(buck_tem, ramp, u_tem, ss_tem)
        rng = np.random.default_rng(5)
        n = jd.Phi.shape[0]
        for _ in range(8):
            lam = complex(rng.normal(), rng.normal()) * 2.0
            lhs = np.linalg.det(lam * np.eye(n) - jd.Phi)
            rg = np.linalg.solve(lam * np.eye(n) - jd.Phi0, jd.Gamma.astype(complex))
            rhs = np.linalg.det(lam * np.eye(n) - jd.Phi0) * (1.0 + jd.Psi @ rg)
            assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1e-30)


class TestScalarResiduals:
    def test_residual_sign_flip_over_vs(self, buck_tem, ramp):
        vals = []
        for vs in (20.0, 28.0):
            u = p.InputVector(11.3, vs)
            ss = p.solve_periodic_orbit(buck_tem, ramp, u)
            vals.append(p.pdb_residual(buck_tem, ramp, u, ss))
        assert vals[0] * vals[1] < 0

    def test_no_jump_residuals(self):
        m = _smooth_model()
        u = p.InputVector(0.2, 0.5)
        ss = p.solve_periodic_orbit(m, UNIT_RAMP, u)
        der = p.orbit_derivatives(m, u, ss)
        base = float(np.asarray(m.C) @ der.xdot_minus) - 1.0
        assert p.pdb_residual(m, UNIT_RAMP, u, ss) == pytest.approx(base, rel=1e-12)
        assert p.snb_residual(m, UNIT_RAMP, u, ss) == pytest.approx(base, rel=1e-12)
        got = p.nsb_residual(m, UNIT_RAMP, u, ss, 1.0)
        assert got == pytest.approx(base, rel=1e-12)

    def test_nsb_conjugate_symmetry(self, buck_tem, ramp, u_tem, ss_tem):
        for theta in (0.4, 1.3, 2.8):
            plus = p.nsb_residual(buck_tem, ramp, u_tem, ss_tem, theta)
            minus = p.nsb_residual(buck_tem, ramp, u_tem, ss_tem, -theta)
            assert minus == pytest.approx(plus.conjugate(), rel=1e-12)

    def test_nsb_excluded_angles(self, buck_tem, ramp, u_tem, ss_tem):
        for theta in (0.0, math.pi, -math.pi, 1e-10):
            with pytest.raises(DomainError):
                p.nsb_residual(buck_tem, ramp, u_tem, ss_tem, theta)

    def test_snb_residual_sign_flip_along_sweep(self):
        # The residual changes sign across the fold located in the
        # acceptance sweep (d* ~ 0.27 for this family).
        from conftest import make_snb_model
        m = make_snb_model()
        vals = []
        for d in (0.24, 0.32):
            u, ss = slaved_reference_orbit(m, UNIT_RAMP, 1.0, d)
            vals.append(p.snb_residual(m, UNIT_RAMP, u, ss))
        assert vals[0] * vals[1] < 0

    def test_snb_residual_is_dddd_of_switching_residual(self):
        # Independent oracle: the saddle-node residual equals the derivative
        # of the switching residual with respect to the imposed instant.
        from conftest import make_snb_model
        m = make_snb_model()
        vs = 1.0
        for d in (0.3, 0.55, 0.8):
            u, ss = slaved_reference_orbit(m, UNIT_RAMP, vs, d)
            res = p.snb_residual(m, UNIT_RAMP, u, ss)
            h = 1e-7
            fd = (
                p.switching_residual(m, UNIT_RAMP, u, d + h)
                - p.switching_residual(m, UNIT_RAMP, u, d - h)
            ) / (2 * h)
            assert res == pytest.approx(fd, rel=1e-6)


class TestCurves:
    def test_splot_matches_buck_closed_form(self, buck_lem, ramp, u_lem):
        # The curve at lambda = -1 must equal coefficient(D) * vs + 0 terms:
        # cross-checks the resolvent path against the closed matrix form.
        plant = p.make_buck_plant(buck_lem, ramp)
        duties = np.linspace(0.2, 0.8, 7)
        curve = p.s_plot(buck_lem, ramp, u_lem, -1.0, duties)
        for sample in curve.samples:
            assert not sample.singular
            coef = p.lem_boundary_coefficient(plant, (1.0 - sample.parameter) * ramp.T)
            assert sample.value.imag == pytest.approx(0.0, abs=1e-9)
            assert sample.value.real == pytest.approx(coef * u_lem.vs, rel=1e-8)

    def test_splot_crossing_matches_critical_sweep(self, buck_tem, ramp):
        # Where S(-1, D) crosses hdot, the closed-form critical voltage
        # crosses the operating source voltage.
        u = p.InputVector(11.3, 22.0)
        plant = p.make_buck_plant(buck_tem, ramp)
        duties = np.linspace(0.05, 0.95, 181)
        curve = p.s_plot(buck_tem, ramp, u, -1.0, duties)
        hdot = p.ramp_slope(ramp)
        s_gap = np.array([s.value.real - hdot for s in curve.samples])
        vs_gap = np.array(
            [p.vs_critical_tem(plant, D) - u.vs for D in duties]
        )
        s_cross = set(np.where(s_gap[:-1] * s_gap[1:] < 0)[0])
        vs_cross = set(np.where(vs_gap[:-1] * vs_gap[1:] < 0)[0])
        assert s_cross and s_cross == vs_cross

    def test_splot_zero_input_constant(self):
        a = [[-1.0, 0.0], [0.0, -2.0]]
        m = p.SwitchedLinearModel(
            A1=a, A2=a, B1=np.zeros((2, 2)), B2=np.zeros((2, 2)),
            C=[1.0, 1.0], D=[0.0, 0.0], edge=p.ModulationEdge.TEM,
        )
        curve = p.s_plot(m, UNIT_RAMP, p.InputVector(0, 0), -1.0,
                         np.linspace(0.1, 0.9, 9))
        vals = [s.value for s in curve.samples]
        assert all(v == pytest.approx(0.0, abs=1e-14) for v in vals)

    def test_splot_marks_open_loop_pole(self, buck_tem, ramp, u_tem):
        mu = complex(np.linalg.eigvals(
            p.jacobian(buck_tem, ramp, u_tem,
                       p.solve_periodic_orbit(buck_tem, ramp, u_tem)).Phi0
        )[0])
        curve = p.s_plot(buck_tem, ramp, u_tem, mu, np.linspace(0.2, 0.8, 5))
        assert all(s.singular for s in curve.samples)
        assert all(s.value is None for s in curve.samples)

    def test_splot_matches_per_duty_evaluation(self, model_cases):
        # Reference: the per-duty loop (scalar orbit, linearization and
        # resolvent at each duty), to 1e-12; no duty here is singular.
        duties = np.linspace(0.03, 0.97, 17)
        for model, rmp, u in model_cases:
            for lam in (-1.0, 1.0, np.exp(1.1j)):
                curve = p.s_plot(model, rmp, u, lam, duties)
                for duty, sample in zip(duties, curve.samples):
                    d = duty * rmp.T if model.edge is p.ModulationEdge.TEM else (1 - duty) * rmp.T
                    _, xd = p.x0_of_d(model, rmp, u, d)
                    lin = stability._linearize_at(model, rmp, u, d, xd)
                    ref = stability._critical_value(lin, lam)
                    assert not sample.singular
                    assert abs(sample.value - ref) <= 1e-12 * max(abs(ref), 1.0)

    def test_splot_singular_flags_match_per_duty(self, buck_tem, ramp, u_tem, ss_tem):
        # Pole duties (open-loop eigenvalue) and degenerate duties (pure
        # integrator) are singular in both the batched and the scalar path.
        mu = complex(np.linalg.eigvals(p.jacobian(buck_tem, ramp, u_tem, ss_tem).Phi0)[0])
        integrator = p.SwitchedLinearModel(
            A1=np.zeros((2, 2)), A2=np.zeros((2, 2)),
            B1=[[0.0, 1.0], [0.0, 0.0]], B2=np.zeros((2, 2)),
            C=[1.0, 0.0], D=[0.0, 0.0], edge=p.ModulationEdge.TEM,
        )
        duties = np.linspace(0.2, 0.8, 5)
        for model, rmp, u, lam in (
            (buck_tem, ramp, u_tem, mu),
            (integrator, UNIT_RAMP, p.InputVector(0.0, 1.0), -1.0),
        ):
            curve = p.s_plot(model, rmp, u, lam, duties)
            for duty, sample in zip(duties, curve.samples):
                try:
                    _, xd = p.x0_of_d(model, rmp, u, duty * rmp.T)
                    stability._critical_value(
                        stability._linearize_at(model, rmp, u, duty * rmp.T, xd), lam
                    )
                    scalar_singular = False
                except (p.DegenerateOrbitError, ResolventPoleError):
                    scalar_singular = True
                assert sample.singular and scalar_singular
                assert sample.value is None

    def test_splot_rejects_duty_outside_unit_interval(self, buck_tem, ramp, u_tem):
        for bad in (0.0, 1.0, 1.2):
            with pytest.raises(DomainError):
                p.s_plot(buck_tem, ramp, u_tem, -1.0, [0.5, bad])

    def test_fplot_endpoints(self, buck_tem, ramp, u_tem, ss_tem):
        curve = p.f_plot(buck_tem, ramp, u_tem, ss_tem, [math.pi, 0.0, 1.1, -1.1])
        hdot = p.ramp_slope(ramp)
        f_pi, f_0, f_t, f_mt = [s.value for s in curve.samples]
        assert f_pi.real - hdot == pytest.approx(
            p.pdb_residual(buck_tem, ramp, u_tem, ss_tem), rel=1e-10
        )
        assert f_0.real - hdot == pytest.approx(
            p.snb_residual(buck_tem, ramp, u_tem, ss_tem), rel=1e-10
        )
        assert f_mt == pytest.approx(f_t.conjugate(), rel=1e-12)

    def test_nyquist_zero_when_no_jump(self):
        m = _smooth_model()
        u = p.InputVector(0.2, 0.5)
        ss = p.solve_periodic_orbit(m, UNIT_RAMP, u)
        curve = p.nyquist(m, UNIT_RAMP, u, ss, np.linspace(0, 2 * math.pi, 16))
        assert all(abs(s.value) <= 1e-14 for s in curve.samples)

    def test_nyquist_real_at_dc(self, buck_tem, ramp, u_tem, ss_tem):
        curve = p.nyquist(buck_tem, ramp, u_tem, ss_tem, [0.0])
        assert curve.samples[0].value.imag == pytest.approx(0.0, abs=1e-12)

    def test_fplot_nyquist_loop_identity(self, buck_tem, ramp, u_tem, ss_tem):
        # F(theta) - hdot == (C xdot(d-) - hdot) * (1 + N(e^{j theta})):
        # the two plots restate the same condition.
        der = p.orbit_derivatives(buck_tem, u_tem, ss_tem)
        hdot = p.ramp_slope(ramp)
        denom = float(buck_tem.C @ der.xdot_minus) - hdot
        thetas = [0.7, 1.9, 2.9]
        fcurve = p.f_plot(buck_tem, ramp, u_tem, ss_tem, thetas)
        ncurve = p.nyquist(
            buck_tem, ramp, u_tem, ss_tem, [t / ramp.T for t in thetas]
        )
        for fs_, ns_ in zip(fcurve.samples, ncurve.samples):
            lhs = fs_.value - hdot
            rhs = denom * (1.0 + ns_.value)
            assert lhs == pytest.approx(rhs, rel=1e-9)
