"""Tests of the Jacobian decomposition, classification, and boundary curves."""

import math

import numpy as np
import pytest

import pwmstab as p
from pwmstab import numerics, stability, steadystate
from pwmstab.errors import (
    DimensionError,
    DomainError,
    GrazingError,
    ResolventPoleError,
    SingularMatrixError,
)
from pwmstab.model import switch_time_of_duty
from conftest import (
    UNIT_RAMP,
    slaved_reference_orbit,
    spy_solve_kernels,
    switching_residual,
)


def _smooth_model():
    # Identical stages: the switching correction vanishes entirely.
    a = [[-1.0, 0.3], [0.0, -2.0]]
    b = [[0.0, 0.4], [0.0, 0.6]]
    return p.SwitchedLinearModel(A1=a, A2=a, B1=b, B2=b, C=[1.0, 0.2],
                                 D=[1.0, 0.0], edge=p.ModulationEdge.TEM)


def _reference(model, ramp, u, d, x0_switch):
    # Linearization at d from fresh exponentials and the orbit derivatives
    # written out: (e^{A1 d}, Phi0, Gamma, xdot(d-) - xdot(d+), C xdot(d-)).
    uv = u.as_array()
    m1 = numerics.mat_exp(model.A1, d)
    m2 = numerics.mat_exp(model.A2, ramp.T - d)
    xdot_minus = model.A1 @ x0_switch + model.B1 @ uv
    jump = xdot_minus - (model.A2 @ x0_switch + model.B2 @ uv)
    return m1, m2 @ m1, m2 @ jump, jump, float(model.C @ xdot_minus)


def _reference_value(model, ramp, u, d, x0_switch, lam):
    # C xdot(d-) + C e^{A1 d} (lam I - Phi0)^{-1} Gamma by one scalar solve.
    m1, phi0, gamma, _, c_xdot_minus = _reference(model, ramp, u, d, x0_switch)
    rg = numerics.solve_linear(lam * np.eye(model.n) - phi0, gamma.astype(complex))
    return c_xdot_minus + model.C @ m1 @ rg


def _close(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    return np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestOrbitPoint:
    """Every consumer reads Phi0, Gamma, C e^{A1 d} and C xdot(d-) from the
    solved SteadyState; each must match fresh numerics.mat_exp factors."""

    def test_consumers_match_fresh_exponentials(self, model_cases):
        thetas = np.linspace(-math.pi, math.pi, 17)[1:]
        for model, rmp, u in model_cases:
            ss = p.solve_periodic_orbit(model, rmp, u)
            m1, phi0, gamma, jump, c_xdot_minus = _reference(
                model, rmp, u, ss.d, ss.x0_switch
            )
            m2 = numerics.mat_exp(model.A2, rmp.T - ss.d)
            hdot = rmp.slope
            denom = c_xdot_minus - hdot
            jd = p.jacobian(model, rmp, u, ss)
            assert _close(jd.Phi, m2 @ (np.eye(model.n) - np.outer(jump, model.C) / denom) @ m1)
            assert _close(jd.Phi0, phi0) and _close(jd.Gamma, gamma)
            assert _close(jd.Psi, model.C @ m1 / denom)

            def ref(lam):
                return _reference_value(model, rmp, u, ss.d, ss.x0_switch, lam)

            assert _close(p.pdb_residual(model, rmp, u, ss) + hdot, ref(-1.0))
            assert _close(p.snb_residual(model, rmp, u, ss) + hdot, ref(1.0))
            assert _close(p.nsb_residual(model, rmp, u, ss, 0.9) + hdot, ref(np.exp(0.9j)))
            for lam in (0.3 - 0.7j, -2.0):
                assert _close(p.general_critical_value(model, rmp, u, ss, lam), ref(lam))
            want_f = np.array([ref(np.exp(1j * t)) for t in thetas])
            f = p.f_plot(model, rmp, u, ss, thetas)
            n = p.nyquist(model, rmp, u, ss, thetas / rmp.T)
            for got, want in ((f, want_f), (n, (want_f - c_xdot_minus) / denom)):
                assert not any(s.singular for s in got.samples)
                for sample, w in zip(got.samples, want):
                    assert abs(sample.value - w) <= 1e-12 * abs(w)

    def test_orbit_at_matches_solved_orbit(self, model_cases):
        for model, rmp, u in model_cases:
            ss = p.solve_periodic_orbit(model, rmp, u)
            again = p.orbit_at(model, rmp, u, ss.d)
            for name in ("x0_start", "x0_switch", "phi0", "gamma", "cm1", "c_xdot_minus"):
                assert np.array_equal(getattr(again, name), getattr(ss, name))
            assert (again.duty, again.y_switch) == (ss.duty, ss.y_switch)

    def test_jacobian_reads_the_orbit_fields(self, buck_tem, ramp, u_tem, ss_tem):
        # Phi0 and Gamma are the orbit point's own arrays, not recomputed.
        jd = p.jacobian(buck_tem, ramp, u_tem, ss_tem)
        assert jd.Phi0 is ss_tem.phi0 and jd.Gamma is ss_tem.gamma

    def test_orbit_without_linearization_rejected(self, buck_tem, ramp, u_tem, ss_tem):
        bare = p.SteadyState(
            d=ss_tem.d, duty=ss_tem.duty, x0_start=ss_tem.x0_start,
            x0_switch=ss_tem.x0_switch, y_switch=ss_tem.y_switch,
        )
        with pytest.raises(DomainError, match="no linearization"):
            p.jacobian(buck_tem, ramp, u_tem, bare)

    def test_curve_poles_match_scalar_solve(self):
        # Lossless stages: the open-loop map rotates by w T, so Phi0 has
        # eigenvalues e^{+-j w T} on the unit circle.  F-plot and Nyquist
        # samples there are singular exactly where a scalar solve_linear
        # of (e^{j theta} I - Phi0) Gamma raises.
        w = 1.3
        a = [[0.0, w], [-w, 0.0]]
        m = p.SwitchedLinearModel(
            A1=a, A2=a, B1=[[0.0, 1.0], [0.0, 0.0]], B2=np.zeros((2, 2)),
            C=[1.0, 0.5], D=[1.0, 0.0], edge=p.ModulationEdge.TEM,
        )
        u = p.InputVector(0.3, 1.0)
        ss = p.orbit_at(m, UNIT_RAMP, u, 0.4)
        thetas = np.angle(np.linalg.eigvals(ss.phi0))
        thetas = np.concatenate([thetas, [0.5, -2.0]])
        flags = []
        for t in thetas:
            try:
                _reference_value(m, UNIT_RAMP, u, ss.d, ss.x0_switch, np.exp(1j * t))
                flags.append(False)
            except SingularMatrixError:
                flags.append(True)
        assert flags == [True, True, False, False]
        for curve in (
            p.f_plot(m, UNIT_RAMP, u, ss, thetas),
            p.nyquist(m, UNIT_RAMP, u, ss, thetas / UNIT_RAMP.T),
        ):
            assert [s.singular for s in curve.samples] == flags
            assert all((s.value is None) == s.singular for s in curve.samples)


class TestJacobian:
    def test_no_jump_gives_open_loop(self):
        m = _smooth_model()
        u = p.InputVector(0.2, 0.5)
        ss = p.solve_periodic_orbit(m, UNIT_RAMP, u)
        jd = p.jacobian(m, UNIT_RAMP, u, ss)
        assert np.allclose(jd.Gamma, 0.0, atol=1e-14)
        eat = numerics.mat_exp(np.asarray(m.A1), 1.0)
        assert np.allclose(jd.Phi, eat, rtol=1e-12)
        assert np.allclose(jd.Phi0, eat, rtol=1e-12)

    def test_decomposition_identity(self, model_cases):
        # Phi is built as Phi0 - Gamma Psi, so the recomposition is exact;
        # the saltation product of TestOrbitPoint is the independent check.
        for model, rmp, u in model_cases:
            jd = p.jacobian(model, rmp, u, p.solve_periodic_orbit(model, rmp, u))
            assert np.array_equal(jd.Phi, jd.Phi0 - np.outer(jd.Gamma, jd.Psi))

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
        ss = p.orbit_at(m, UNIT_RAMP, u, 0.4)
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

    @pytest.mark.parametrize("class_tol", [0.0, math.inf, math.nan, "a", 1j, None, True])
    def test_class_tol_must_be_positive_and_finite(self, class_tol):
        # inf would label every orbit PDB, NaN every orbit Unstable-mixed.
        with pytest.raises(DomainError, match="class_tol must be positive and finite"):
            p.classify(self._jd(0.5 * np.eye(2)), class_tol)

    def test_eigenvalues_match_decomposed_form(self, buck_tem, ramp, u_tem, ss_tem):
        jd = p.jacobian(buck_tem, ramp, u_tem, ss_tem)
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
        want = float(ss.c_xdot_minus)
        for lam in (2.0, -3.0 + 1j, 0.9j):
            got = p.general_critical_value(m, UNIT_RAMP, u, ss, lam)
            assert got == pytest.approx(want, rel=1e-12)

    def test_equals_slope_at_eigenvalue(self, buck_tem, ramp, u_tem, ss_tem):
        jd = p.jacobian(buck_tem, ramp, u_tem, ss_tem)
        rep = p.classify(jd)
        hdot = ramp.slope
        for lam in rep.eigenvalues:
            val = p.general_critical_value(buck_tem, ramp, u_tem, ss_tem, lam)
            assert abs(val - hdot) <= 1e-6 * hdot

    def test_approaching_eigenvalue(self, buck_tem, ramp, u_tem, ss_tem):
        rep = p.classify(p.jacobian(buck_tem, ramp, u_tem, ss_tem))
        lam = rep.critical_eigenvalue
        hdot = ramp.slope
        far = abs(p.general_critical_value(buck_tem, ramp, u_tem, ss_tem, lam * 1.1) - hdot)
        near = abs(p.general_critical_value(buck_tem, ramp, u_tem, ss_tem, lam * 1.0001) - hdot)
        assert near < far

    def test_pdb_sign_identity(self, buck_tem, ramp, u_tem, ss_tem):
        # S(-1) - hdot must equal the dedicated residual exactly
        # ((-I - Phi0)^{-1} = -(I + Phi0)^{-1}).
        s = p.general_critical_value(buck_tem, ramp, u_tem, ss_tem, -1.0)
        res = p.pdb_residual(buck_tem, ramp, u_tem, ss_tem)
        assert s.imag == pytest.approx(0.0, abs=1e-9)
        assert s.real - ramp.slope == pytest.approx(res, rel=1e-12)

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
        base = float(ss.c_xdot_minus) - 1.0
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
                switching_residual(m, UNIT_RAMP, u, d + h)
                - switching_residual(m, UNIT_RAMP, u, d - h)
            ) / (2 * h)
            assert res == pytest.approx(fd, rel=1e-6)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFiniteParameters:
    # Rejected as DomainError before any arithmetic that would warn first.
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_each_entry_point(self, buck_tem, ramp, u_tem, ss_tem, bad):
        m, u, ss = buck_tem, u_tem, ss_tem
        calls = [
            lambda: p.f_plot(m, ramp, u, ss, [0.5, bad]),
            lambda: p.nyquist(m, ramp, u, ss, [0.0, bad]),
            lambda: p.nsb_residual(m, ramp, u, ss, bad),
            lambda: p.s_plot(m, ramp, u, bad, [0.3, 0.6]),
            lambda: p.s_plot(m, ramp, u, complex(0.5, bad), [0.3, 0.6]),
            lambda: p.general_critical_value(m, ramp, u, ss, bad),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="must be finite"):
                call()


class TestParameterShapes:
    # lambda and theta are scalars and sweep samples 1-D; any other shape
    # raises DimensionError, never a silently paired or untyped answer.
    PAIR = np.array([0.5, 0.3])

    @pytest.mark.parametrize("call", [
        lambda m, r, u, ss: p.general_critical_value(m, r, u, ss, TestParameterShapes.PAIR),
        lambda m, r, u, ss: p.s_plot(m, r, u, [-1.0, 1.0], [0.3, 0.5]),
        lambda m, r, u, ss: p.s_plot(m, r, u, [-1.0, 1.0], [0.3, 0.5, 0.7]),
        lambda m, r, u, ss: p.s_plot(m, r, u, -1.0, 0.5),
        lambda m, r, u, ss: p.s_plot(m, r, u, -1.0, [[0.3, 0.5]]),
        lambda m, r, u, ss: p.nsb_residual(m, r, u, ss, TestParameterShapes.PAIR),
        lambda m, r, u, ss: p.f_plot(m, r, u, ss, 0.5),
        lambda m, r, u, ss: p.f_plot(m, r, u, ss, [[0.5, 1.0]]),
        lambda m, r, u, ss: p.nyquist(m, r, u, ss, 0.5),
        lambda m, r, u, ss: p.nyquist(m, r, u, ss, [[0.5, 1.0]]),
    ], ids=[
        "critical_value_lambda_array", "s_plot_lambda_per_duty",
        "s_plot_lambda_length_mismatch", "s_plot_scalar_duty", "s_plot_2d_duty",
        "nsb_theta_array", "f_plot_scalar", "f_plot_2d", "nyquist_scalar",
        "nyquist_2d",
    ])
    def test_wrong_shape_raises_dimension_error(self, buck_tem, ramp, u_tem, ss_tem, call):
        with pytest.raises(DimensionError):
            call(buck_tem, ramp, u_tem, ss_tem)

    # theta, omega and duties must be real and lambda a number; anything
    # else raises DomainError, never an untyped TypeError.
    @pytest.mark.parametrize("call", [
        lambda m, r, u, ss: p.nsb_residual(m, r, u, ss, 0.5 + 0.1j),
        lambda m, r, u, ss: p.nsb_residual(m, r, u, ss, "a"),
        lambda m, r, u, ss: p.f_plot(m, r, u, ss, [0.5 + 0.1j]),
        lambda m, r, u, ss: p.nyquist(m, r, u, ss, [0.5 + 0.1j]),
        lambda m, r, u, ss: p.s_plot(m, r, u, -1.0, [0.5 + 0.1j]),
        lambda m, r, u, ss: p.s_plot(m, r, u, "x", [0.3, 0.5]),
        lambda m, r, u, ss: p.general_critical_value(m, r, u, ss, "x"),
        lambda m, r, u, ss: p.general_critical_value(m, r, u, ss, None),
        lambda m, r, u, ss: p.nsb_residual(m, r, u, ss, True),
        lambda m, r, u, ss: p.f_plot(m, r, u, ss, [True]),
        lambda m, r, u, ss: p.general_critical_value(m, r, u, ss, True),
        lambda m, r, u, ss: p.s_plot(m, r, u, False, [0.3, 0.5]),
    ], ids=[
        "nsb_complex_theta", "nsb_string_theta", "f_plot_complex",
        "nyquist_complex", "s_plot_complex_duty", "s_plot_string_lambda",
        "critical_value_string_lambda", "critical_value_none_lambda",
        "nsb_bool_theta", "f_plot_bool", "critical_value_bool_lambda",
        "s_plot_bool_lambda",
    ])
    def test_wrong_type_raises_domain_error(self, buck_tem, ramp, u_tem, ss_tem, call):
        with pytest.raises(DomainError, match="must be (real|a number)"):
            call(buck_tem, ramp, u_tem, ss_tem)


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
        hdot = ramp.slope
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
                    d = switch_time_of_duty(model.edge, duty, rmp.T)
                    _, xd = steadystate.x0_of_d(model, rmp, u, d)
                    ref = _reference_value(model, rmp, u, d, xd, lam)
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
                    _, xd = steadystate.x0_of_d(model, rmp, u, duty * rmp.T)
                    _reference_value(model, rmp, u, duty * rmp.T, xd, lam)
                    scalar_singular = False
                except (p.DegenerateOrbitError, SingularMatrixError):
                    scalar_singular = True
                assert sample.singular and scalar_singular
                assert sample.value is None

    def test_splot_rejects_duty_outside_unit_interval(self, buck_tem, ramp, u_tem):
        for bad in (0.0, 1.0, 1.2):
            with pytest.raises(DomainError):
                p.s_plot(buck_tem, ramp, u_tem, -1.0, [0.5, bad])

    def test_fplot_endpoints(self, buck_tem, ramp, u_tem, ss_tem):
        curve = p.f_plot(buck_tem, ramp, u_tem, ss_tem, [math.pi, 0.0, 1.1, -1.1])
        hdot = ramp.slope
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
        hdot = ramp.slope
        denom = float(ss_tem.c_xdot_minus) - hdot
        thetas = [0.7, 1.9, 2.9]
        fcurve = p.f_plot(buck_tem, ramp, u_tem, ss_tem, thetas)
        ncurve = p.nyquist(
            buck_tem, ramp, u_tem, ss_tem, [t / ramp.T for t in thetas]
        )
        for fs_, ns_ in zip(fcurve.samples, ncurve.samples):
            lhs = fs_.value - hdot
            rhs = denom * (1.0 + ns_.value)
            assert lhs == pytest.approx(rhs, rel=1e-9)


class TestSolveKernels:
    # One orbit point at one lambda is one system, solved by LAPACK
    # (numerics.solve_linear); a sweep is a stack (solve_linear_stack).

    @pytest.mark.parametrize("residual", [
        lambda m, r, u, ss: p.pdb_residual(m, r, u, ss),
        lambda m, r, u, ss: p.snb_residual(m, r, u, ss),
        lambda m, r, u, ss: p.nsb_residual(m, r, u, ss, 1.1),
        lambda m, r, u, ss: p.general_critical_value(m, r, u, ss, 0.5),
        lambda m, r, u, ss: p.general_critical_value(m, r, u, ss, 0.3 - 0.6j),
    ], ids=["pdb", "snb", "nsb", "real-lambda", "complex-lambda"])
    def test_single_lambda_takes_one_lapack_solve(
        self, buck_tem, ramp, u_tem, ss_tem, monkeypatch, residual
    ):
        calls = spy_solve_kernels(monkeypatch)
        residual(buck_tem, ramp, u_tem, ss_tem)
        assert calls == {"solve_linear": 1, "solve_linear_stack": 0}

    def test_solver_slope_is_the_single_lambda_value(
        self, buck_tem, ramp, u_tem, ss_tem, monkeypatch
    ):
        # The Newton slope and the residuals share steadystate.critical_value;
        # the slope passes the factor that solved x0.
        seen = []
        value = steadystate.critical_value

        def spy(ss, lam, *factor):
            seen.append(lam)
            return value(ss, lam, *factor)

        monkeypatch.setattr(steadystate, "critical_value", spy)
        monkeypatch.setattr(stability, "critical_value", spy)
        assert p.solve_periodic_orbit(buck_tem, ramp, u_tem).d == ss_tem.d
        assert seen and set(seen) == {1.0}
        p.pdb_residual(buck_tem, ramp, u_tem, ss_tem)
        assert seen[-1] == -1.0

    @pytest.mark.parametrize("sweep, stacks", [
        (lambda m, r, u, ss: p.f_plot(m, r, u, ss, [0.5, 1.5, 3.0]), 1),
        (lambda m, r, u, ss: p.nyquist(m, r, u, ss, [0.0, r.ws / 3]), 1),
        # One stack for the orbit grid, one for the resolvent.
        (lambda m, r, u, ss: p.s_plot(m, r, u, -1.0, [0.3, 0.5, 0.7]), 2),
    ], ids=["f_plot", "nyquist", "s_plot"])
    def test_sweeps_take_stacked_solves(
        self, buck_tem, ramp, u_tem, ss_tem, monkeypatch, sweep, stacks
    ):
        calls = spy_solve_kernels(monkeypatch)
        sweep(buck_tem, ramp, u_tem, ss_tem)
        assert calls == {"solve_linear": 0, "solve_linear_stack": stacks}
