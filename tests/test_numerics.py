"""Unit and property tests of the small-matrix numerics kernel."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.optimize

import pwmstab as p
from pwmstab import numerics
from pwmstab.errors import (
    DimensionError,
    DivergenceError,
    DomainError,
    NoConvergenceError,
    SingularMatrixError,
)
from pwmstab.model import stage_generators
from conftest import mat_exp_integral


class TestMatExp:
    def test_zero_matrix(self):
        assert np.allclose(numerics.mat_exp(np.zeros((2, 2)), 1.0), np.eye(2))

    def test_diagonal(self):
        out = numerics.mat_exp(np.diag([-1.0, -2.0]), 1.0)
        assert np.allclose(out, np.diag([math.exp(-1), math.exp(-2)]), rtol=1e-13)

    def test_nilpotent_series_terminates(self):
        out = numerics.mat_exp(np.array([[0.0, 1.0], [0.0, 0.0]]), 3.0)
        assert np.allclose(out, [[1.0, 3.0], [0.0, 1.0]], rtol=0, atol=1e-14)

    def test_negative_time(self):
        a = np.array([[0.2, -1.1], [0.7, -0.9]])
        assert np.allclose(
            numerics.mat_exp(a, -0.8) @ numerics.mat_exp(a, 0.8), np.eye(2),
            atol=1e-12,
        )

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            numerics.mat_exp(np.zeros((2, 3)), 1.0)

    def test_non_finite_raises(self):
        with pytest.raises(DomainError):
            numerics.mat_exp(np.array([[np.nan, 0.0], [0.0, 0.0]]), 1.0)
        with pytest.raises(DomainError):
            numerics.mat_exp(np.eye(2), math.inf)

    @pytest.mark.parametrize("t", [10 ** 400, True, "1", 1j])
    def test_time_must_be_finite_real(self, t):
        with pytest.raises(DomainError, match="t must be finite and real"):
            numerics.mat_exp(np.eye(2), t)

    def test_semigroup_property(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = rng.integers(1, 5)
            a = rng.normal(size=(n, n)) - 2.0 * np.eye(n)
            s, t = rng.uniform(0.05, 1.5, size=2)
            scale = max(np.linalg.norm(a) * (s + t), 1.0)
            if scale > 10.0:
                a = a / scale * 10.0
            left = numerics.mat_exp(a, s + t)
            right = numerics.mat_exp(a, s) @ numerics.mat_exp(a, t)
            assert np.allclose(left, right, rtol=1e-10, atol=1e-12)

    def test_eigenvalue_map(self):
        # Eigenvalues of e^{At} are exp(t * eig(A)), as multisets.
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.normal(size=(3, 3))
            t = 0.7
            got = list(numerics.eigenvalues(numerics.mat_exp(a, t)))
            want = list(np.exp(t * np.linalg.eigvals(a)))
            for lam in want:
                i = int(np.argmin([abs(lam - g) for g in got]))
                assert abs(lam - got[i]) <= 1e-8 * (1.0 + abs(lam))
                got.pop(i)

    def test_against_ode_integration(self):
        # Independent oracle: integrate xdot = A x columnwise.
        a = np.array([[0.0, -50.0], [21276.6, -967.12]])
        t = 4e-4
        cols = []
        for j in range(2):
            sol = scipy.integrate.solve_ivp(
                lambda _, x: a @ x, (0.0, t), np.eye(2)[:, j],
                rtol=1e-12, atol=1e-14, dense_output=True,
            )
            cols.append(sol.y[:, -1])
        assert np.allclose(numerics.mat_exp(a, t), np.array(cols).T, rtol=1e-8)

    def test_large_norm_against_mpmath(self):
        # 40-digit oracle at ||A t|| ~ 40, the upper end of the use range.
        import mpmath
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3, 3))
        a *= 40.0 / np.linalg.norm(a, 2)
        got = numerics.mat_exp(a, 1.0)
        with mpmath.workdps(40):
            exact = mpmath.expm(mpmath.matrix(a.tolist()))
            want = np.array(exact.tolist(), dtype=float)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kernel", [
    lambda a: numerics.mat_exp(a, 1.0),
    lambda a: numerics.grid_exponentials(a, 1.0, np.array([1.0]))[0],
    lambda a: numerics.stage_powers((a,), 1.0, 100)[-1, 0],
])
def test_overflow_is_non_finite_without_warning(kernel):
    # e^{800} is past the float range: every kernel reports it the same way.
    got = kernel(np.array([[800.0, 0.0], [1.0, -1.0]]))
    assert not np.all(np.isfinite(got))


@pytest.mark.parametrize("value", [2.5, 3.0, True, np.float64(4.0), "5"])
def test_check_count_rejects_non_integers(value):
    with pytest.raises(DomainError, match="n must be an integer"):
        numerics.check_count("n", value, 0)


@pytest.mark.parametrize("value", [
    True, np.True_, 1j, np.complex128(1.0), "1", None, 10 ** 400, -(10 ** 400),
    math.inf, -math.inf, math.nan, np.float32("inf"),
])
def test_check_real_rejects(value):
    with pytest.raises(DomainError, match="x must be finite and real"):
        numerics.check_real("x", value)


def test_check_real_accepts_finite_reals():
    for value in (0, -7, 10 ** 300, 1.5, -0.0, np.float64(2.5), np.int64(-3), np.float32(1.0)):
        numerics.check_real("x", value)


def test_check_count_accepts_integers():
    for value in (0, 7, np.int64(7), np.int32(0)):
        numerics.check_count("n", value, 0)
    with pytest.raises(DomainError, match="n must be >= 1, got 0"):
        numerics.check_count("n", np.int64(0), 1)


class TestMatPowers:
    # The powers of the step exponentials that stage_powers builds by
    # doubling.
    def test_powers_match_per_point_expm(self, model_cases):
        # Both augmented stage generators, powers of their step exponential
        # over one period, against one scipy expm per point.
        for model, rmp, u in model_cases:
            h = rmp.T / 64
            gens = stage_generators(model, u)
            got = numerics.stage_powers(gens, rmp.T, 64)
            assert got.shape == (65, 2) + gens[0].shape
            for i, gen in enumerate(gens):
                for j, e in enumerate(got[:, i]):
                    want = scipy.linalg.expm(gen * (j * h))
                    assert np.linalg.norm(e - want) <= 1e-12 * np.linalg.norm(want)

    def test_zeroth_power_is_identity(self):
        gen = np.random.default_rng(3).normal(size=(4, 4))
        for points in (1, 2, 7, 8):
            got = numerics.stage_powers((gen,), 1.0, points)[:, 0]
            assert len(got) == points + 1
            assert np.array_equal(got[0], np.eye(4))
            assert np.array_equal(got[1], numerics.mat_exp(gen, 1.0 / points))

    @pytest.mark.parametrize("points", [2.0, 2.5, True, "3", 0, -1])
    def test_invalid_points(self, points):
        with pytest.raises(DomainError, match="steps must be"):
            numerics.stage_powers((np.eye(2),), 1.0, points)

    def test_non_square_step(self):
        with pytest.raises(DimensionError):
            numerics.stage_powers((np.zeros((2, 3)),), 1.0, 4)

    def test_stacked_steps_match_one_step_at_a_time(self, model_cases):
        # Both stages powered in one doubling pass: each is the stack its
        # own call builds, bit for bit.
        for model, rmp, u in model_cases:
            gens = stage_generators(model, u)
            for points in (1, 7, 64, 256):
                got = numerics.stage_powers(gens, rmp.T, points)
                assert got.shape == (points + 1, 2) + gens[0].shape
                for i, gen in enumerate(gens):
                    alone = numerics.stage_powers((gen,), rmp.T, points)
                    assert np.array_equal(got[:, i], alone[:, 0])


class TestStagePowers:
    @pytest.mark.parametrize("stages", [1, 2])
    def test_slices_are_each_generators_own_powers(self, model_cases, stages):
        # One stack for one or both augmented stage generators: slice [j, i]
        # is the j-th matrix power of generator i's step exponential, and
        # slice [0] is exactly I.
        for model, rmp, u in model_cases:
            gens = stage_generators(model, u)[:stages]
            for steps in (1, 7, 65, 257):
                got = numerics.stage_powers(gens, rmp.T, steps)
                assert got.shape == (steps + 1, stages) + gens[0].shape
                assert np.array_equal(got[0], np.broadcast_to(np.eye(len(gens[0])), got[0].shape))
                for i, gen in enumerate(gens):
                    step = numerics.mat_exp(gen, rmp.T / steps)
                    for j in (1, steps // 2, steps):
                        want = np.linalg.matrix_power(step, j)
                        assert np.linalg.norm(got[j, i] - want) <= 1e-12 * np.linalg.norm(want)

    def test_every_uniform_grid_is_built_here(self, buck_tem, ramp, u_tem, monkeypatch):
        # The orbit scan and the simulator power both stages in one call,
        # grid_exponentials one stage; the simulator and grid_exponentials
        # let stage_powers size the grid.
        calls = []
        stage_powers = numerics.stage_powers

        def spy(gens, span, steps, rho=None):
            calls.append((len(gens), span, steps, rho))
            return stage_powers(gens, span, steps, rho)

        monkeypatch.setattr(numerics, "stage_powers", spy)
        p.solve_periodic_orbit(buck_tem, ramp, u_tem, grid_points=64)
        p.CycleSimulator(buck_tem, ramp, u_tem, scan_points=128)
        numerics.grid_exponentials(np.eye(2), 1.0, np.array([0.5]))
        assert calls == [(2, ramp.T, 65, None), (2, ramp.T, 128, 0.25), (1, 1.0, 1, 1.0)]

    @pytest.mark.parametrize("steps", [2.0, True, 0])
    def test_invalid_steps(self, steps):
        # The count is checked even where rho would raise it.
        with pytest.raises(DomainError, match="steps must be"):
            numerics.stage_powers((np.eye(2),), 1.0, steps, 1.0)

    @pytest.mark.parametrize("rho", [None, 1.0])
    def test_ceiling_refuses_before_any_exponential(self, rho, monkeypatch):
        # A grid of MAX_GRID_STEPS + 1 steps is refused before a step
        # exponential, or the stack, is built.
        calls = []
        monkeypatch.setattr(numerics, "mat_exp", lambda a, t: calls.append(t))
        top = numerics.MAX_GRID_STEPS
        with pytest.raises(DomainError, match=f"grid of {top + 1} steps past MAX_GRID_STEPS"):
            numerics.stage_powers((np.eye(2), np.eye(2)), 1.0, top + 1, rho)
        assert calls == []


class TestStepCount:
    # The step count stage_powers takes with rho, read off the stack.
    @staticmethod
    def _count(gens, span, rho):
        return len(numerics.stage_powers(gens, span, 1, rho)) - 1

    def test_fewest_steps_with_the_norm_bound(self):
        # ||G||_1 = 3.5: over a span of 2, ||G h||_1 <= 1 takes 7 steps, and a
        # span of 2.1 takes 8 (7.35 rounded up).  With several generators the
        # largest norm decides; a zero generator takes one step.
        gen = np.array([[-3.0, 1.0], [0.5, -2.0]])
        assert self._count((gen,), 2.0, 1.0) == 7
        assert self._count((gen,), 2.1, 1.0) == 8
        assert self._count((gen, 0.5 * gen), 2.0, 1.0) == 7
        assert self._count((0.5 * gen, gen), 2.0, 1.0) == 7
        assert self._count((np.zeros((2, 2)),), 2.0, 1.0) == 1

    def test_rho_scales_the_count(self):
        gen = np.array([[-3.0, 1.0], [0.5, -2.0]])
        assert self._count((gen,), 2.0, 0.25) == 28
        assert self._count((gen,), 2.0, 0.5) == 14
        assert self._count((gen,), 2.1, 0.25) == 30  # 29.4 rounded up

    def test_ceiling_is_a_typed_refusal(self):
        top = numerics.MAX_GRID_STEPS
        assert top == 2 ** 17
        one = np.eye(1)
        assert self._count((one,), float(top), 1.0) == top
        assert self._count((one,), top / 4.0, 0.25) == top
        with pytest.raises(DomainError, match=r"= 131073 needs 131073 steps"):
            numerics.stage_powers((one,), top + 1.0, 1, 1.0)
        with pytest.raises(DomainError, match=r"= 32769 needs 131076 steps"):
            numerics.stage_powers((one,), top / 4.0 + 1.0, 1, 0.25)
        # grid_exponentials refuses before it allocates a power.
        with pytest.raises(DomainError, match="needs 1e\\+09 steps"):
            numerics.grid_exponentials(np.diag([-1e9, -2.0]), 1.0, np.array([0.5]))


class TestGridExponentials:
    def _check(self, gen, period, ts):
        # Every slice against one scipy expm per point.
        got = numerics.grid_exponentials(gen, period, ts)
        assert got.shape == ts.shape + gen.shape
        for t, e in zip(ts, got):
            want = scipy.linalg.expm(gen * t)
            assert np.linalg.norm(e - want) <= 1e-13 * np.linalg.norm(want)
        return got

    def test_matches_per_point_expm(self, model_cases):
        # Both augmented stage generators, from t = 0 (exactly I) to
        # t = period, on a uniform grid and at random times.
        rng = np.random.default_rng(24)
        for model, rmp, u in model_cases:
            ts = np.concatenate(
                [np.linspace(0.0, rmp.T, 33), rng.uniform(0.0, rmp.T, 16)]
            )
            for gen in stage_generators(model, u):
                got = self._check(gen, rmp.T, ts)
                assert np.array_equal(got[0], np.eye(len(gen)))

    def test_stiff_hurwitz(self):
        # Non-normal Hurwitz stage with poles at -1, -30 and -300, scaled to
        # ||G||_1 T = 1000: a thousand steps, read off their powers.
        rng = np.random.default_rng(25)
        q = rng.normal(size=(3, 3))
        gen = np.zeros((4, 4))
        gen[:3, :3] = q @ np.diag([-1.0, -30.0, -300.0]) @ np.linalg.inv(q)
        gen[:3, 3] = rng.normal(size=3)
        gen *= 1000.0 / np.abs(gen).sum(axis=0).max()
        assert np.linalg.eigvals(gen[:3, :3]).real.max() < 0.0
        self._check(gen, 1.0, np.linspace(0.0, 1.0, 17))

    def test_pure_integrator_state_block_exactly_identity(self):
        # e^{0} on the state block must be exactly I: a 1 - ulp diagonal would
        # let a degenerate cycle map I - M2 M1 pass the pivot test.
        gen = np.zeros((3, 3))
        gen[0, 2] = 0.7  # [[A, B u], [0, 0]] with A = 0
        got = numerics.grid_exponentials(gen, 50.0, np.array([0.0, 0.4, 33.3, 50.0]))
        assert np.array_equal(got[:, :2, :2], np.broadcast_to(np.eye(2), (4, 2, 2)))
        assert got[3][0, 2] == pytest.approx(35.0, rel=1e-15)

    def test_fewest_steps_and_minimal_taylor_order(self, model_cases, monkeypatch):
        # The period is cut into the fewest steps h with ||G h||_1 <= 1, and
        # taylor_terms gives the smallest order K whose first dropped term
        # rho^(K+1) / (K+1)! is at most 2^-53.
        taylor_terms, calls = numerics.taylor_terms, []

        def spy(gen, tau):
            calls.append((tau, taylor_terms(gen, tau)))
            return calls[-1][1]

        monkeypatch.setattr(numerics, "taylor_terms", spy)
        gens = [(g, rmp.T) for model, rmp, u in model_cases
                for g in stage_generators(model, u)]
        gens += [(np.zeros((3, 3)), 1.0), (np.diag([-2000.0, -1.0]), 0.5)]
        for gen, period in gens:
            got = numerics.grid_exponentials(gen, period, np.array([0.0, period]))
            assert np.array_equal(got[0], np.eye(len(gen)))
            tau, terms = calls[-1]
            norm = np.abs(gen).sum(axis=0).max()
            steps = round(period / tau)
            rho = norm * tau
            assert rho <= 1.0 and (steps == 1 or norm * period / (steps - 1) > 1.0)
            k = len(terms) - 1
            assert rho ** (k + 1) / math.factorial(k + 1) <= 2.0 ** -53
            assert k == 0 or rho ** k / math.factorial(k) > 2.0 ** -53
            for j, term in enumerate(terms):
                want = np.linalg.matrix_power(gen * tau, j) / math.factorial(j)
                assert np.linalg.norm(term - want) <= 1e-14 * np.linalg.norm(want)

    def test_invalid_input(self):
        gen = np.eye(2)
        with pytest.raises(DimensionError):
            numerics.grid_exponentials(gen, 1.0, 0.5)
        for bad in (-0.1, 1.1, np.nan):
            with pytest.raises(DomainError, match="times must lie in"):
                numerics.grid_exponentials(gen, 1.0, np.array([0.5, bad]))
        for period in (0.0, -1.0, np.inf):
            with pytest.raises(DomainError, match="period must be positive"):
                numerics.grid_exponentials(gen, period, np.array([0.0]))


class TestMatExpIntegral:
    def test_zero_matrix(self):
        assert np.allclose(mat_exp_integral(np.zeros((3, 3)), 2.0),
                           2.0 * np.eye(3))

    def test_scalar_closed_form(self):
        out = mat_exp_integral(np.array([[-1.0]]), 1.0)
        assert np.allclose(out, [[1.0 - math.exp(-1.0)]], rtol=1e-13)

    def test_invertible_against_quadrature(self):
        a = np.array([[-0.5, 1.2], [-0.3, -2.0]])
        t = 1.3
        expected = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                expected[i, j], _ = scipy.integrate.quad(
                    lambda s, i=i, j=j: numerics.mat_exp(a, s)[i, j],
                    0.0, t, epsabs=1e-13, epsrel=1e-13,
                )
        got = mat_exp_integral(a, t)
        assert np.max(np.abs(got - expected)) <= 1e-10
        closed = np.linalg.solve(a, numerics.mat_exp(a, t) - np.eye(2))
        assert np.allclose(got, closed, rtol=1e-11)

    def test_singular_matrix_ok(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])  # nilpotent, not invertible
        got = mat_exp_integral(a, 2.0)
        # int_0^2 [[1, s], [0, 1]] ds = [[2, 2], [0, 2]]
        assert np.allclose(got, [[2.0, 2.0], [0.0, 2.0]], atol=1e-13)

    def test_derivative_is_exponential(self):
        a = np.array([[-1.0, 0.4], [0.2, -0.6]])
        t, h = 0.9, 1e-6
        deriv = (
            mat_exp_integral(a, t + h) - mat_exp_integral(a, t - h)
        ) / (2 * h)
        assert np.allclose(deriv, numerics.mat_exp(a, t), atol=1e-6)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            mat_exp_integral(np.eye(2), -1.0)


class TestEigenvalues:
    def test_identity(self):
        assert np.allclose(numerics.eigenvalues(np.eye(3)), [1.0, 1.0, 1.0])

    def test_rotation_generator(self):
        vals = numerics.eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert np.allclose(np.sort_complex(vals), [-1j, 1j])

    def test_companion_cubic(self):
        # Companion matrix of z^3 - 6 z^2 + 11 z - 6, roots {1, 2, 3}.
        comp = np.array([[6.0, -11.0, 6.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        vals = numerics.eigenvalues(comp)
        # Oracle: substitute each computed root back into the polynomial.
        for lam in vals:
            assert abs(lam**3 - 6 * lam**2 + 11 * lam - 6) <= 1e-10
        assert np.allclose(np.sort_complex(vals), [1.0, 2.0, 3.0], atol=1e-9)

    def test_non_square(self):
        with pytest.raises(DimensionError):
            numerics.eigenvalues(np.zeros((2, 3)))

    def test_2x2_complex_pair(self):
        vals = numerics.eigenvalues(np.array([[1.0, -2.0], [5.0, 1.0]]))
        assert np.allclose(np.sort_complex(vals),
                           [1.0 - math.sqrt(10) * 1j, 1.0 + math.sqrt(10) * 1j])

    def test_real_matrix_gives_exact_conjugate_pair(self):
        # A real 3x3 matrix: the pair must come back as exact conjugates, so
        # the (real, imag) sort puts -imag first on every platform.
        m = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
        vals = numerics.eigenvalues(m)
        assert vals[0] == np.conj(vals[1])
        assert vals[0].imag < 0.0 < vals[1].imag
        assert vals[0] == pytest.approx(-1j, abs=1e-15)
        assert vals[2] == pytest.approx(0.5, abs=1e-15)
        # classify breaks the modulus tie by (real, imag): the +imag member.
        jd = p.JacobianDecomposition(Phi=m, Phi0=m, Gamma=np.zeros(3), Psi=np.zeros(3))
        assert p.classify(jd).critical_eigenvalue == complex(vals[1])

    def test_empty_and_scalar(self):
        assert numerics.eigenvalues(np.zeros((0, 0))).shape == (0,)
        vals = numerics.eigenvalues([[2.5]])
        assert vals.dtype == complex and vals[0] == 2.5


class TestSolve:
    def test_identity(self):
        out = numerics.solve_linear(np.eye(2), [1 + 1j, 2.0])
        assert np.allclose(out, [1 + 1j, 2.0])

    def test_scaled_identity(self):
        out = numerics.solve_linear(2.0 * np.eye(2), [4.0, 6j])
        assert np.allclose(out, [2.0, 3j])

    def test_random_residual(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 4 * np.eye(4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        x = numerics.solve_linear(m, b)
        assert np.linalg.norm(m @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            numerics.solve_linear(np.zeros((2, 2), dtype=complex), [1.0, 1.0])
        m = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
        with pytest.raises(SingularMatrixError):
            numerics.solve_linear(m, np.ones(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            numerics.solve_linear(np.eye(2), np.ones(3))


class TestSolveMatchesLuSolve:
    # solve_linear calls the LAPACK routines behind scipy's lu_factor and
    # lu_solve; the answers must be those of the wrappers, bit for bit.
    @pytest.mark.parametrize("m_complex, b_complex", [
        (False, False), (True, False), (False, True), (True, True),
    ])
    def test_bit_identical_to_lu_factor_lu_solve(self, m_complex, b_complex):
        rng = np.random.default_rng(41)
        for n in (2, 3, 4, 5, 6):
            for _ in range(40):
                m = rng.normal(size=(n, n)) + m_complex * 1j * rng.normal(size=(n, n))
                b = rng.normal(size=n) + b_complex * 1j * rng.normal(size=n)
                x = numerics.solve_linear(m, b)
                ref = scipy.linalg.lu_solve(scipy.linalg.lu_factor(m), b)
                assert x.dtype == ref.dtype
                assert np.array_equal(x.view(float), ref.view(float))

    def test_exactly_singular_raises_without_warning(self):
        # The elimination leaves an exact zero pivot, which scipy's
        # lu_factor reports with a LinAlgWarning; solve_linear must not.
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in (m, m.astype(complex)):
                with pytest.raises(SingularMatrixError):
                    numerics.solve_linear(a, np.ones(2))


class TestFactorSolve:
    def test_one_factor_serves_every_right_hand_side(self):
        # One factor, then real and complex right-hand sides: each answer
        # is scipy's lu_factor/lu_solve for that system, bit for bit.
        rng = np.random.default_rng(43)
        for n in (1, 2, 5):
            m = rng.normal(size=(n, n)) + n * np.eye(n)
            factor = numerics.factor_linear(m)
            for b in (rng.normal(size=n), rng.normal(size=n) + 1j * rng.normal(size=n)):
                x = numerics.solve_factored(factor, b)
                ref = scipy.linalg.lu_solve(scipy.linalg.lu_factor(m), b)
                assert x.dtype == ref.dtype
                assert np.array_equal(x, ref)

    def test_factor_is_guarded(self):
        with pytest.raises(SingularMatrixError):
            numerics.factor_linear([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError, match="identically zero"):
            numerics.factor_linear(np.zeros((2, 2)))
        with pytest.raises(DomainError):
            numerics.factor_linear([[1.0, np.nan], [0.0, 1.0]])

    def test_solve_checks_the_right_hand_side(self):
        factor = numerics.factor_linear(np.eye(2))
        with pytest.raises(DimensionError):
            numerics.solve_factored(factor, np.ones(3))
        with pytest.raises(DomainError):
            numerics.solve_factored(factor, [np.inf, 0.0])


class TestSolveLinearStack:
    def _flags(self, stack, rhs, solve):
        flags = []
        for m, b in zip(stack, rhs):
            try:
                solve(m, b)
                flags.append(True)
            except SingularMatrixError:
                flags.append(False)
        return np.array(flags)

    def test_flags_match_solve_linear(self):
        rng = np.random.default_rng(31)
        integrator = [numerics.mat_exp(np.zeros((2, 2)), t) for t in (0.4, 0.6)]
        # Stage with a zero eigenvalue on an upper-triangular A: the cycle
        # map I - e^{A T} has an exact zero pivot.
        a = np.array([[0.0, 1.0], [0.0, -1.0]])
        cycle = np.eye(2) - numerics.mat_exp(a, 0.8)
        stack = np.array([
            np.eye(2) - integrator[1] @ integrator[0],
            [[1.0, 2.0], [2.0, 4.0]],
            cycle,
            [[1e-20, 0.0], [0.0, 1.0]],
            [[2.0, 1.0], [1.0, 3.0]],
            rng.normal(size=(2, 2)),
            [[0.0, 1.0], [1.0, 0.0]],
        ])
        rhs = rng.normal(size=(len(stack), 2))
        x, ok = numerics.solve_linear_stack(stack, rhs)
        want = self._flags(stack, rhs, numerics.solve_linear)
        assert np.array_equal(ok, want)
        assert list(ok) == [False, False, False, False, True, True, True]
        assert np.isnan(x[~ok]).all()
        for xi, m, b in zip(x[ok], stack[ok], rhs[ok]):
            ref = numerics.solve_linear(m, b)
            assert np.linalg.norm(xi - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_rank_deficient_stack(self):
        # Diagonally dominant slices, and copies whose last row is an exact
        # combination of two others.  Their last pivot is rounding noise a
        # few ulps wide, well under the threshold: two LU codes round
        # differently, so only pivots clear of the threshold can be
        # expected to get the same verdict from both.
        rng = np.random.default_rng(32)
        for n in (2, 3, 4, 5):
            full = rng.normal(size=(6, n, n)) + n * np.eye(n)
            low = full.copy()
            low[:, -1] = low[:, 0] - 2.0 * low[:, n - 2]  # rank n - 1
            stack = np.concatenate([full, low])
            rhs = rng.normal(size=(12, n))
            _, ok = numerics.solve_linear_stack(stack, rhs)
            assert np.array_equal(ok, self._flags(stack, rhs, numerics.solve_linear))
            assert ok[:6].all() and not ok[6:].any()

    def test_complex_resolvent_at_open_loop_eigenvalue(self, buck_tem, ramp, u_tem, ss_tem):
        jd = p.jacobian(buck_tem, ramp, u_tem, ss_tem)
        mu = np.linalg.eigvals(jd.Phi0)
        lams = np.array([mu[0], mu[1], -1.0, 1.0, np.exp(1.1j), 0.5 * mu[0]])
        stack = lams[:, None, None] * np.eye(2) - jd.Phi0
        rhs = np.broadcast_to(jd.Gamma.astype(complex), (len(lams), 2))
        x, ok = numerics.solve_linear_stack(stack, rhs)
        assert np.array_equal(ok, self._flags(stack, rhs, numerics.solve_linear))
        assert list(ok) == [False, False, True, True, True, True]
        for xi, m, b in zip(x[ok], stack[ok], rhs[ok]):
            ref = numerics.solve_linear(m, b)
            assert np.linalg.norm(xi - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_scale_is_the_reduction_bit_for_bit(self, complex_):
        # The per-slice infinity norm behind the pivot test equals the
        # two-reduction form, so no slice's ok flag can move.
        rng = np.random.default_rng(44)
        for n in range(1, 9):
            for k in (0, 1, 3, 64, 257):
                shape = (k, n, n)
                arr = rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30, size=shape)
                if complex_:
                    arr = arr + 1j * rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30, size=shape)
                arr[: k // 3] = 0.0  # all-zero slices
                want = np.abs(arr).sum(axis=2).max(axis=1, initial=0.0)
                got = numerics._inf_norms(arr)
                assert got.shape == want.shape == (k,)
                assert np.array_equal(got, want)

    def test_invalid_input(self):
        with pytest.raises(DimensionError):
            numerics.solve_linear_stack(np.zeros((1, 2, 2)), np.zeros((1, 3)))
        with pytest.raises(DomainError):
            numerics.solve_linear_stack(np.eye(2)[None], np.array([[np.inf, 0.0]]))


class TestFindRoot:
    def test_linear(self):
        assert numerics.find_root(lambda x: x - 1.0, 0.0, 2.0, 1e-12) == pytest.approx(1.0)

    def test_sqrt2(self):
        root = numerics.find_root(lambda x: x * x - 2.0, 0.0, 2.0, 1e-14)
        assert root == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_cosine(self):
        root = numerics.find_root(math.cos, 0.0, 2.0, 1e-14)
        assert root == pytest.approx(math.pi / 2, abs=1e-12)

    def test_no_sign_change(self):
        # Ends of one sign: the end nearer zero, lo on a tie.
        assert numerics.find_root(lambda x: (x - 0.2) ** 2 + 1.0, -1.0, 1.0, 1e-10) == 1.0
        assert numerics.find_root(lambda x: -(x + 0.2) ** 2 - 1.0, -1.0, 1.0, 1e-10) == -1.0
        assert numerics.find_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-10) == -1.0

    def test_underflowing_product_is_same_sign(self):
        # f(lo) * f(hi) underflows to 0; the signs still agree.
        assert numerics.find_root(lambda x: 1e-170 * (1.0 + x * x), -1.0, 1.0, 1e-10) == -1.0

    def test_each_end_evaluated_once(self):
        for f in (lambda x: x * x - 2.0, lambda x: x * x + 1.0):
            calls = []
            numerics.find_root(lambda x: calls.append(x) or f(x), 0.0, 2.0, 1e-14)
            assert calls.count(0.0) == 1 and calls.count(2.0) == 1

    @pytest.mark.parametrize("nan_at", [1.0, 0.0])
    def test_nan_raises_divergence(self, nan_at):
        # Brent's first step from (-1, -1) and (1, 1) lands on x = 0.
        with pytest.raises(DivergenceError):
            numerics.find_root(lambda x: math.nan if x == nan_at else x, -1.0, 1.0, 1e-12)

    def test_exhausted_iterations_raise_no_convergence(self):
        with pytest.raises(NoConvergenceError):
            numerics.find_root(lambda x: (x - 0.3) ** 3, -1.0, 2.0, 1e-12)

    @pytest.mark.parametrize("bad_call", [1, 2, 3])
    def test_value_error_of_f_propagates(self, bad_call):
        # Only brentq's refusal of a one-sign bracket becomes the end rule;
        # a ValueError that f raises, at an end or inside, is f's.
        calls = []

        def f(x):
            calls.append(x)
            if len(calls) == bad_call:
                raise ValueError("from f")
            return x - 0.5

        with pytest.raises(ValueError, match="from f"):
            numerics.find_root(f, 0.0, 2.0, 1e-12)

    def test_endpoint_root(self):
        assert numerics.find_root(lambda x: x, 0.0, 1.0, 1e-10) == 0.0

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.inf, math.nan, "a", 1j, None, True, 10 ** 400])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # An infinite tolerance would return a bracket end as the root.
        with pytest.raises(DomainError, match="tol must be positive and finite"):
            numerics.find_root(lambda x: x - 0.3, 0.0, 1.0, tol)

    def test_bracketing_property(self):
        # The function still changes sign across a +-tol window of the root.
        tol = 1e-9
        for f, lo, hi in [
            (lambda x: math.sin(x) - 0.3, 0.0, 1.5),
            (lambda x: x**3 - 0.2, 0.0, 1.0),
        ]:
            r = numerics.find_root(f, lo, hi, tol)
            a, b = max(lo, r - 2 * tol), min(hi, r + 2 * tol)
            assert f(a) * f(b) <= 0.0


class TestNewtonRoot:
    @staticmethod
    def _newton(f, df, lo, hi, tol):
        calls = []
        root = numerics.newton_root(
            lambda x: calls.append(x) or (f(x), df(x)), lo, hi, f(lo), f(hi), tol
        )
        return root, calls

    def test_sqrt2_from_the_regula_falsi_point(self):
        root, calls = self._newton(lambda x: x * x - 2.0, lambda x: 2.0 * x, 0.0, 2.0, 1e-14)
        assert root == pytest.approx(math.sqrt(2), abs=1e-14)
        # Regula falsi of (0, -2) and (2, 2); the known ends are not evaluated.
        assert calls[0] == 1.0
        assert 0.0 not in calls and 2.0 not in calls
        assert len(calls) <= 6

    def test_start_within_tol_of_an_end_takes_the_end(self):
        one = lambda x: 1.0  # noqa: E731
        assert self._newton(lambda x: x - 1e-13, one, 0.0, 1.0, 1e-12) == (0.0, [0.0])
        hi = 1.0 - 1e-13
        assert self._newton(lambda x: x - hi, one, 0.0, 1.0, 1e-12) == (1.0, [1.0])

    @pytest.mark.parametrize("first_slope", [0.0, -1.0])
    def test_zero_slope_or_step_out_of_bracket_bisects(self, first_slope):
        # At the start x = 0.2 (regula falsi of (0, -0.2), (1, 0.8)) the slope
        # is zero, or sends the step below the bracket: the next iterate is
        # the midpoint of [0.2, 1], and Newton then converges.
        slopes = iter([first_slope])
        root, calls = self._newton(
            lambda x: x**3 - 0.2, lambda x: next(slopes, 3.0 * x * x), 0.0, 1.0, 1e-14
        )
        assert calls[:2] == [0.2, 0.2 + (1.0 - 0.2) / 2]
        assert root == pytest.approx(0.2 ** (1 / 3), abs=1e-14)

    def test_bisection_alone_converges_to_tol(self):
        root, calls = self._newton(lambda x: x**3 - 0.2, lambda x: 0.0, 0.0, 1.0, 1e-10)
        assert abs(root - 0.2 ** (1 / 3)) <= 1e-10
        assert len(calls) <= 36

    def test_nan_raises_divergence(self):
        with pytest.raises(DivergenceError):
            numerics.newton_root(lambda x: (math.nan, 1.0), 0.0, 1.0, -1.0, 1.0, 1e-12)

    def test_exhausted_budget_raises_no_convergence(self):
        # x * x == 2 holds at no float, and a tol below the float spacing
        # cannot end the bisection: 100 evaluations, then the error.
        calls = []
        with pytest.raises(NoConvergenceError):
            numerics.newton_root(
                lambda x: calls.append(x) or (x * x - 2.0, 0.0), 0.0, 2.0, -2.0, 2.0, 1e-300
            )
        assert len(calls) == 100

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.inf, math.nan, "a", 1j, None, True, 10 ** 400])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(DomainError, match="tol must be positive and finite"):
            numerics.newton_root(lambda x: (x - 0.3, 1.0), 0.0, 1.0, -0.3, 0.7, tol)

    @pytest.mark.parametrize("lo, hi, flo, fhi", [
        (1.0, 0.0, -0.3, 0.7), (0.0, math.inf, -0.3, 0.7),
        (0.0, 1.0, 0.3, 0.7), (0.0, 1.0, 0.0, 0.7), (0.0, 1.0, math.nan, 0.7),
        (0.0, 10 ** 400, -0.3, 0.7), ("0", 1.0, -0.3, 0.7), (False, 1.0, -0.3, 0.7),
    ])
    def test_bracket_must_hold_a_sign_change(self, lo, hi, flo, fhi):
        with pytest.raises(DomainError):
            numerics.newton_root(lambda x: (x - 0.3, 1.0), lo, hi, flo, fhi, 1e-12)


class TestFindRootMatchesBrentq:
    # find_root runs scipy's brentq (xtol = tol, rtol = 4 eps, 100
    # iterations) on a sign-changing bracket: same root, bit for bit, from
    # the same evaluations.
    FAMILIES = (
        lambda r, s: lambda x: math.tanh(s * (x - r)),
        lambda r, s: lambda x: (x - r) ** 3 + s * (x - r),
        lambda r, s: lambda x: math.exp(s * (x - r)) - 1.0,
        lambda r, s: lambda x: math.sin(7.0 * s * (x - r)) + 0.3 * (x - r),
        lambda r, s: lambda x: s * (x - r) ** 3,
        lambda r, s: lambda x: 1e-100 * s * (x - r),
    )

    @staticmethod
    def _brentq(f, lo, hi, tol):
        calls = []
        root, info = scipy.optimize.brentq(
            lambda x: calls.append(x) or f(x), lo, hi,
            xtol=tol, rtol=4 * np.finfo(float).eps, full_output=True, disp=False,
        )
        return (root if info.converged else None), calls

    @staticmethod
    def _find_root(f, lo, hi, tol):
        calls = []
        try:
            root = numerics.find_root(lambda x: calls.append(x) or f(x), lo, hi, tol)
        except NoConvergenceError:
            root = None
        return root, calls

    def test_random_brackets(self):
        rng = np.random.default_rng(43)
        compared = exhausted = 0
        for i in range(2400):
            lo, hi = float(rng.uniform(-3.0, 0.0)), float(rng.uniform(0.01, 3.0))
            r = float(rng.uniform(lo, hi))
            s = float(rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0]))
            tol = float(10.0 ** rng.uniform(-15.0, -6.0))
            f = self.FAMILIES[i % len(self.FAMILIES)](r, s)
            flo, fhi = f(lo), f(hi)
            if not (flo < 0.0 < fhi or fhi < 0.0 < flo):
                continue  # find_root's own end rule; brentq would refuse
            got, got_calls = self._find_root(f, lo, hi, tol)
            want, want_calls = self._brentq(f, lo, hi, tol)
            assert got_calls == want_calls, (i, lo, hi, r, s, tol)
            assert got == want
            compared += 1
            exhausted += want is None
        assert compared >= 2000 and exhausted > 0, (compared, exhausted)

    def test_exhausted_budget_where_brentq_does_not_converge(self):
        f = lambda x: (x - 0.3) ** 3  # noqa: E731
        root, want_calls = self._brentq(f, -1.0, 2.0, 1e-12)
        assert root is None and len(want_calls) == 102
        calls = []
        with pytest.raises(NoConvergenceError):
            numerics.find_root(lambda x: calls.append(x) or f(x), -1.0, 2.0, 1e-12)
        assert calls == want_calls


class TestBlasThreads:
    @pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")])
    def test_import_pins_openblas_unless_set(self, given, expected):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if given is not None:
            env["OPENBLAS_NUM_THREADS"] = given
        src = str(Path(p.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        out = subprocess.run(
            [sys.executable, "-c",
             "import os, pwmstab; print(os.environ['OPENBLAS_NUM_THREADS'])"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out.strip() == expected
