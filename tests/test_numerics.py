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
    lambda a: numerics.mat_exp_stack(a[None])[0],
])
def test_overflow_is_non_finite_without_warning(kernel):
    # e^{800} is past the float range: both kernels report it the same way.
    got = kernel(np.array([[800.0, 0.0], [1.0, -1.0]]))
    assert not np.all(np.isfinite(got))


@pytest.mark.parametrize("value", [2.5, 3.0, True, np.float64(4.0), "5"])
def test_check_count_rejects_non_integers(value):
    with pytest.raises(DomainError, match="n must be an integer"):
        numerics.check_count("n", value, 0)


def test_check_count_accepts_integers():
    for value in (0, 7, np.int64(7), np.int32(0)):
        numerics.check_count("n", value, 0)
    with pytest.raises(DomainError, match="n must be >= 1, got 0"):
        numerics.check_count("n", np.int64(0), 1)


def _rel(got, want):
    return np.linalg.norm(got - want, 1) / np.linalg.norm(want, 1)


def _assert_expm(got, a):
    # Within 1e-14 of a 40-digit oracle, and of scipy.linalg.expm up to
    # scipy's own error: its reduced scaling and its plain Pade value on
    # triangular slices with s = 0 can cost it more than 1e-14.
    import mpmath
    with mpmath.workdps(40):
        exact = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)
    ref = scipy.linalg.expm(a)
    assert _rel(got, exact) <= 1e-14
    assert _rel(got, ref) <= 1e-14 + _rel(ref, exact)


class TestMatExpStack:
    def test_structured_slices(self):
        # Zero, t = 0, diagonal, upper and lower triangular and symmetric
        # Hurwitz slices, with 1-norms from 0 to ~60 (up to s = 4 squarings).
        rng = np.random.default_rng(21)
        for m in range(1, 6):
            sym = rng.normal(size=(m, m))
            stack = [
                np.zeros((m, m)),
                0.0 * rng.normal(size=(m, m)),
                np.diag(rng.uniform(-30.0, 2.0, size=m)),
                np.triu(rng.normal(size=(m, m))) * 12.0,
                np.tril(rng.normal(size=(m, m))) * 4.0,
                # Nearly equal diagonal entries: a divided difference of exp
                # taken as a plain difference quotient would cancel.
                np.diag(np.full(m, -1.0) + 1e-9 * np.arange(m)) + np.eye(m, k=1) * 0.3,
                -(sym @ sym.T) * rng.uniform(0.1, 3.0) - np.eye(m),
            ]
            got = numerics.mat_exp_stack(np.array(stack))
            assert np.array_equal(got[0], np.eye(m))
            assert np.array_equal(got[1], np.eye(m))
            for a, e in zip(stack, got):
                _assert_expm(e, a)

    def test_triangular_slices_exact(self):
        # Diagonal = exp of the diagonal, bit for bit, and the zero triangle
        # stays exactly zero, with and without squarings.
        rng = np.random.default_rng(22)
        for m in range(1, 6):
            up = np.triu(rng.normal(size=(6, m, m))) * rng.uniform(0.01, 40.0, (6, 1, 1))
            low = np.transpose(up, (0, 2, 1))
            got_up, got_low = numerics.mat_exp_stack(up), numerics.mat_exp_stack(low)
            assert not np.tril(got_up, -1).any()
            assert not np.triu(got_low, 1).any()
            for stack, got in ((up, got_up), (low, got_low)):
                want_diag = np.exp(np.diagonal(stack, axis1=1, axis2=2))
                assert np.array_equal(np.diagonal(got, axis1=1, axis2=2), want_diag)
                for a, e in zip(stack, got):
                    _assert_expm(e, a)

    def test_pure_integrator_exactly_identity(self):
        # e^{0} must be exactly I: a 1 - ulp diagonal would let a degenerate
        # cycle map I - M2 M1 pass the pivot test.
        gen = np.zeros((3, 3))
        gen[0, 2] = 0.7  # [[A, B u], [0, 0]] with A = 0
        got = numerics.mat_exp_stack(np.array([np.zeros((3, 3)), gen * 0.4, gen * 50.0]))
        assert np.array_equal(got[0], np.eye(3))
        assert np.array_equal(got[1][:2, :2], np.eye(2))
        assert np.array_equal(got[2][:2, :2], np.eye(2))
        assert got[2][0, 2] == pytest.approx(35.0, rel=1e-15)

    def test_random_hurwitz(self):
        # Non-normal Hurwitz slices with 1-norms from ~0.3 to ~60.
        rng = np.random.default_rng(23)
        squarings = []
        for m in (1, 2, 3, 4, 5):
            a = rng.normal(size=(m, m))
            a -= (np.linalg.eigvals(a).real.max() + rng.uniform(0.3, 1.5)) * np.eye(m)
            stack = a[None] * np.array([0.3, 2.0, 12.0])[:, None, None]
            got = numerics.mat_exp_stack(stack)
            for a_t, e in zip(stack, got):
                _assert_expm(e, a_t)
                squarings.append(np.abs(a_t).sum(axis=0).max() / 5.371920351148152)
        assert max(squarings) > 4.0  # some slices needed s >= 3

    def test_augmented_generators_match_scipy(self, buck_tem, ramp):
        # The stage generators the solver exponentiates, over one period.
        gen = np.zeros((3, 3))
        gen[:2, :2] = buck_tem.A1
        gen[:2, 2] = buck_tem.B1 @ [11.3, 20.0]
        ts = np.linspace(0.0, ramp.T, 33)
        got = numerics.mat_exp_stack(gen * ts[:, None, None])
        assert np.array_equal(got[0], np.eye(3))
        for t, e in zip(ts[::4], got[::4]):
            _assert_expm(e, gen * t)

    def test_invalid_input(self):
        with pytest.raises(DimensionError):
            numerics.mat_exp_stack(np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            numerics.mat_exp_stack(np.zeros((2, 3, 2)))
        with pytest.raises(DomainError):
            numerics.mat_exp_stack(np.full((1, 2, 2), np.nan))


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
        integrator = numerics.mat_exp_stack(np.zeros((2, 2, 2)))
        # Stage with a zero eigenvalue on an upper-triangular A: the cycle
        # map I - e^{A T} has an exact zero pivot.
        a = np.array([[0.0, 1.0], [0.0, -1.0]])
        cycle = np.eye(2) - numerics.mat_exp_stack(a[None] * 0.8)[0]
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

    def test_endpoint_root(self):
        assert numerics.find_root(lambda x: x, 0.0, 1.0, 1e-10) == 0.0

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.inf, math.nan])
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


class TestFindRootMatchesBrentq:
    # find_root is a port of scipy's brentq (xtol = tol, rtol = 4 eps, 100
    # iterations): same root, bit for bit, from the same evaluations.
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
