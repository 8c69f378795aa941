"""Tests of the buck closed forms, harmonic balance, and Taylor expansion."""

import numpy as np
import pytest
import scipy.linalg

import pwmstab as p
from pwmstab.errors import DomainError, ResolventPoleError, SingularMatrixError
from pwmstab import cli, numerics
from pwmstab.model import switch_time_of_duty
from conftest import (
    UNIT_RAMP,
    slaved_reference_orbit,
    spy_solve_kernels,
    taylor_pdb_residual,
    transfer_eval,
)

L, CF, R, GAIN = 20e-3, 47e-6, 22.0, 8.4


@pytest.fixture(scope="module")
def plant(buck_lem, ramp):
    return p.make_buck_plant(buck_lem, ramp)


class TestPlantConstruction:
    def test_from_both_edges_identical(self, buck_tem, buck_lem, ramp):
        a = p.make_buck_plant(buck_tem, ramp)
        b = p.make_buck_plant(buck_lem, ramp)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.B, b.B)
        assert np.array_equal(a.C, b.C)

    def test_non_buck_rejected(self, ramp):
        m = p.SwitchedLinearModel(
            A1=[[0.0, 1.0], [-1.0, 0.0]], A2=[[0.0, 1.0], [-1.0, -1.0]],
            B1=np.zeros((2, 2)), B2=[[0.0, 1.0], [0.0, 0.0]],
            C=[1.0, 0.0], D=[1.0, 0.0], edge=p.ModulationEdge.TEM,
        )
        with pytest.raises(DomainError):
            p.make_buck_plant(m, ramp)


class TestCriticalVoltages:
    def test_lem_residual_vanishes(self, plant, ramp):
        for D in (0.2, 0.45, 0.7):
            vs = p.vs_critical_lem(plant, D)
            res = p.buck_pdb_residual(plant, D, vs, p.ModulationEdge.LEM)
            assert abs(res) <= 1e-10 * ramp.slope

    def test_tem_residual_vanishes(self, plant, ramp):
        for D in (0.2, 0.45, 0.7):
            vs = p.vs_critical_tem(plant, D)
            res = p.buck_pdb_residual(plant, D, vs, p.ModulationEdge.TEM)
            assert abs(res) <= 1e-10 * ramp.slope

    def test_edge_symmetry(self, plant):
        for D in np.arange(0.05, 0.951, 0.05):
            lem = p.vs_critical_lem(plant, 1.0 - D)
            tem = p.vs_critical_tem(plant, D)
            assert abs(tem + lem) <= 1e-9 * abs(lem)

    def test_edge_symmetry_exact(self, plant):
        # Both edges share one coefficient, so the antisymmetry is exact
        # wherever 1 - (1 - D) == D, as on this dyadic grid.
        for D in np.arange(1, 64) / 64:
            assert p.vs_critical_lem(plant, 1.0 - D) == -p.vs_critical_tem(plant, D)

    def test_fast_pole_lem_stays_finite(self, ramp, tmp_path):
        # A pole at 2 pi 1 MHz puts |lambda| T near 2500, so e^{-AT} would
        # overflow; the LEM boundary must still equal the mirrored TEM one.
        a = [[0.0, -50.0, 0.0], [21276.6, -967.1, 0.0],
             [0.0, 2e6 * np.pi, -2e6 * np.pi]]
        src, zero = [[0.0, 50.0], [0.0, 0.0], [0.0, 0.0]], np.zeros((3, 2))
        plants = {}
        for edge, b1, b2 in ((p.ModulationEdge.LEM, zero, src),
                             (p.ModulationEdge.TEM, src, zero)):
            model = p.SwitchedLinearModel(
                A1=a, A2=a, B1=b1, B2=b2, C=[0.0, 0.0, -8.4], D=[8.4, 0.0], edge=edge,
            )
            plants[edge] = p.make_buck_plant(model, ramp)
        lem, tem = plants[p.ModulationEdge.LEM], plants[p.ModulationEdge.TEM]
        for D in np.arange(1, 16) / 16:
            vs = p.vs_critical_lem(lem, D)
            assert np.isfinite(vs) and vs == -p.vs_critical_tem(tem, 1.0 - D)
            d = switch_time_of_duty(p.ModulationEdge.LEM, D, ramp.T)
            assert np.isfinite(p.lem_boundary_coefficient(lem, d))
        text = (
            "[model]\nedge = LEM\n"
            "A1 = 0,-50,0; 21276.6,-967.1,0; 0,6283185.307179586,-6283185.307179586\n"
            "A2 = 0,-50,0; 21276.6,-967.1,0; 0,6283185.307179586,-6283185.307179586\n"
            "B1 = 0,0; 0,0; 0,0\nB2 = 0,50; 0,0; 0,0\nC = 0,0,-8.4\nD = 8.4,0\n"
            "[ramp]\nVl = 3.8\nVh = 8.2\nT = 400e-6\n"
            "[input]\nvr = -11.3\nvs = -20.0\n"
        )
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        assert cli.main(["sweep-vs", str(cfg), "--quiet", "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.isfinite(rows[:, 1]).all()

    def test_residual_affine_in_vs(self, plant, ramp):
        for D, v in ((0.3, 5.0), (0.6, -17.0)):
            for edge in p.ModulationEdge:
                r1 = p.buck_pdb_residual(plant, D, v, edge)
                r2 = p.buck_pdb_residual(plant, D, 2 * v, edge)
                assert r2 - 2 * r1 == pytest.approx(ramp.slope, rel=1e-12)

    def test_duty_domain(self, plant):
        for bad in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(DomainError):
                p.vs_critical_lem(plant, bad)

    def test_singular_dynamics_raise(self, ramp):
        # A with a zero eigenvalue makes (I - e^{AT}) singular.
        a = [[0.0, 0.0], [0.0, -1.0]]
        plant = p.BuckPlant(A=a, B=[1.0, 0.0], C=[0.0, 1.0], ramp=ramp)
        for _ in range(2):
            with pytest.raises(SingularMatrixError):
                p.vs_critical_lem(plant, 0.5)
        # The series and Taylor forms need no e^{AT}; C A^k B = 0 for
        # k = 0, 1, 2 puts this plant's Taylor boundary at infinity.
        assert p.harmonic_gains(plant, 4).integer.shape == (4,)
        assert p.taylor_critical_vs(plant, 0.3) == np.inf

    def test_non_finite_vs_rejected(self, plant):
        for bad in (np.nan, np.inf, -np.inf):
            for edge in p.ModulationEdge:
                with pytest.raises(DomainError):
                    p.buck_pdb_residual(plant, 0.5, bad, edge)

    def test_jacobian_eigenvalue_at_minus_one(self, buck_lem, buck_tem, ramp):
        # Operating exactly on the closed-form boundary puts a closed-loop
        # eigenvalue at -1 (full-model cross-check of the specialization).
        for model in (buck_lem, buck_tem):
            plant = p.make_buck_plant(model, ramp)
            D = 0.42
            d = switch_time_of_duty(model.edge, D, ramp.T)
            vs = (
                p.vs_critical_lem(plant, D)
                if model.edge is p.ModulationEdge.LEM
                else p.vs_critical_tem(plant, D)
            )
            u, ss = slaved_reference_orbit(model, ramp, vs, d)
            rep = p.classify(p.jacobian(model, ramp, u, ss))
            lam = min(rep.eigenvalues, key=lambda z: abs(z + 1))
            assert abs(lam + 1) <= 1e-4

    def test_specializes_general_residual(self, buck_lem, buck_tem, ramp):
        # The buck closed form equals the general resolvent residual on the
        # corresponding full model over a (D, vs) grid.
        for model in (buck_lem, buck_tem):
            plant = p.make_buck_plant(model, ramp)
            for D in (0.25, 0.5, 0.75):
                for vs in (-30.0, 12.0, 27.0):
                    d = switch_time_of_duty(model.edge, D, ramp.T)
                    u, ss = slaved_reference_orbit(model, ramp, vs, d)
                    general = p.pdb_residual(model, ramp, u, ss)
                    special = p.buck_pdb_residual(plant, D, vs, model.edge)
                    assert special == pytest.approx(general, rel=1e-8)


def _two_solve_coefficient(plant, d):
    # The paper's TEM coefficient C [(I-e^{AT})^-1 (e^{Ad}-I) + (I+e^{AT})^-1] B
    # as written: two exponentials and two solves per switching instant.
    eye = np.eye(plant.A.shape[0])
    e_T = scipy.linalg.expm(plant.A * plant.ramp.T)
    e_d = scipy.linalg.expm(plant.A * d)
    term1 = np.linalg.solve(eye - e_T, (e_d - eye) @ plant.B)
    term2 = np.linalg.solve(eye + e_T, plant.B)
    return float(plant.C @ (term1 + term2))


class TestPlantTerms:
    """The plant's cached e^{AT} terms behind every boundary coefficient."""

    def test_work_counts(self, buck_lem, ramp, monkeypatch):
        # One e^{AT} and two solves per plant, then one e^{Ad} per duty.
        calls = {"mat_exp": 0, "solve_linear": 0}
        for name in calls:
            def counted(*args, _real=getattr(numerics, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(numerics, name, counted)
        plant = p.make_buck_plant(buck_lem, ramp)
        for D in np.arange(1, 34) / 34:
            p.vs_critical_tem(plant, D)
            p.vs_critical_lem(plant, D)
        assert calls == {"mat_exp": 67, "solve_linear": 2}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_two_solve_formula(self, n):
        rng = np.random.default_rng(17 + n)
        for _ in range(5):
            a = rng.normal(size=(n, n))
            a -= (np.linalg.eigvals(a).real.max() + rng.uniform(0.3, 1.5)) * np.eye(n)
            plant = p.BuckPlant(
                A=a, B=rng.normal(size=n), C=rng.normal(size=n), ramp=UNIT_RAMP
            )
            for D in (0.1, 0.37, 0.5, 0.81):
                d_tem = switch_time_of_duty(p.ModulationEdge.TEM, D, UNIT_RAMP.T)
                d_lem = switch_time_of_duty(p.ModulationEdge.LEM, D, UNIT_RAMP.T)
                tem = _two_solve_coefficient(plant, d_tem)
                lem = -_two_solve_coefficient(plant, d_lem)
                # UNIT_RAMP has slope 1, so each coefficient is 1 / vs.
                assert 1.0 / p.vs_critical_tem(plant, D) == pytest.approx(tem, rel=1e-12)
                assert 1.0 / p.vs_critical_lem(plant, D) == pytest.approx(lem, rel=1e-12)
                assert p.lem_boundary_coefficient(plant, d_lem) == pytest.approx(
                    lem, rel=1e-12
                )

    @pytest.mark.filterwarnings("error")
    def test_overflowing_plant_raises_without_warning(self, ramp):
        # 2e6 * 400 us = 800 puts e^{AT} past the float range.
        a = [[2e6, 0.0], [1.0, -1.0]]
        plant = p.BuckPlant(A=a, B=[1.0, 0.0], C=[0.0, 1.0], ramp=ramp)
        d = 0.5 * ramp.T
        calls = (
            lambda: p.vs_critical_tem(plant, 0.5),
            lambda: p.vs_critical_lem(plant, 0.5),
            lambda: p.buck_pdb_residual(plant, 0.5, 10.0, p.ModulationEdge.TEM),
            lambda: p.lem_boundary_coefficient(plant, d),
            lambda: p.equivalence_residual(plant, d, 8),
        )
        for call in calls + calls:
            with pytest.raises(DomainError):
                call()


class TestTransferFunction:
    def test_strictly_proper(self, plant):
        mags = [abs(transfer_eval(plant, s)) for s in (1e3, 1e5, 1e7)]
        assert mags[0] > mags[1] > mags[2]
        assert mags[2] <= 1e-6

    def test_closed_form(self, plant):
        # Hand-derived: G(s) = -g / (L Cf s^2 + (L/R) s + 1).
        for s in (1j * 3e3, 2e3 + 1j * 1e3, -4e2 + 0j):
            want = -GAIN / (L * CF * s * s + (L / R) * s + 1.0)
            assert transfer_eval(plant, s) == pytest.approx(want, rel=1e-12)

    def test_conjugate_symmetry(self, plant):
        for s in (1j * 1e4, 3e2 + 5e3j):
            assert transfer_eval(plant, np.conj(s)) == pytest.approx(
                np.conj(transfer_eval(plant, s)), rel=1e-12
            )

    def test_pole_raises(self, plant):
        pole = np.linalg.eigvals(plant.A)[0]
        with pytest.raises(ResolventPoleError):
            transfer_eval(plant, complex(pole))


class TestHarmonicGains:
    def test_gains_are_the_transfer_function(self, plant, ramp, monkeypatch):
        # All 2K samples come from one stacked solve.
        calls = spy_solve_kernels(monkeypatch)
        gains = p.harmonic_gains(plant, 6)
        assert calls == {"solve_linear": 0, "solve_linear_stack": 1}
        k = np.arange(1, 7)
        for got, w in zip(np.concatenate([gains.integer, gains.half]),
                          np.concatenate([k, k - 0.5]) * ramp.ws):
            assert got == pytest.approx(transfer_eval(plant, 1j * w), rel=1e-12)

    @pytest.mark.parametrize("detune", [0.0, 2.0 ** -50], ids=["exact", "detuned"])
    def test_pole_at_a_series_frequency_raises(self, detune):
        # An undamped plant resonant at ws, exactly or to within 2^-50: the
        # second is singular by the package's pivot rule, as solve_linear
        # finds j ws I - A, though a plain LU solve returns |G| ~ 8e9.
        ramp = p.RampSignal(0.0, 1.0, 1e-4)
        w = ramp.ws * (1.0 + detune)
        plant = p.BuckPlant(A=[[0.0, w], [-w, 0.0]], B=[1.0, 0.0], C=[1.0, 0.0],
                            ramp=ramp)
        with pytest.raises(SingularMatrixError):
            numerics.solve_linear(1j * ramp.ws * np.eye(2) - plant.A, plant.B)
        with pytest.raises(ResolventPoleError, match="pole of the plant"):
            p.harmonic_gains(plant, 4)


class TestHarmonicBalance:
    def test_converges_to_lem_form(self, plant, ramp):
        for D in (0.25, 0.5, 0.72):
            d = (1.0 - D) * ramp.T
            want = p.vs_critical_lem(plant, D)
            got = p.harmonic_balance(plant, d, 4000).vs
            assert got == pytest.approx(want, rel=1e-6)

    def test_converges_to_tem_form(self, plant, ramp):
        for D in (0.25, 0.5, 0.72):
            d = D * ramp.T
            want = p.vs_critical_tem(plant, D)
            got = p.harmonic_balance(plant, d, 4000, p.ModulationEdge.TEM).vs
            assert got == pytest.approx(want, rel=1e-6)

    def test_real_part_via_conjugate_pairs(self, plant, ramp):
        # Summing the series with conjugated gains and reversed rotation
        # leaves the real part unchanged.
        d = 0.37 * ramp.T
        K = 200
        res = p.harmonic_balance(plant, d, K)
        gains = p.harmonic_gains(plant, K)
        k = np.arange(1, K + 1)
        conj_terms = (1 - np.exp(-1j * k * ramp.ws * d)) * np.conj(
            gains.integer
        ) - np.conj(gains.half)
        assert np.sum(conj_terms).real == pytest.approx(
            res.series_sum.real, rel=1e-12
        )

    def test_tail_estimate_reported(self, plant, ramp):
        res = p.harmonic_balance(plant, 0.4 * ramp.T, 500)
        assert res.tail_estimate > 0.0
        assert res.harmonics == 500
        bigger = p.harmonic_balance(plant, 0.4 * ramp.T, 1000)
        assert bigger.tail_estimate < res.tail_estimate

    def test_gain_reuse(self, plant, ramp):
        gains = p.harmonic_gains(plant, 800)
        a = p.harmonic_balance(plant, 0.3 * ramp.T, 800, gains=gains).vs
        b = p.harmonic_balance(plant, 0.3 * ramp.T, 800).vs
        assert a == b

    def test_vs_from_series_sum(self, plant, ramp):
        # The matrix and Taylor forms' rule: vs = slope / coefficient, with
        # the coefficient 2 fs Re(sum).
        for d in (0.2 * ramp.T, 0.65 * ramp.T):
            res = p.harmonic_balance(plant, d, 300)
            assert res.vs == ramp.slope / (2.0 * ramp.fs * res.series_sum.real)

    def test_zero_series_sum_gives_infinite_vs(self, plant, ramp):
        # Without a source column G = 0, so every form puts the boundary
        # at infinite source voltage.
        unfed = p.BuckPlant(A=plant.A, B=np.zeros(2), C=plant.C, ramp=ramp)
        res = p.harmonic_balance(unfed, 0.5 * ramp.T, 10)
        assert res.series_sum.real == 0.0
        assert res.vs == np.inf == p.vs_critical_lem(unfed, 0.5)

    def test_domain_checks(self, plant, ramp):
        with pytest.raises(DomainError):
            p.harmonic_balance(plant, 0.0, 100)
        with pytest.raises(DomainError):
            p.harmonic_balance(plant, 0.5 * ramp.T, 0)

    def test_harmonic_count_past_max_grid_steps(self, plant):
        # Refused before the 2K resolvents are allocated.
        with pytest.raises(DomainError, match="K must be <= 131072"):
            p.harmonic_gains(plant, p.numerics.MAX_GRID_STEPS + 1)

    @pytest.mark.parametrize("K", [0, -3])
    def test_harmonic_count_checked_with_precomputed_gains(self, plant, ramp, K):
        gains = p.harmonic_gains(plant, 10)
        d = 0.5 * ramp.T
        for call in (
            lambda: p.harmonic_balance(plant, d, K, gains=gains),
            lambda: p.equivalence_residual(plant, d, K, gains),
        ):
            with pytest.raises(DomainError, match="K must be >= 1"):
                call()


class TestEquivalence:
    def test_residual_small_at_k2000(self, plant, ramp):
        gains = p.harmonic_gains(plant, 2000)
        for D in np.linspace(0.05, 0.95, 81):
            d = (1.0 - D) * ramp.T
            res = p.equivalence_residual(plant, d, 2000, gains)
            rhs = p.lem_boundary_coefficient(plant, d)
            assert res <= 1e-4 * abs(rhs)

    def test_residual_shrinks_with_k(self, plant, ramp):
        d = 0.6 * ramp.T
        assert p.equivalence_residual(plant, d, 2000) <= p.equivalence_residual(
            plant, d, 20
        )

    def test_half_period_spot_check(self, plant, ramp):
        got = p.harmonic_balance(plant, 0.5 * ramp.T, 4000).vs
        assert got == pytest.approx(p.vs_critical_lem(plant, 0.5), rel=1e-6)


class TestTaylor:
    def test_printed_values(self):
        c = p.taylor_coefficients(0.0)
        assert (c.delta0, c.delta1, c.delta2) == (0.5, -0.25, 0.0)
        c = p.taylor_coefficients(0.5)
        assert c.delta0 == 0.0
        assert c.delta1 == pytest.approx(-1.0 / 8.0)
        assert c.delta2 == pytest.approx(0.0)
        c = p.taylor_coefficients(1.0)
        assert (c.delta0, c.delta1, c.delta2) == (-0.5, -0.25, 0.0)

    def test_duty_symmetries(self):
        for D in (0.1, 0.3, 0.45):
            a, b = p.taylor_coefficients(D), p.taylor_coefficients(1.0 - D)
            assert b.delta0 == pytest.approx(-a.delta0)
            assert b.delta1 == pytest.approx(a.delta1)

    def test_static_plant_exact(self, ramp):
        # With A = 0 only the leading term survives.
        plant = p.BuckPlant(A=np.zeros((2, 2)), B=[2.0, 0.0], C=[1.5, 0.0],
                            ramp=ramp)
        for D, vs in ((0.3, 4.0), (0.8,9.0)):
            want = p.taylor_coefficients(D).delta0 * 3.0 * vs - ramp.slope
            assert taylor_pdb_residual(plant, D, vs, order=0) == pytest.approx(want)
            assert taylor_pdb_residual(plant, D, vs, order=2) == pytest.approx(want)

    def test_slow_plant_within_one_percent(self, ramp):
        m = p.preset_vmc_buck(0.2, 100e-6, 50.0, GAIN, p.ModulationEdge.TEM)
        plant = p.make_buck_plant(m, ramp)
        assert np.max(np.abs(np.linalg.eigvals(plant.A))) * ramp.T <= 0.1
        for D in np.linspace(0.05, 0.95, 19):
            exact = p.vs_critical_tem(plant, D)
            approx = p.taylor_critical_vs(plant, D, order=2)
            assert abs(approx - exact) <= 0.01 * abs(exact)

    def test_fast_pole_breaks_truncation(self, ramp):
        # Real pole at half the switching frequency: discarded orders matter.
        ws = ramp.ws
        mu1, mu2 = -0.5 * ws, -500.0
        L2 = 0.02
        Cf2 = 1.0 / (mu1 * mu2 * L2)
        R2 = -1.0 / ((mu1 + mu2) * Cf2)
        m = p.preset_vmc_buck(L2, Cf2, R2, GAIN, p.ModulationEdge.TEM)
        plant = p.make_buck_plant(m, ramp)
        poles = np.linalg.eigvals(plant.A)
        assert np.allclose(np.sort(poles.real), [mu1, mu2], rtol=1e-9)
        worst = max(
            abs(p.taylor_critical_vs(plant, D, 2) - p.vs_critical_tem(plant, D))
            / abs(p.vs_critical_tem(plant, D))
            for D in np.linspace(0.05, 0.95, 19)
        )
        assert worst > 0.10

    def test_order_cap(self, plant):
        with pytest.raises(DomainError):
            taylor_pdb_residual(plant, 0.5, 1.0, order=3)


@pytest.mark.parametrize("call", [
    lambda plant, T: p.taylor_critical_vs(plant, 0.3, order=1.5),
    lambda plant, T: p.taylor_critical_vs(plant, 0.3, order=True),
    lambda plant, T: p.taylor_critical_vs(plant, 0.3, order=2.0),
    lambda plant, T: p.harmonic_gains(plant, 2.5),
    lambda plant, T: p.harmonic_balance(plant, 0.4 * T, 2.5),
    lambda plant, T: p.equivalence_residual(plant, 0.4 * T, 8.0),
])
def test_integer_arguments_must_be_integers(plant, ramp, call):
    with pytest.raises(DomainError, match="must be an integer"):
        call(plant, ramp.T)


@pytest.mark.parametrize("call", [
    lambda plant, T: p.buck_pdb_residual(plant, 0.5, 10 ** 400, "TEM"),
    lambda plant, T: p.buck_pdb_residual(plant, 0.5, True, "TEM"),
    lambda plant, T: p.vs_critical_tem(plant, "x"),
    lambda plant, T: p.vs_critical_lem(plant, 0.5 + 0.1j),
    lambda plant, T: p.lem_boundary_coefficient(plant, "x"),
    lambda plant, T: p.harmonic_balance(plant, 0.4j * T, 8),
    lambda plant, T: p.taylor_coefficients(True),
    lambda plant, T: p.taylor_coefficients("x"),
], ids=[
    "pdb_residual_huge_int_vs", "pdb_residual_bool_vs", "vs_critical_string_duty",
    "vs_critical_complex_duty", "lem_coefficient_string_d", "harmonic_balance_complex_d",
    "taylor_bool_duty", "taylor_string_duty",
])
def test_scalar_arguments_must_be_finite_reals(plant, ramp, call):
    with pytest.raises(DomainError, match="must be finite and real"):
        call(plant, ramp.T)


def test_numpy_integer_arguments_accepted(plant, ramp):
    assert p.taylor_critical_vs(plant, 0.3, order=np.int64(2)) == p.taylor_critical_vs(
        plant, 0.3, order=2
    )
    assert p.harmonic_balance(plant, 0.4 * ramp.T, np.int32(20)).harmonics == 20
