"""Tests of the exact time-domain simulator and its derived oracles."""

import numpy as np
import pytest
import scipy.linalg

import pwmstab as p
from pwmstab.errors import (
    DivergenceError,
    DomainError,
    NoConvergenceError,
    OracleInvalidError,
)
from conftest import UNIT_RAMP, critical_vs


class TestSimulateCycle:
    def test_closed_form_crossing(self):
        # Constant compensator output: the sawtooth crossing is linear.
        a = [[-1.0, 0.0], [0.0, -2.0]]
        m = p.SwitchedLinearModel(
            A1=a, A2=a, B1=np.zeros((2, 2)), B2=np.zeros((2, 2)),
            C=[0.0, 0.0], D=[1.0, 0.0], edge=p.ModulationEdge.TEM,
        )
        ramp = p.RampSignal(1.0, 5.0, 2e-3)
        for vr in (1.5, 3.0, 4.9):
            _, d = p.simulate_cycle(m, ramp, p.InputVector(vr, 0.0), [0.1, 0.1])
            want = ramp.T * (vr - ramp.Vl) / ramp.Vm
            assert d == pytest.approx(want, abs=1e-12 * ramp.T)

    def test_frozen_dynamics(self):
        m = p.SwitchedLinearModel(
            A1=np.zeros((2, 2)), A2=np.zeros((2, 2)),
            B1=np.zeros((2, 2)), B2=np.zeros((2, 2)),
            C=[0.0, 0.0], D=[0.0, 0.0], edge=p.ModulationEdge.TEM,
        )
        x_in = np.array([1.25, -0.5])
        x_out, d = p.simulate_cycle(m, UNIT_RAMP, p.InputVector(0, 0), x_in)
        assert np.array_equal(x_out, x_in)
        assert d == 0.0  # h(0) >= y(0) = 0 triggers immediately

    def test_saturated_no_trigger(self):
        m = p.SwitchedLinearModel(
            A1=np.zeros((1, 1)), A2=np.zeros((1, 1)),
            B1=np.zeros((1, 2)), B2=np.zeros((1, 2)),
            C=[0.0], D=[1.0, 0.0], edge=p.ModulationEdge.TEM,
        )
        x_out, d = p.simulate_cycle(m, UNIT_RAMP, p.InputVector(5.0, 0.0), [0.3])
        assert d is None
        assert x_out[0] == 0.3

    def test_fixed_point_property(self, buck_tem, ramp, u_tem, ss_tem):
        x_out, d = p.simulate_cycle(buck_tem, ramp, u_tem, ss_tem.x0_start)
        assert d is not None
        assert abs(d - ss_tem.d) <= 1e-8 * ramp.T
        assert np.linalg.norm(x_out - ss_tem.x0_start) <= 1e-9 * (
            1 + np.linalg.norm(ss_tem.x0_start)
        )

    def test_lem_fixed_point_property(self, buck_lem, ramp, u_lem, ss_lem):
        x_out, d = p.simulate_cycle(buck_lem, ramp, u_lem, ss_lem.x0_start)
        assert abs(d - ss_lem.d) <= 1e-8 * ramp.T
        assert np.linalg.norm(x_out - ss_lem.x0_start) <= 1e-9 * (
            1 + np.linalg.norm(ss_lem.x0_start)
        )

    def test_event_grid_independence(self, buck_tem, ramp, u_tem, ss_tem):
        # Doubling the scan grid must not move the refined event time.
        _, d1 = p.simulate_cycle(buck_tem, ramp, u_tem, ss_tem.x0_start,
                                 scan_points=512)
        _, d2 = p.simulate_cycle(buck_tem, ramp, u_tem, ss_tem.x0_start,
                                 scan_points=1024)
        assert abs(d1 - d2) < 1e-10 * ramp.T

    def test_divergence_error(self):
        m = p.SwitchedLinearModel(
            A1=[[5.0, 0.0], [0.0, 5.0]], A2=[[5.0, 0.0], [0.0, 5.0]],
            B1=np.zeros((2, 2)), B2=[[0.0, 1.0], [0.0, 0.0]],
            C=[1.0, 0.0], D=[0.0, 0.0], edge=p.ModulationEdge.TEM,
        )
        with pytest.raises(DivergenceError):
            p.simulate(m, UNIT_RAMP, p.InputVector(0.0, 1.0), [0.5, 0.0], 400)


class TestScanGrid:
    def test_rows_match_per_point_expm(self, model_cases):
        # The stacked scan-grid responses against one scipy expm per point.
        for model, rmp, u in model_cases:
            sim = p.CycleSimulator(model, rmp, u, scan_points=64)
            n = model.n
            du = float(model.D @ u.as_array())
            for t, row, off in zip(sim._grid, sim._y_rows, sim._y_offsets):
                m = scipy.linalg.expm(sim._aug1 * t)
                want_row = model.C @ m[:n, :n]
                want_off = model.C @ m[:n, n] + du
                assert np.linalg.norm(row - want_row) <= 1e-12 * np.linalg.norm(want_row)
                assert abs(off - want_off) <= 1e-12 * max(abs(want_off), 1.0)
            assert np.array_equal(sim._y_rows[0], model.C)


class TestStroboscopicMap:
    def test_fixed_point(self, buck_tem, ramp, u_tem, ss_tem):
        out = p.stroboscopic_map(buck_tem, ramp, u_tem, ss_tem.x0_start)
        assert np.allclose(out, ss_tem.x0_start, atol=1e-9)

    def test_local_linearity_order(self, buck_tem, ramp, u_tem, ss_tem):
        # map(x* + eps v) - x* ~ eps Phi v with O(eps^2) error: halving eps
        # must shrink the defect at order >= 1.9.
        jd = p.jacobian(buck_tem, ramp, u_tem, ss_tem)
        sim = p.CycleSimulator(buck_tem, ramp, u_tem)
        v = np.array([0.6, 0.8])
        errs = []
        for eps in (1e-3, 5e-4, 2.5e-4):
            out = sim.map(ss_tem.x0_start + eps * v)
            errs.append(np.linalg.norm(out - ss_tem.x0_start - eps * (jd.Phi @ v)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.9)

    def test_contraction_to_fixed_point(self, buck_tem, ramp, u_tem, ss_tem):
        rep = p.classify(p.jacobian(buck_tem, ramp, u_tem, ss_tem))
        assert rep.spectral_radius < 1
        sim = p.CycleSimulator(buck_tem, ramp, u_tem)
        x = ss_tem.x0_start + np.array([0.05, 0.5])
        for _ in range(200):
            x = sim.map(x)
        assert np.linalg.norm(x - ss_tem.x0_start) <= 1e-9 * (
            1 + np.linalg.norm(ss_tem.x0_start)
        )


class TestFdJacobian:
    def test_smooth_model_gives_exponential(self):
        from pwmstab import numerics
        a = [[-1.0, 0.3], [0.0, -2.0]]
        b = [[0.0, 0.4], [0.0, 0.6]]
        m = p.SwitchedLinearModel(A1=a, A2=a, B1=b, B2=b, C=[1.0, 0.2],
                                  D=[1.0, 0.0], edge=p.ModulationEdge.TEM)
        u = p.InputVector(0.2, 0.5)
        ss = p.solve_periodic_orbit(m, UNIT_RAMP, u)
        fd = p.fd_jacobian(m, UNIT_RAMP, u, ss.x0_start, eps=1e-6)
        assert np.allclose(fd, numerics.mat_exp(np.asarray(a), 1.0), atol=1e-7)

    def test_buck_matches_closed_form(self, buck_lem, ramp, u_lem, ss_lem):
        jd = p.jacobian(buck_lem, ramp, u_lem, ss_lem)
        fd = p.fd_jacobian(buck_lem, ramp, u_lem, ss_lem.x0_start, eps=1e-5)
        assert np.max(np.abs(fd - jd.Phi) / np.abs(jd.Phi)) <= 1e-6

    def test_step_sweep_v_curve(self, buck_tem, ramp, u_tem, ss_tem):
        # Truncation error dominates at large steps, roundoff at tiny ones.
        jd = p.jacobian(buck_tem, ramp, u_tem, ss_tem)
        def err(eps):
            fd = p.fd_jacobian(buck_tem, ramp, u_tem, ss_tem.x0_start, eps=eps)
            return np.max(np.abs(fd - jd.Phi) / np.abs(jd.Phi))
        mid = err(1e-5)
        assert mid < err(1e-2)
        assert mid < err(1e-9)

    def test_not_fixed_point_rejected(self, buck_tem, ramp, u_tem, ss_tem):
        with pytest.raises(DomainError):
            p.fd_jacobian(buck_tem, ramp, u_tem, ss_tem.x0_start + 0.1)

    def test_saturating_probe_rejected(self):
        # Orbit hugging the duty rail: a coarse probe step drives the
        # perturbed cycle into immediate trigger.
        a = [[-1.0]]
        m = p.SwitchedLinearModel(
            A1=a, A2=a, B1=np.zeros((1, 2)), B2=[[0.0, 1.0]],
            C=[1.0], D=[0.0, 0.0], edge=p.ModulationEdge.TEM,
        )
        u = p.InputVector(0.0, 0.05)
        ss = p.solve_periodic_orbit(m, UNIT_RAMP, u)
        assert ss.d < 0.1
        with pytest.raises(OracleInvalidError):
            p.fd_jacobian(m, UNIT_RAMP, u, ss.x0_start, eps=0.2)


class TestOracleAgreement:
    def test_random_presets_round_trip(self, ramp):
        # Closed-form orbit vs simulator fixed point across preset variants.
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(12):
            scale = rng.uniform(0.7, 1.3, size=4)
            edge = p.ModulationEdge.TEM if rng.random() < 0.5 else p.ModulationEdge.LEM
            model = p.preset_vmc_buck(
                20e-3 * scale[0], 47e-6 * scale[1], 22.0 * scale[2],
                8.4 * scale[3], edge,
            )
            sign = 1.0 if edge is p.ModulationEdge.TEM else -1.0
            u = p.InputVector(sign * rng.uniform(10.0, 12.0), sign * 20.0)
            try:
                ss = p.solve_periodic_orbit(model, ramp, u)
            except p.NoSwitchingError:
                continue
            rep = p.classify(p.jacobian(model, ramp, u, ss))
            if rep.spectral_radius >= 0.98:
                continue  # fixed-point iteration would crawl or fail
            x = p.find_fixed_point(model, ramp, u, ss.x0_start)
            scale_x = 1 + np.linalg.norm(ss.x0_start)
            assert np.linalg.norm(x - ss.x0_start) <= 1e-8 * scale_x
            _, d_event = p.simulate_cycle(model, ramp, u, x)
            assert abs(d_event - ss.d) <= 1e-8 * ramp.T
            checked += 1
        assert checked >= 6


class TestFindFixedPoint:
    def test_from_zero_state(self, buck_tem, ramp, u_tem, ss_tem):
        x = p.find_fixed_point(buck_tem, ramp, u_tem, np.zeros(2))
        assert np.linalg.norm(x - ss_tem.x0_start) <= 1e-8 * (
            1 + np.linalg.norm(ss_tem.x0_start)
        )

    def test_already_converged(self, buck_tem, ramp, u_tem, ss_tem):
        x = p.find_fixed_point(buck_tem, ramp, u_tem, ss_tem.x0_start, max_iter=1)
        assert np.array_equal(x, ss_tem.x0_start)

    def test_unstable_orbit_fails(self, buck_tem, ramp):
        vs_star = critical_vs(buck_tem, ramp, 11.3, 25.0)
        u = p.InputVector(11.3, 1.05 * vs_star)
        ss = p.solve_periodic_orbit(buck_tem, ramp, u)
        with pytest.raises(NoConvergenceError):
            p.find_fixed_point(buck_tem, ramp, u, ss.x0_start + 1e-4,
                               max_iter=400)


class TestDetectPeriod:
    def test_constant_tail(self):
        states = np.tile([1.0, 2.0], (70, 1))
        assert p.detect_period(states) == 1

    def test_alternating_tail(self):
        states = np.tile([[1.0, 0.0], [0.0, 1.0]], (40, 1))
        assert p.detect_period(states) == 2

    def test_aperiodic_tail(self):
        rng = np.random.default_rng(6)
        assert p.detect_period(rng.normal(size=(80, 2))) is None

    def test_short_tail_rejected(self):
        with pytest.raises(DomainError):
            p.detect_period(np.zeros((10, 2)))

    def test_period_flip_across_boundary(self, buck_tem, ramp):
        vs_star = critical_vs(buck_tem, ramp, 11.3, 25.0)
        for factor, want in ((0.98, 1), (1.02, 2)):
            u = p.InputVector(11.3, factor * vs_star)
            ss = p.solve_periodic_orbit(buck_tem, ramp, u)
            per = p.steady_period(
                buck_tem, ramp, u, ss.x0_start + 1e-3 * np.ones(2)
            )
            assert per == want

    def test_onset_brackets_boundary_tightly(self, buck_tem, ramp):
        # The 1 -> 2 flip happens within 0.1% of the closed-form boundary;
        # transients this close to onset decay slowly, hence the long run.
        vs_star = critical_vs(buck_tem, ramp, 11.3, 25.0)
        for factor, want in ((0.999, 1), (1.001, 2)):
            u = p.InputVector(11.3, factor * vs_star)
            ss = p.solve_periodic_orbit(buck_tem, ramp, u)
            per = p.steady_period(
                buck_tem, ramp, u, ss.x0_start + 1e-3 * np.ones(2),
                transient=2000,
            )
            assert per == want
