"""Tests of the exact time-domain simulator and its derived oracles."""

import math

import numpy as np
import pytest
import scipy.linalg

import pwmstab as p
from pwmstab import numerics
from pwmstab.errors import (
    DivergenceError,
    DomainError,
    NoConvergenceError,
    OracleInvalidError,
)
from conftest import UNIT_RAMP, critical_vs, find_fixed_point


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
            d = p.CycleSimulator(m, ramp, p.InputVector(vr, 0.0)).cycle([0.1, 0.1]).d_event
            want = ramp.T * (vr - ramp.Vl) / ramp.Vm
            assert d == pytest.approx(want, abs=1e-12 * ramp.T)

    def test_refinement_sign_disagreement_takes_nearest_edge(self, monkeypatch):
        # The scan sees the crossing just after grid[40] (event -1 ulp there,
        # positive at grid[41]), while the refinement's event function reads
        # a few ulps higher, as the two evaluation orders can make it.  The
        # regula-falsi point of the scan's values lies within the tolerance
        # of grid[40], where the series reads zero to that tolerance; the
        # event takes the bracket edge the scan found nearest zero, as the
        # orbit solver does.
        a = [[-1.0, 0.0], [0.0, -2.0]]
        m = p.SwitchedLinearModel(
            A1=a, A2=a, B1=np.zeros((2, 2)), B2=np.zeros((2, 2)),
            C=[0.0, 0.0], D=[1.0, 0.0], edge=p.ModulationEdge.TEM,
        )
        grid = np.linspace(0.0, 1.0, 129)
        vr = float(np.nextafter(grid[40], 1.0))
        newton_root = numerics.newton_root

        def shifted(f, *rest):
            def raised(t):
                value, slope = f(t)
                return value + 4e-16, slope
            return newton_root(raised, *rest)

        monkeypatch.setattr(numerics, "newton_root", shifted)
        sim = p.CycleSimulator(m, UNIT_RAMP, p.InputVector(vr, 0.0), scan_points=128)
        assert sim.cycle([0.1, 0.1]).d_event == grid[40] == 0.3125

    def test_frozen_dynamics(self):
        m = p.SwitchedLinearModel(
            A1=np.zeros((2, 2)), A2=np.zeros((2, 2)),
            B1=np.zeros((2, 2)), B2=np.zeros((2, 2)),
            C=[0.0, 0.0], D=[0.0, 0.0], edge=p.ModulationEdge.TEM,
        )
        x_in = np.array([1.25, -0.5])
        rec = p.CycleSimulator(m, UNIT_RAMP, p.InputVector(0, 0)).cycle(x_in)
        assert np.array_equal(rec.x_end, x_in)
        assert rec.d_event == 0.0  # h(0) >= y(0) = 0 triggers immediately

    def test_saturated_no_trigger(self):
        m = p.SwitchedLinearModel(
            A1=np.zeros((1, 1)), A2=np.zeros((1, 1)),
            B1=np.zeros((1, 2)), B2=np.zeros((1, 2)),
            C=[0.0], D=[1.0, 0.0], edge=p.ModulationEdge.TEM,
        )
        rec = p.CycleSimulator(m, UNIT_RAMP, p.InputVector(5.0, 0.0)).cycle([0.3])
        assert rec.d_event is None
        assert rec.x_end[0] == 0.3

    def test_fixed_point_property(self, buck_tem, ramp, u_tem, ss_tem):
        rec = p.CycleSimulator(buck_tem, ramp, u_tem).cycle(ss_tem.x0_start)
        x_out, d = rec.x_end, rec.d_event
        assert d is not None
        assert abs(d - ss_tem.d) <= 1e-8 * ramp.T
        assert np.linalg.norm(x_out - ss_tem.x0_start) <= 1e-9 * (
            1 + np.linalg.norm(ss_tem.x0_start)
        )

    def test_lem_fixed_point_property(self, buck_lem, ramp, u_lem, ss_lem):
        rec = p.CycleSimulator(buck_lem, ramp, u_lem).cycle(ss_lem.x0_start)
        x_out, d = rec.x_end, rec.d_event
        assert abs(d - ss_lem.d) <= 1e-8 * ramp.T
        assert np.linalg.norm(x_out - ss_lem.x0_start) <= 1e-9 * (
            1 + np.linalg.norm(ss_lem.x0_start)
        )

    def test_event_grid_independence(self, buck_tem, ramp, u_tem, ss_tem):
        # Doubling the scan grid must not move the refined event time.
        d1, d2 = (
            p.CycleSimulator(buck_tem, ramp, u_tem, scan_points=sp)
            .cycle(ss_tem.x0_start).d_event
            for sp in (512, 1024)
        )
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
        # The scan-grid responses and both stages' power stacks against one
        # scipy expm per point.
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
            for stage, aug in ((sim._stage1, sim._aug1), (sim._stage2, sim._aug2)):
                assert np.array_equal(stage.grid[0], np.eye(n + 1))
                for t, got in zip(sim._grid, stage.grid):
                    want = scipy.linalg.expm(aug * t)
                    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def reference_cycle(sim, x):
    """One cycle by the direct algorithm: the simulator's scan, then one
    ``scipy.linalg.expm`` per event evaluation and per propagation.
    Returns ``(d, x_switch, x_end)``, with ``d = x_switch = None`` when the
    comparator never triggers."""
    n, T = sim.model.n, sim.ramp.T

    def propagate(aug, x, t):
        m = scipy.linalg.expm(aug * t)
        return m[:n, :n] @ x + m[:n, n]

    def y(t):
        return float(sim.model.C @ propagate(sim._aug1, x, t) + sim._du)

    e = sim._h_grid - (sim._y_rows @ x + sim._y_offsets)
    hits = np.flatnonzero(e >= 0.0)
    if not hits.size:
        return None, None, propagate(sim._aug1, x, T)
    i = hits[0]
    d = float(sim._grid[i])
    if i > 0 and e[i] > 0.0:
        d = numerics.find_root(
            lambda t: sim.ramp.Vl + sim.ramp.slope * t - y(t),
            float(sim._grid[i - 1]), d, 1e-13 * T,
        )
    x_switch = propagate(sim._aug1, x, d)
    return d, x_switch, propagate(sim._aug2, x_switch, T - d)


_FAST = dict(A=[[-0.5, 40.0], [-40.0, -0.5]], B=[[0.0, 0.0], [0.0, 4.0]])
_SLOW = dict(A=[[-2.0, 0.5], [0.0, -1.5]], B=[[0.0, 0.0], [0.0, -1.0]])


def _fast_pole_model():
    # Stage S1 rings at 40 rad/s (poles -0.5 +- 40j) through the whole unit
    # cycle: at scan_points = 8 one scan step spans ||G1 h||_1 = 5.1, so the
    # refinement walks 2^3 sub-steps of a mode that is still excited.
    return p.SwitchedLinearModel(
        A1=_FAST["A"], A2=_SLOW["A"], B1=_FAST["B"], B2=_SLOW["B"],
        C=[0.4, 0.0], D=[1.0, 0.0], edge=p.ModulationEdge.TEM,
    ), p.InputVector(0.3, 1.0)


def _fast_stage2_model():
    # The mirror of _fast_pole_model: stage S2 rings at 40 rad/s, so the
    # run from a refined event to the next grid point walks 2^3 sub-steps.
    return p.SwitchedLinearModel(
        A1=_SLOW["A"], A2=_FAST["A"], B1=_SLOW["B"], B2=_FAST["B"],
        C=[0.4, 0.0], D=[1.0, 0.0], edge=p.ModulationEdge.TEM,
    ), p.InputVector(0.3, 1.0)


class TestReferenceCycle:
    """The exponential-free event refinement against the direct algorithm."""

    @staticmethod
    def _agree(sim, x):
        rec = sim.cycle(x)
        d, x_switch, x_end = reference_cycle(sim, x)
        T = sim.ramp.T
        assert (rec.d_event is None) == (d is None)
        if d is not None:
            assert abs(rec.d_event - d) <= 2e-13 * T
            assert np.linalg.norm(rec.x_switch - x_switch) <= 1e-12 * (
                1 + np.linalg.norm(x_switch)
            )
        assert np.linalg.norm(rec.x_end - x_end) <= 1e-12 * (1 + np.linalg.norm(x_end))
        return rec

    def test_model_cases(self, model_cases):
        refined = 0
        for model, rmp, u in model_cases:
            ss = p.solve_periodic_orbit(model, rmp, u)
            for sp in (64, 512):
                sim = p.CycleSimulator(model, rmp, u, scan_points=sp)
                x = ss.x0_start * 1.01 + 1e-3
                for _ in range(8):
                    rec = self._agree(sim, x)
                    refined += rec.d_event not in sim._grid
                    x = rec.x_end
        assert refined >= 80

    def test_clock_edge_trigger(self, buck_tem, ramp, ss_tem):
        # vr = 0: y(0) = -g vo lies below the ramp valley, so d = 0.
        sim = p.CycleSimulator(buck_tem, ramp, p.InputVector(0.0, 20.0))
        assert self._agree(sim, ss_tem.x0_start).d_event == 0.0

    def test_no_trigger(self, buck_tem, ramp, ss_tem):
        # vr = 30: y stays above the ramp peak all cycle.
        sim = p.CycleSimulator(buck_tem, ramp, p.InputVector(30.0, 20.0))
        assert self._agree(sim, ss_tem.x0_start).d_event is None

    def test_fast_pole_walks_sub_steps(self):
        model, u = _fast_pole_model()
        sim = p.CycleSimulator(model, UNIT_RAMP, u, scan_points=8)
        assert sim._stage1.substeps >= 8
        h = UNIT_RAMP.T / 8
        sub_steps = set()
        for a in np.linspace(-1.0, 1.0, 5):
            for b in np.linspace(-1.0, 1.0, 5):
                rec = self._agree(sim, np.array([a, b]))
                if rec.d_event is not None and rec.d_event not in sim._grid:
                    sub_steps.add(int(rec.d_event % h / sim._stage1.tau))
        assert len(sub_steps) >= 6

    def test_event_on_a_sub_step_boundary(self):
        # y = vr = 3/64 against h(t) = t: at scan_points = 8 the fast pole
        # splits the first scan step into 8 sub-steps of 1/64, and the walk
        # meets e = 0 exactly at the end of the third.  That value is the
        # event; there is no sign change left to refine.
        a = [[-40.0, 0.0], [0.0, -2.0]]
        m = p.SwitchedLinearModel(
            A1=a, A2=a, B1=np.zeros((2, 2)), B2=np.zeros((2, 2)),
            C=[0.0, 0.0], D=[1.0, 0.0], edge=p.ModulationEdge.TEM,
        )
        sim = p.CycleSimulator(m, UNIT_RAMP, p.InputVector(3 / 64, 0.0), scan_points=8)
        assert sim._stage1.substeps == 8
        assert self._agree(sim, np.array([0.1, 0.1])).d_event == 3 / 64

    def test_fast_stage2_walks_sub_steps(self):
        # Stage S2 runs from a refined event d in scan step i over the
        # remainder r = t_i - d by whole sub-steps and the series.
        model, u = _fast_stage2_model()
        sim = p.CycleSimulator(model, UNIT_RAMP, u, scan_points=8)
        assert sim._stage2.substeps >= 8
        sub_steps = set()
        for a in np.linspace(-1.0, 1.0, 7):
            for b in np.linspace(-1.0, 1.0, 5):
                rec = self._agree(sim, np.array([a, b]))
                if rec.d_event is not None and rec.d_event not in sim._grid:
                    i = np.searchsorted(sim._grid, rec.d_event)
                    sub_steps.add(int((sim._grid[i] - rec.d_event) / sim._stage2.tau))
        assert len(sub_steps) >= 6

    def test_truncation_order_is_the_smallest_that_meets_the_bound(self, model_cases):
        cases = model_cases + [
            (model, UNIT_RAMP, u) for model, u in (_fast_pole_model(), _fast_stage2_model())
        ]
        for model, rmp, u in cases:
            for sp in (8, 512):
                sim = p.CycleSimulator(model, rmp, u, scan_points=sp)
                for stage, aug in ((sim._stage1, sim._aug1), (sim._stage2, sim._aug2)):
                    rho = np.abs(aug).sum(axis=0).max() * stage.tau
                    assert rho <= 1.0 and (stage.substeps == 1 or 2.0 * rho > 1.0)
                    k = stage.orders[-1]
                    assert rho ** (k + 1) / math.factorial(k + 1) <= 2.0 ** -53
                    assert k == 0 or rho ** k / math.factorial(k) > 2.0 ** -53


class TestCycleWork:
    @pytest.fixture
    def expm_calls(self, monkeypatch):
        calls = []
        expm = scipy.linalg.expm

        def counted(a):
            calls.append(a.shape)
            return expm(a)

        monkeypatch.setattr(scipy.linalg, "expm", counted)
        return calls

    def test_two_exponentials_per_simulator(self, buck_tem, ramp, u_tem, expm_calls):
        # One step exponential e^{G_i h} per stage, of the augmented size.
        p.CycleSimulator(buck_tem, ramp, u_tem)
        n = buck_tem.n
        assert expm_calls == [(n + 1, n + 1)] * 2

    def test_no_exponential_per_switching_cycle(self, buck_tem, ramp, u_tem, ss_tem,
                                                expm_calls):
        # A trigger refined inside a scan step, and one at the clock edge.
        mid, edge = [p.CycleSimulator(buck_tem, ramp, u)
                     for u in (u_tem, p.InputVector(0.0, 20.0))]
        expm_calls.clear()
        d = mid.cycle(ss_tem.x0_start).d_event
        assert 0.0 < d < ramp.T and d not in mid._grid
        assert edge.cycle(ss_tem.x0_start).d_event == 0.0
        assert expm_calls == []

    def test_no_exponential_without_a_trigger(self, buck_tem, ramp, ss_tem, expm_calls):
        sim = p.CycleSimulator(buck_tem, ramp, p.InputVector(30.0, 20.0))
        expm_calls.clear()
        assert sim.cycle(ss_tem.x0_start).d_event is None
        assert expm_calls == []

    def test_at_most_four_evaluations_per_event(self, model_cases, monkeypatch):
        # Newton on the stage-1 series, seeded with the scan's values at the
        # bracket ends, evaluates the event a few times and never at an end.
        starts = []
        for model, rmp, u in model_cases:
            ss = p.solve_periodic_orbit(model, rmp, u)
            for sp in (64, 128, 512):
                starts.append((p.CycleSimulator(model, rmp, u, scan_points=sp),
                               ss.x0_start * 1.01 + 1e-3, 8))
        model, u = _fast_pole_model()
        fast = p.CycleSimulator(model, UNIT_RAMP, u, scan_points=8)
        for a in np.linspace(-1.0, 1.0, 5):
            for b in np.linspace(-1.0, 1.0, 5):
                starts.append((fast, np.array([a, b]), 1))

        newton_root = numerics.newton_root
        counts = []

        def counted(f, lo, hi, *rest):
            evals = []

            def event(t):
                assert lo < t < hi
                evals.append(t)
                return f(t)

            d = newton_root(event, lo, hi, *rest)
            counts.append(len(evals))
            return d

        monkeypatch.setattr(numerics, "newton_root", counted)
        for sim, x, cycles in starts:
            for _ in range(cycles):
                x = sim.map(x)
        assert len(counts) >= 100
        assert max(counts) <= 4


class TestStroboscopicMap:
    def test_fixed_point(self, buck_tem, ramp, u_tem, ss_tem):
        out = p.CycleSimulator(buck_tem, ramp, u_tem).map(ss_tem.x0_start)
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


class TestOracleArguments:
    # A bad step, tolerance or transient is the caller's fault: it raises
    # DomainError before any cycle is simulated, not a NaN Jacobian, a
    # DivergenceError or a "no period" None.
    @pytest.fixture(autouse=True)
    def no_cycles(self, monkeypatch):
        def cycle(self, x_in):
            raise AssertionError("a cycle was simulated")

        monkeypatch.setattr(p.CycleSimulator, "cycle", cycle)

    @pytest.mark.parametrize("eps", [0.0, -1e-6, math.nan, math.inf])
    def test_fd_jacobian_eps(self, buck_tem, ramp, u_tem, ss_tem, eps):
        with pytest.raises(DomainError, match="eps must be positive"):
            p.fd_jacobian(buck_tem, ramp, u_tem, ss_tem.x0_start, eps=eps)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_steady_period_tol(self, buck_tem, ramp, u_tem, ss_tem, tol):
        with pytest.raises(DomainError, match="tol must be positive"):
            p.steady_period(buck_tem, ramp, u_tem, ss_tem.x0_start, tol=tol)

    def test_steady_period_negative_transient(self, buck_tem, ramp, u_tem, ss_tem):
        with pytest.raises(DomainError, match="transient must be >= 0"):
            p.steady_period(buck_tem, ramp, u_tem, ss_tem.x0_start, transient=-5)

    @pytest.mark.parametrize("name, call", [
        ("scan_points", lambda m, r, u, x0: p.CycleSimulator(m, r, u, scan_points=8.5)),
        ("scan_points", lambda m, r, u, x0: p.CycleSimulator(m, r, u, scan_points=True)),
        ("cycles", lambda m, r, u, x0: p.simulate(m, r, u, x0, cycles=2.5)),
        ("tail", lambda m, r, u, x0: p.steady_period(m, r, u, x0, tail=64.5)),
        ("transient", lambda m, r, u, x0: p.steady_period(m, r, u, x0, transient=1.5)),
        ("scan_points", lambda m, r, u, x0: p.fd_jacobian(m, r, u, x0, scan_points=64.0)),
    ])
    def test_counts_must_be_integers(self, buck_tem, ramp, u_tem, ss_tem, name, call):
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            call(buck_tem, ramp, u_tem, ss_tem.x0_start)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_detect_period_tol(self, tol):
        with pytest.raises(DomainError, match="tol must be positive"):
            p.detect_period(np.tile([1.0, 2.0], (70, 1)), tol=tol)


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
            x = find_fixed_point(model, ramp, u, ss.x0_start)
            scale_x = 1 + np.linalg.norm(ss.x0_start)
            assert np.linalg.norm(x - ss.x0_start) <= 1e-8 * scale_x
            d_event = p.CycleSimulator(model, ramp, u).cycle(x).d_event
            assert abs(d_event - ss.d) <= 1e-8 * ramp.T
            checked += 1
        assert checked >= 6


class TestFindFixedPoint:
    def test_from_zero_state(self, buck_tem, ramp, u_tem, ss_tem):
        x = find_fixed_point(buck_tem, ramp, u_tem, np.zeros(2))
        assert np.linalg.norm(x - ss_tem.x0_start) <= 1e-8 * (
            1 + np.linalg.norm(ss_tem.x0_start)
        )

    def test_already_converged(self, buck_tem, ramp, u_tem, ss_tem):
        x = find_fixed_point(buck_tem, ramp, u_tem, ss_tem.x0_start, max_iter=1)
        assert np.array_equal(x, ss_tem.x0_start)

    def test_unstable_orbit_fails(self, buck_tem, ramp):
        vs_star = critical_vs(buck_tem, ramp, 11.3, 25.0)
        u = p.InputVector(11.3, 1.05 * vs_star)
        ss = p.solve_periodic_orbit(buck_tem, ramp, u)
        with pytest.raises(NoConvergenceError):
            find_fixed_point(buck_tem, ramp, u, ss.x0_start + 1e-4,
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
