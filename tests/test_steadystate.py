"""Tests of the periodic steady-state solver."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate

import pwmstab as p
from pwmstab import numerics, steadystate
from pwmstab.errors import (
    DegenerateOrbitError,
    DimensionError,
    DivergenceError,
    DomainError,
    NoConvergenceError,
    NoSwitchingError,
)
from conftest import UNIT_RAMP, find_fixed_point, mat_exp_integral, switching_residual


def _const_y_model(c_row=(0.0, 0.0), d_row=(1.0, 0.0)):
    a = [[-1.0, 0.0], [0.0, -2.0]]
    return p.SwitchedLinearModel(
        A1=a, A2=a, B1=np.zeros((2, 2)), B2=np.zeros((2, 2)),
        C=list(c_row), D=list(d_row), edge=p.ModulationEdge.TEM,
    )


def _integrate_stage(model, stage, x0, t_span, u):
    a = model.A1 if stage == 1 else model.A2
    b = (model.B1 if stage == 1 else model.B2) @ u.as_array()
    sol = scipy.integrate.solve_ivp(
        lambda _, x: a @ x + b, t_span, x0, rtol=1e-12, atol=1e-13,
    )
    return sol.y[:, -1]


class TestX0OfD:
    def test_pure_integrator_degenerate(self):
        m = p.SwitchedLinearModel(
            A1=np.zeros((2, 2)), A2=np.zeros((2, 2)),
            B1=np.zeros((2, 2)), B2=np.zeros((2, 2)),
            C=[0, 0], D=[0, 0], edge=p.ModulationEdge.TEM,
        )
        with pytest.raises(DegenerateOrbitError):
            steadystate.x0_of_d(m, UNIT_RAMP, p.InputVector(0, 0), 0.5)

    def test_identical_stages_equilibrium(self):
        # xdot = -x + vs in both stages: the orbit is the equilibrium.
        a = [[-1.0]]
        b = [[0.0, 1.0]]
        m = p.SwitchedLinearModel(A1=a, A2=a, B1=b, B2=b, C=[0.0], D=[1.0, 0.0],
                                  edge=p.ModulationEdge.TEM)
        vs = 3.7
        for d in (0.1, 0.5, 0.93):
            x0, xd = steadystate.x0_of_d(m, UNIT_RAMP, p.InputVector(0.0, vs), d)
            assert x0[0] == pytest.approx(vs, rel=1e-12)
            assert xd[0] == pytest.approx(vs, rel=1e-12)

    def test_buck_closure_against_ode(self, buck_tem, ramp, u_tem):
        # Propagate the returned start state through both stages by direct
        # ODE integration (independent of the matrix-exponential path).
        d = 0.5 * ramp.T
        x0, xd = steadystate.x0_of_d(buck_tem, ramp, u_tem, d)
        mid = _integrate_stage(buck_tem, 1, x0, (0.0, d), u_tem)
        end = _integrate_stage(buck_tem, 2, mid, (d, ramp.T), u_tem)
        assert np.allclose(mid, xd, rtol=1e-9, atol=1e-9)
        assert np.linalg.norm(end - x0) <= 1e-9 * (1 + np.linalg.norm(x0))

    def test_domain_check(self, buck_tem, ramp, u_tem):
        with pytest.raises(DomainError):
            steadystate.x0_of_d(buck_tem, ramp, u_tem, -0.1 * ramp.T)

    @pytest.mark.parametrize("d", ["x", 1j, 10 ** 400])
    def test_switching_time_must_be_finite_real(self, buck_tem, ramp, u_tem, d):
        with pytest.raises(DomainError, match="d must be finite and real"):
            p.orbit_at(buck_tem, ramp, u_tem, d)


class TestSwitchingResidual:
    def test_zero_at_solution(self, buck_tem, ramp, u_tem, ss_tem):
        res = switching_residual(buck_tem, ramp, u_tem, ss_tem.d)
        assert abs(res) <= 1e-9 * ramp.slope * ramp.T

    def test_pure_ramp_negative(self):
        m = _const_y_model(d_row=(0.0, 0.0))
        for d in np.linspace(0.05, 0.95, 7):
            res = switching_residual(m, UNIT_RAMP, p.InputVector(0.7, 0), d)
            assert res == pytest.approx(-p.ramp_value(UNIT_RAMP, d))
            assert res < 0

    def test_buck_sign_change_on_grid(self, buck_tem, ramp, u_tem):
        ds = np.linspace(0, ramp.T, 1002)[1:-1]
        vals = [switching_residual(buck_tem, ramp, u_tem, d) for d in ds]
        signs = np.sign(vals)
        assert np.any(signs[:-1] * signs[1:] < 0)


class TestBatchedScan:
    def test_matches_scalar_path(self, model_cases):
        for model, rmp, u in model_cases:
            grid = np.linspace(0.0, rmp.T, 66)[1:-1]
            points, ok = steadystate.orbit_grid(model, rmp, u, grid)
            assert ok.all()
            values = points.y_switch - p.ramp_value(rmp, grid)
            for i, d in enumerate(grid):
                x0_ref, xd_ref = steadystate.x0_of_d(model, rmp, u, d)
                x0, xd = points.x0_start[i], points.x0_switch[i]
                assert np.linalg.norm(x0 - x0_ref) <= 1e-12 * np.linalg.norm(x0_ref)
                assert np.linalg.norm(xd - xd_ref) <= 1e-12 * np.linalg.norm(xd_ref)
                ref = switching_residual(model, rmp, u, d)
                assert abs(values[i] - ref) <= 1e-12 * max(abs(ref), rmp.Vm)

    def test_every_field_matches_orbit_at(self, model_cases):
        # Slice i of the stacked points is the orbit_at point at grid[i].
        for model, rmp, u in model_cases:
            grid = np.linspace(0.0, rmp.T, 18)[1:-1]
            points, ok = steadystate.orbit_grid(model, rmp, u, grid)
            assert ok.all()
            for i, d in enumerate(grid):
                ref = p.orbit_at(model, rmp, u, d)
                assert points.d[i] == d
                assert abs(points.duty[i] - ref.duty) <= 1e-12
                scale = max(abs(ref.y_switch), rmp.Vm)
                assert abs(points.y_switch[i] - ref.y_switch) <= 1e-12 * scale
                for name in ("phi0", "gamma", "cm1", "c_xdot_minus"):
                    got, want = getattr(points, name)[i], getattr(ref, name)
                    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), name

    @pytest.mark.parametrize("grid_points", [64, 256])
    def test_power_scan_matches_per_point_scan(self, model_cases, grid_points, monkeypatch):
        # The solver's scan (powers of two step exponentials) against
        # orbit_at's point (one scipy expm per stage and point) on the same
        # abscissae, and the orbit each scan leads the solver to.
        model, ramp, u, _ = p.build(p.parse_config(TWO_CANDIDATE_TEXT))
        cases = model_cases + [(model, ramp, u)]

        def per_point_scan(evaluator, grid_points):
            grid = np.linspace(0.0, evaluator.ramp.T, grid_points + 2)[1:-1]
            y = [evaluator.point(d)[0].y_switch for d in grid]
            return SimpleNamespace(d=grid, y_switch=np.array(y)), np.ones(grid.size, bool)

        solved = []
        for model, rmp, u in cases:
            evaluator = steadystate._OrbitEvaluator(model, rmp, u)
            points, ok = evaluator.scan(grid_points)
            ref, ref_ok = per_point_scan(evaluator, grid_points)
            assert np.array_equal(points.d, ref.d)
            assert np.array_equal(ok, ref_ok)
            h = p.ramp_value(rmp, points.d)
            got, want = points.y_switch - h, ref.y_switch - h
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            solved.append(p.solve_periodic_orbit(model, rmp, u, grid_points=grid_points).d)
        monkeypatch.setattr(steadystate._OrbitEvaluator, "scan", per_point_scan)
        for (model, rmp, u), d in zip(cases, solved):
            ref = p.solve_periodic_orbit(model, rmp, u, grid_points=grid_points)
            assert abs(d - ref.d) <= 1e-12 * rmp.T

    def test_switching_time_outside_period(self, buck_tem, ramp, u_tem):
        for bad in (-0.1 * ramp.T, 1.1 * ramp.T, np.nan):
            grid = np.array([0.25 * ramp.T, bad])
            with pytest.raises(DomainError):
                steadystate.orbit_grid(buck_tem, ramp, u_tem, grid)

    def test_switching_times_must_be_1d(self, buck_tem, ramp, u_tem):
        for bad in (0.25 * ramp.T, np.full((2, 2), 0.25 * ramp.T)):
            with pytest.raises(DimensionError):
                steadystate.orbit_grid(buck_tem, ramp, u_tem, bad)

    def test_degenerate_points_are_nan(self):
        # Pure integrator: every grid point is degenerate in both paths.
        m = p.SwitchedLinearModel(
            A1=np.zeros((2, 2)), A2=np.zeros((2, 2)),
            B1=[[0.0, 1.0], [0.0, 0.0]], B2=np.zeros((2, 2)),
            C=[1.0, 0.0], D=[0.0, 0.0], edge=p.ModulationEdge.TEM,
        )
        u = p.InputVector(0.0, 1.0)
        grid = np.linspace(0.1, 0.9, 5)
        points, ok = steadystate.orbit_grid(m, UNIT_RAMP, u, grid)
        assert not ok.any()
        assert np.isnan(points.x0_start).all() and np.isnan(points.x0_switch).all()
        for d in grid:
            with pytest.raises(DegenerateOrbitError):
                steadystate.x0_of_d(m, UNIT_RAMP, u, d)

    def test_refinement_sign_disagreement_takes_bracket_edge(self, monkeypatch):
        # The scan sees a crossing just after grid[i] (residual +1 ulp there,
        # negative at grid[i + 1]), while the refinement's residual at
        # grid[i] is a few ulps lower, as the two evaluation orders can
        # make it.  The regula-falsi start lies within d_tol of grid[i], so
        # the refinement evaluates that edge and stops there: its Newton
        # step is a few ulps long.
        m = _const_y_model()
        grid = np.linspace(0.0, 1.0, 66)[1:-1]
        vr = float(np.nextafter(grid[20], 1.0))
        point = steadystate._OrbitEvaluator.point

        def lowered(self, d):
            ss, factor = point(self, d)
            return replace(ss, y_switch=ss.y_switch - 4e-16), factor

        monkeypatch.setattr(steadystate._OrbitEvaluator, "point", lowered)
        ss = p.solve_periodic_orbit(m, UNIT_RAMP, p.InputVector(vr, 0.0), grid_points=64)
        assert ss.d == grid[20]
        assert ss.candidates == 1


# A general N = 2 model whose scan shows two sign changes (two candidate
# switching instants); the latch takes the first.
TWO_CANDIDATE_TEXT = """\
[model]
edge = TEM
A1 = -1.49017,-0.306048; -0.258727,-2.6326
A2 = -6.56156,1.10869; 2.81967,-1.6154
B1 = 0.849734,-0.454851; 0.151,-0.94896
B2 = 0.974363,0.552529; 1.15703,0.253909
C = 1.02215,-1.24523
D = 0.767516,-0.0659535

[ramp]
Vl = 0
Vh = 1
T = 1

[input]
vr = 0.442459
vs = 1.23162

[solver]
grid_points = 64
"""


class TestOrderedCandidates:
    @pytest.fixture
    def case(self):
        model, ramp, u, solver = p.build(p.parse_config(TWO_CANDIDATE_TEXT))
        # Reference: every bracket of the solver's scan refined on its own.
        points, _ = steadystate._OrbitEvaluator(model, ramp, u).scan(solver.grid_points)
        grid = points.d
        values = points.y_switch - p.ramp_value(ramp, grid)
        brackets = np.flatnonzero(values[:-1] * values[1:] < 0.0)

        def point(d):
            ss = steadystate.orbit_at(model, ramp, u, d)
            return (switching_residual(model, ramp, u, d),
                    float(steadystate.critical_value(ss, 1.0)) - ramp.slope)

        roots = [
            numerics.newton_root(
                point, grid[i], grid[i + 1], values[i], values[i + 1], 1e-12 * ramp.T,
            )
            for i in brackets
        ]
        assert len(roots) == 2 and roots[0] < roots[1]
        return model, ramp, u, solver, grid[brackets], roots

    def _patch_refinement(self, monkeypatch, degenerate_at=()):
        # Counts refinements; a bracket starting at a point of
        # ``degenerate_at`` raises as a degenerate orbit would.
        newton_root = numerics.newton_root
        calls = []

        def wrapped(f, lo, *rest):
            calls.append(lo)
            if lo in degenerate_at:
                raise DegenerateOrbitError("forced")
            return newton_root(f, lo, *rest)

        monkeypatch.setattr(numerics, "newton_root", wrapped)
        return calls

    def test_refines_only_the_first_candidate(self, case, monkeypatch):
        model, ramp, u, solver, _, roots = case
        calls = self._patch_refinement(monkeypatch)
        ss = p.solve_periodic_orbit(model, ramp, u, grid_points=solver.grid_points)
        assert len(calls) == 1
        assert ss.d == min(roots)
        assert ss.candidates == 2
        x0_start, _ = steadystate.x0_of_d(model, ramp, u, min(roots))
        assert np.array_equal(ss.x0_start, x0_start)

    def test_degenerate_first_candidate_falls_through(self, case, monkeypatch):
        model, ramp, u, solver, los, roots = case
        calls = self._patch_refinement(monkeypatch, degenerate_at=(los[0],))
        ss = p.solve_periodic_orbit(model, ramp, u, grid_points=solver.grid_points)
        assert calls == list(los)
        assert ss.d == roots[1]
        assert ss.candidates == 2

    def test_all_candidates_degenerate(self, case, monkeypatch):
        model, ramp, u, solver, los, _ = case
        self._patch_refinement(monkeypatch, degenerate_at=tuple(los))
        with pytest.raises(DegenerateOrbitError, match="all 2 switching candidates"):
            p.solve_periodic_orbit(model, ramp, u, grid_points=solver.grid_points)



class TestOnePointPerEvaluation:
    # The solver returns the orbit point its refinement already built: the
    # scan takes two step exponentials and each residual evaluation the two
    # stage exponentials, nothing more.
    def _count(self, monkeypatch):
        counts = {"exp": 0, "evals": 0}
        mat_exp, newton_root = numerics.mat_exp, numerics.newton_root

        def counted_exp(*args):
            counts["exp"] += 1
            return mat_exp(*args)

        def counted_root(f, *rest):
            def g(t):
                counts["evals"] += 1
                return f(t)
            return newton_root(g, *rest)

        monkeypatch.setattr(numerics, "mat_exp", counted_exp)
        monkeypatch.setattr(numerics, "newton_root", counted_root)
        return counts

    def test_two_exponentials_per_evaluation(self, model_cases, monkeypatch):
        # Newton from the scan's regula-falsi point needs at most three
        # evaluations on these models, at either grid.
        model, ramp, u, _ = p.build(p.parse_config(TWO_CANDIDATE_TEXT))
        cases = model_cases + [(model, ramp, u)]
        assert [c[0].n for c in cases] == [2, 2, 2, 3, 4, 5, 2]
        counts = self._count(monkeypatch)
        for grid_points in (64, 256):
            for model, ramp, u in cases:
                counts.update(exp=0, evals=0)
                p.solve_periodic_orbit(model, ramp, u, grid_points=grid_points)
                assert 0 < counts["evals"] <= 3
                assert counts["exp"] == 2 * counts["evals"] + 2

    def test_one_factorization_per_evaluation(self, model_cases, monkeypatch):
        # The factor of I - Phi0 that solves x0 also gives the Newton
        # slope's (I - Phi0)^{-1} Gamma: one guarded factorization and two
        # exponentials per evaluation; the scan factors nothing one by one.
        counts = self._count(monkeypatch)
        factor_linear = numerics.factor_linear

        def counted_factor(m):
            counts["factor"] += 1
            return factor_linear(m)

        monkeypatch.setattr(numerics, "factor_linear", counted_factor)
        for grid_points in (64, 256):
            for model, ramp, u in model_cases:
                counts.update(exp=0, evals=0, factor=0)
                p.solve_periodic_orbit(model, ramp, u, grid_points=grid_points)
                assert counts["evals"] > 0
                assert counts["factor"] == counts["evals"]
                assert counts["exp"] == 2 * counts["evals"] + 2

    def test_slope_is_critical_value_at_plus_one(self, model_cases, monkeypatch):
        # Each Newton slope equals F(+1) - hdot of a fresh orbit_at point,
        # bit for bit.
        seen = []
        newton_root = numerics.newton_root

        def recorded(f, *rest):
            def g(t):
                r, slope = f(t)
                seen.append((t, slope))
                return r, slope
            return newton_root(g, *rest)

        monkeypatch.setattr(numerics, "newton_root", recorded)
        for grid_points in (64, 256):
            for model, ramp, u in model_cases:
                seen.clear()
                p.solve_periodic_orbit(model, ramp, u, grid_points=grid_points)
                assert seen
                for t, slope in seen:
                    ss = steadystate.orbit_at(model, ramp, u, t)
                    assert slope == float(steadystate.critical_value(ss, 1.0)) - ramp.slope

    def test_grid_zero_builds_one_point(self, monkeypatch):
        grid = np.linspace(0.0, 1.0, 66)[1:-1]
        counts = self._count(monkeypatch)
        ss = p.solve_periodic_orbit(
            _const_y_model(), UNIT_RAMP, p.InputVector(float(grid[20]), 0.0),
            grid_points=64,
        )
        assert ss.d == grid[20]
        assert counts == {"exp": 4, "evals": 0}

    def test_one_evaluator_per_solve(self, model_cases, monkeypatch):
        # The scan, every Newton step and a grid zero's point share one
        # evaluator, so the stage generators are built once per solve.
        calls = []
        stage_generators = steadystate.stage_generators

        def counted(*args):
            calls.append(args)
            return stage_generators(*args)

        monkeypatch.setattr(steadystate, "stage_generators", counted)
        grid = np.linspace(0.0, 1.0, 66)[1:-1]
        solves = [
            (model, ramp, u, grid_points)
            for grid_points in (64, 256) for model, ramp, u in model_cases
        ]
        solves.append(
            (_const_y_model(), UNIT_RAMP, p.InputVector(float(grid[20]), 0.0), 64)
        )
        for model, ramp, u, grid_points in solves:
            calls.clear()
            ss = p.solve_periodic_orbit(model, ramp, u, grid_points=grid_points)
            assert len(calls) == 1, (model.n, grid_points, ss.d)


def _loop_candidates(values):
    # The scan loop the candidate masks replaced, kept as their reference.
    out = []
    for i in range(len(values) - 1):
        a, b = values[i], values[i + 1]
        if np.isnan(a) or np.isnan(b):
            continue
        if a == 0.0:
            out.append((i, i))
        elif a * b < 0.0:
            out.append((i, i + 1))
    if values[-1] == 0.0:
        out.append((len(values) - 1, len(values) - 1))
    return out


def test_candidate_masks_match_loop(monkeypatch):
    # Scans mixing sign changes, exact zeros and NaN (degenerate) points.
    # Every refinement and the orbit at an exact zero are forced degenerate,
    # so the solver walks its candidates in order up to the first zero.
    seen = []

    def refine(f, lo, hi, *rest):
        seen.append((lo, hi))
        raise DegenerateOrbitError("forced")

    def orbit(evaluator, d):
        seen.append((d, d))
        raise DegenerateOrbitError("forced")

    real_scan = steadystate._OrbitEvaluator.scan

    def scan(evaluator, grid_points):
        # The real scan, its switching residual replaced by ``values``.
        points, ok = real_scan(evaluator, grid_points)
        return replace(points, y_switch=values + p.ramp_value(evaluator.ramp, points.d)), ok

    monkeypatch.setattr(numerics, "newton_root", refine)
    monkeypatch.setattr(steadystate._OrbitEvaluator, "point", orbit)
    monkeypatch.setattr(steadystate._OrbitEvaluator, "scan", scan)
    grid = np.linspace(0.0, 1.0, 10)[1:-1]
    rng = np.random.default_rng(7)
    for _ in range(300):
        values = rng.choice([-1.5, -0.5, 0.0, 0.5, 1.5, np.nan], size=8)
        want = _loop_candidates(values)
        zeros = [k for k, (lo, hi) in enumerate(want) if lo == hi]
        walked = want[:zeros[0] + 1] if zeros else want
        seen.clear()
        with pytest.raises((DegenerateOrbitError, NoSwitchingError)) as err:
            p.solve_periodic_orbit(
                _const_y_model(), UNIT_RAMP, p.InputVector(0.5, 0.0), grid_points=8
            )
        assert seen == [(grid[lo], grid[hi]) for lo, hi in walked]
        if not want:
            assert err.type is NoSwitchingError
        elif not zeros:
            assert f"all {len(want)} switching candidates" in str(err.value)


class TestSolvePeriodicOrbit:
    def test_constant_output_crossing(self):
        m = _const_y_model()
        for vr in (0.2, 0.5, 0.9):
            ss = p.solve_periodic_orbit(m, UNIT_RAMP, p.InputVector(vr, 0.0))
            assert ss.d == pytest.approx(vr, abs=1e-10)
            assert ss.candidates == 1

    def test_saturated_reference(self):
        m = _const_y_model()
        with pytest.raises(NoSwitchingError):
            p.solve_periodic_orbit(m, UNIT_RAMP, p.InputVector(2.0, 0.0))

    def test_buck_against_simulation(self, buck_tem, ramp, u_tem, ss_tem):
        # Let the simulator converge onto the orbit, compare switching times.
        x = find_fixed_point(buck_tem, ramp, u_tem, ss_tem.x0_start)
        d_event = p.CycleSimulator(buck_tem, ramp, u_tem).cycle(x).d_event
        assert d_event is not None
        assert abs(d_event - ss_tem.d) <= 1e-8 * ramp.T

    def test_duty_range_and_edge_map(self, buck_tem, buck_lem, ramp, u_tem, u_lem):
        ss_t = p.solve_periodic_orbit(buck_tem, ramp, u_tem)
        assert 0 < ss_t.duty < 1
        assert ss_t.duty == pytest.approx(ss_t.d / ramp.T)
        ss_l = p.solve_periodic_orbit(buck_lem, ramp, u_lem)
        assert 0 < ss_l.duty < 1
        assert ss_l.duty == pytest.approx(1.0 - ss_l.d / ramp.T)

    def test_periodicity_closure(self, buck_tem, buck_lem, ramp, u_tem, u_lem):
        for model, u in ((buck_tem, u_tem), (buck_lem, u_lem)):
            ss = p.solve_periodic_orbit(model, ramp, u)
            uv = u.as_array()
            m1 = numerics.mat_exp(model.A1, ss.d)
            m2 = numerics.mat_exp(model.A2, ramp.T - ss.d)
            j1 = mat_exp_integral(model.A1, ss.d)
            j2 = mat_exp_integral(model.A2, ramp.T - ss.d)
            back = m2 @ (m1 @ ss.x0_start + j1 @ (model.B1 @ uv)) + j2 @ (model.B2 @ uv)
            assert np.linalg.norm(back - ss.x0_start) <= 1e-9 * (
                1 + np.linalg.norm(ss.x0_start)
            )

    def test_switching_condition_at_solution(self, buck_tem, buck_lem, ramp,
                                             u_tem, u_lem):
        # The ramp-crossing condition holds to d_tol * slope at the solution.
        for model, u in ((buck_tem, u_tem), (buck_lem, u_lem)):
            ss = p.solve_periodic_orbit(model, ramp, u)
            gap = abs(ss.y_switch - p.ramp_value(ramp, ss.d))
            assert gap <= 1e-12 * ramp.T * ramp.slope

    @pytest.mark.parametrize("d_tol", [0.0, -1.0, math.inf, math.nan, True])
    def test_d_tol_must_be_positive_and_finite(self, buck_tem, ramp, u_tem, d_tol):
        # Refused before the scan: inf would take the first iterate as the
        # root, and a scan that lands on an exact zero, or finds no sign
        # change, never reaches the refinement.
        grid = np.linspace(0.0, 1.0, 66)[1:-1]
        calls = [
            lambda: p.solve_periodic_orbit(buck_tem, ramp, u_tem, d_tol=d_tol),
            lambda: p.solve_periodic_orbit(
                _const_y_model(), UNIT_RAMP, p.InputVector(float(grid[20]), 0.0),
                grid_points=64, d_tol=d_tol,
            ),
            lambda: p.solve_periodic_orbit(
                _const_y_model(), UNIT_RAMP, p.InputVector(2.0, 0.0), d_tol=d_tol
            ),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="tol must be positive and finite"):
                call()

    @pytest.mark.parametrize("grid_points", [2.5, 256.0, True])
    def test_grid_points_must_be_an_integer(self, buck_tem, ramp, u_tem, grid_points):
        with pytest.raises(DomainError, match="grid_points must be an integer"):
            p.solve_periodic_orbit(buck_tem, ramp, u_tem, grid_points=grid_points)

    def test_ramp_offset_shift(self):
        # For the constant-output model, d solves vr = h(d): shifting the
        # ramp window and vr together shifts nothing; shifting vr moves d.
        m = _const_y_model()
        base = p.solve_periodic_orbit(m, p.RampSignal(0, 1, 1), p.InputVector(0.4, 0))
        shifted = p.solve_periodic_orbit(
            m, p.RampSignal(2.0, 3.0, 1.0), p.InputVector(2.4, 0.0)
        )
        assert shifted.d == pytest.approx(base.d, abs=1e-10)


class TestNewtonRefinement:
    def test_slope_is_the_snb_residual(self, model_cases):
        # The exact slope of the switching residual equals the saddle-node
        # residual F(+1) - hdot at the solved orbit.
        for model, rmp, u in model_cases:
            ss = p.solve_periodic_orbit(model, rmp, u)
            slope = float(steadystate.critical_value(ss, 1.0)) - rmp.slope
            assert slope == pytest.approx(p.snb_residual(model, rmp, u, ss), rel=1e-12)

    def test_zero_slope_bisects_to_the_root(self, buck_tem, ramp, u_tem, monkeypatch):
        newton = p.solve_periodic_orbit(buck_tem, ramp, u_tem)
        # F(+1) = hdot: the residual's slope is zero at every point.
        monkeypatch.setattr(steadystate, "critical_value", lambda *args: ramp.slope)
        bisected = p.solve_periodic_orbit(buck_tem, ramp, u_tem)
        assert abs(bisected.d - newton.d) <= 2e-12 * ramp.T

    def test_nan_residual_raises_divergence(self, buck_tem, ramp, u_tem, monkeypatch):
        point = steadystate._OrbitEvaluator.point

        def nan_point(self, d):
            ss, factor = point(self, d)
            return replace(ss, y_switch=math.nan), factor

        monkeypatch.setattr(steadystate._OrbitEvaluator, "point", nan_point)
        with pytest.raises(DivergenceError):
            p.solve_periodic_orbit(buck_tem, ramp, u_tem)

    def test_exhausted_budget_raises_no_convergence(self, buck_tem, ramp, u_tem,
                                                    monkeypatch):
        # The regula-falsi start alone does not meet d_tol on the buck.
        monkeypatch.setattr(numerics, "_NEWTON_MAXITER", 1)
        with pytest.raises(NoConvergenceError):
            p.solve_periodic_orbit(buck_tem, ramp, u_tem)


def _pi_buck(edge):
    # Buck (L = 20 mH, C = 47 uF, R = 22 ohm) under a PI compensator
    # (kp = 2, ki = 400): the integrator state x2' = vr - vC gives the
    # open-loop cycle map a multiplier at +1 for every switching time.
    a = [[0.0, -50.0, 0.0], [21276.595744680852, -967.1179883945841, 0.0],
         [0.0, -1.0, 0.0]]
    on = [[0.0, 50.0], [0.0, 0.0], [1.0, 0.0]]
    off = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    b1, b2 = (on, off) if edge is p.ModulationEdge.TEM else (off, on)
    return p.SwitchedLinearModel(
        A1=a, A2=a, B1=b1, B2=b2, C=[0.0, -2.0, 400.0], D=[2.0, 0.0], edge=edge
    )


class TestIntegratingState:
    @pytest.mark.parametrize("edge, sign", [(p.ModulationEdge.TEM, 1.0),
                                            (p.ModulationEdge.LEM, -1.0)])
    def test_all_degenerate_scan_is_degenerate_not_saturated(self, edge, sign):
        # Every scan point is singular, so the scan sees no sign change; that
        # is a +1 multiplier, not a converter that never switches.
        model = _pi_buck(edge)
        ramp = p.RampSignal(0.0, 5.0, 400e-6)
        u = p.InputVector(sign * 5.0, sign * 12.0)
        grid = np.linspace(0.0, ramp.T, 9)[1:-1]
        assert not steadystate.orbit_grid(model, ramp, u, grid)[1].any()
        with pytest.raises(DegenerateOrbitError,
                           match=r"multiplier at \+1 at every scan point"):
            p.solve_periodic_orbit(model, ramp, u)


# Two general-model pool items of the orbit-analysis benchmark (seed 3,
# item 2 and seed 9, item 23): an open-loop multiplier of each crosses +1
# between two scan points, so the scan sees a sign change of the switching
# residual at a pole, and Newton, started there, converged onto it.
POLE_ONLY_TEXT = """\
[model]
edge = TEM
A1 = 0.386893,0.599562; -2.09728,-1.96907
A2 = 0.00603775,-2.11943; 1.18073,-1.77484
B1 = 0.00683252,0.494471; -0.446208,0.683309
B2 = -0.334891,0.510181; -1.88258,-0.221244
C = 2.03462,-0.422604
D = 1.1071,0.443027

[ramp]
Vl = 0
Vh = 1
T = 1

[input]
vr = 0.596593
vs = 0.663304

[solver]
grid_points = 64
scan_points = 512
"""

POLE_THEN_ROOT_TEXT = """\
[model]
edge = TEM
A1 = -1.96267,1.20431,-0.674699,-1.18595,0.771028; 0.732996,-5.30802,1.42765,-0.475014,0.0211798; -0.307678,-1.47226,-4.50187,-2.52577,-2.16931; 2.28168,-1.17488,-1.75915,-0.283835,0.730394; 0.495809,0.462764,-1.3514,0.467757,-5.38745
A2 = -4.57462,-1.52755,-1.16476,0.597245,1.23725; 1.05047,-2.82373,0.877049,-0.816286,0.518884; -3.32947,1.70327,-1.867,0.289072,-1.22761; -1.5472,-1.81984,-1.83486,-4.62005,2.15419; -3.68395,0.923267,-0.980908,-0.052557,-1.39056
B1 = 1.6969,-0.0197058; 0.854449,-1.00798; -0.96039,0.555888; 0.325319,-1.1729; -0.918195,0.917555
B2 = 0.10256,-1.15858; -0.175417,-0.00299483; -0.45507,-2.95778; 0.685564,-0.331402; -1.06004,0.0930171
C = 0.574037,0.181131,-1.10422,0.226158,-0.56307
D = 0.651155,0.0589294

[ramp]
Vl = 0
Vh = 1
T = 1

[input]
vr = 0.229939
vs = 1.02219

[solver]
grid_points = 64
scan_points = 512
"""


class TestResidualPoles:
    def test_pole_only_is_refused(self):
        model, ramp, u, solver = p.build(p.parse_config(POLE_ONLY_TEXT))
        with pytest.raises(DegenerateOrbitError, match="poles of the switching residual"):
            p.solve_periodic_orbit(model, ramp, u, solver.grid_points)

    def test_pole_is_skipped_for_the_next_bracket(self):
        # The orbit after the pole is the one the latching comparator makes.
        model, ramp, u, solver = p.build(p.parse_config(POLE_THEN_ROOT_TEXT))
        ss = p.solve_periodic_orbit(model, ramp, u, solver.grid_points)
        rec = p.CycleSimulator(model, ramp, u, scan_points=solver.scan_points).cycle(
            ss.x0_start
        )
        assert rec.d_event is not None and abs(rec.d_event - ss.d) <= 1e-8 * ramp.T
        x0 = ss.x0_start
        assert np.linalg.norm(rec.x_end - x0) <= 1e-9 * (1.0 + np.linalg.norm(x0))
        phi = p.jacobian(model, ramp, u, ss).Phi
        fd = p.fd_jacobian(model, ramp, u, x0, eps=1e-5, scan_points=solver.scan_points)
        assert np.max(np.abs(fd - phi)) <= 1e-6 * np.max(np.abs(phi))


class TestOrbitDerivatives:
    def test_no_jump_when_stages_match(self):
        a = [[-1.0, 0.2], [0.0, -2.0]]
        b = [[0.1, 1.0], [0.0, 0.5]]
        m = p.SwitchedLinearModel(A1=a, A2=a, B1=b, B2=b, C=[1.0, 0.0],
                                  D=[1.0, 0.0], edge=p.ModulationEdge.TEM)
        ss = p.solve_periodic_orbit(m, UNIT_RAMP, p.InputVector(0.05, 0.8))
        assert np.allclose(ss.gamma, 0.0)

    def test_tem_jump_is_source_column(self, buck_tem, ramp, u_tem, ss_tem):
        m2 = numerics.mat_exp(buck_tem.A2, ramp.T - ss_tem.d)
        expected = m2 @ buck_tem.B1[:, 1] * u_tem.vs
        assert np.allclose(ss_tem.gamma, expected, rtol=1e-12)

    def test_against_ode_slope(self, buck_tem, ramp, u_tem, ss_tem):
        # One-sided finite-difference slopes of the integrated orbit at d,
        # Richardson-extrapolated to kill the curvature term.
        def ivp(stage, x0, t0, t1):
            a = buck_tem.A1 if stage == 1 else buck_tem.A2
            b = (buck_tem.B1 if stage == 1 else buck_tem.B2) @ u_tem.as_array()
            sol = scipy.integrate.solve_ivp(
                lambda _, x: a @ x + b, (t0, t1), x0, rtol=1e-13, atol=1e-15,
            )
            return sol.y[:, -1]

        def one_sided(stage, sign):
            delta = 1e-5 * ramp.T
            slopes = []
            for h in (delta, delta / 2):
                if sign < 0:
                    xb = ivp(stage, ss_tem.x0_start, 0.0, ss_tem.d - h)
                    slopes.append((ss_tem.x0_switch - xb) / h)
                else:
                    xa = ivp(stage, ss_tem.x0_switch, ss_tem.d, ss_tem.d + h)
                    slopes.append((xa - ss_tem.x0_switch) / h)
            return 2.0 * slopes[1] - slopes[0]

        xdot_minus, xdot_plus = one_sided(1, -1), one_sided(2, +1)
        m2 = numerics.mat_exp(buck_tem.A2, ramp.T - ss_tem.d)
        assert np.allclose(buck_tem.C @ xdot_minus, ss_tem.c_xdot_minus, rtol=1e-6)
        assert np.allclose(m2 @ (xdot_minus - xdot_plus), ss_tem.gamma, rtol=1e-6)


@pytest.mark.filterwarnings("error")
class TestOverflowingStage:
    # 2e6 * 400 us = 800 puts e^{A1 d} past the float range for most d: every
    # orbit builder raises DomainError naming the overflow, warning-free,
    # and a grid raises as a whole rather than masking points.
    MODEL = p.SwitchedLinearModel(
        A1=[[2e6, 0.0], [1.0, -1.0]], A2=[[2e6, 0.0], [1.0, -1.0]],
        B1=[[0.0, 1.0], [0.0, 0.0]], B2=np.zeros((2, 2)),
        C=[0.0, 1.0], D=[0.0, 0.0], edge=p.ModulationEdge.TEM,
    )
    RAMP = p.RampSignal(0.0, 1.0, 400e-6)
    U = p.InputVector(0.0, 1.0)

    @pytest.mark.parametrize("call", [
        lambda m, r, u: p.orbit_at(m, r, u, 0.9 * r.T),
        lambda m, r, u: p.solve_periodic_orbit(m, r, u),
        lambda m, r, u: p.s_plot(m, r, u, -1.0, [0.2, 0.5]),
    ])
    def test_raises_domain_error(self, call):
        with pytest.raises(DomainError, match="stage exponential overflows"):
            call(self.MODEL, self.RAMP, self.U)
