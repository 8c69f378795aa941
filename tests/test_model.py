"""Tests of the switched-linear model types, ramp, and buck preset."""

import numpy as np
import pytest

import pwmstab as p
from pwmstab.errors import DimensionError, DomainError
from conftest import compensator_output


class TestRamp:
    def test_value_at_zero(self):
        assert p.ramp_value(p.RampSignal(0, 1, 1), 0.0) == 0.0

    def test_value_quarter(self):
        assert p.ramp_value(p.RampSignal(0, 1, 1), 0.25) == 0.25

    def test_wraparound_midpoint(self):
        assert p.ramp_value(p.RampSignal(3.8, 8.2, 1), 1.5) == pytest.approx(6.0)

    def test_periodicity_exact(self):
        ramp = p.RampSignal(0.5, 2.5, 1.0)
        for t in (0.25, 0.5, 0.375):  # dyadic offsets: float mod is exact
            for k in (1, 2, 7, -3):
                assert p.ramp_value(ramp, t + k) == p.ramp_value(ramp, t)

    def test_clock_edge_reset(self):
        ramp = p.RampSignal(1.0, 3.0, 2e-3)
        assert p.ramp_value(ramp, 3 * ramp.T) == ramp.Vl
        left = p.ramp_value(ramp, 3 * ramp.T - 1e-12)
        assert left == pytest.approx(ramp.Vh, abs=1e-8)

    def test_slope_examples(self):
        assert p.RampSignal(0, 1, 1).slope == 1.0
        assert p.RampSignal(3.8, 8.2, 2).slope == pytest.approx(2.2)
        for vm, T in [(0.5, 1e-4), (4.4, 4e-4), (12.0, 2.0)]:
            assert p.RampSignal(5.0, 5.0 + vm, T).slope == pytest.approx(vm / T)

    def test_invalid_ramp(self):
        with pytest.raises(DomainError):
            p.RampSignal(1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            p.RampSignal(0.0, 1.0, 0.0)

    @pytest.mark.parametrize("args", [(-1.5e308, 1.5e308, 400e-6), (0.0, 1.0, 1e-310)],
                             ids=["amplitude", "period"])
    def test_overflowing_ramp(self, args):
        # Finite fields whose amplitude, or slope and frequency, overflow.
        with pytest.raises(DomainError, match="must be finite"):
            p.RampSignal(*args)

    @pytest.mark.parametrize("call", [
        lambda: p.RampSignal(0, 10 ** 400, 1),
        lambda: p.RampSignal(0.0, 1.0, True),
        lambda: p.RampSignal(0.0, 1j, 1.0),
        lambda: p.InputVector(10 ** 400, 0),
        lambda: p.InputVector(True, 24.0),
        lambda: p.InputVector("1", 2.0),
        lambda: p.preset_vmc_buck(20e-3, 47e-6, 22.0, 10 ** 400, "TEM"),
        lambda: p.preset_vmc_buck(20e-3, 47e-6, 22.0, True, "TEM"),
    ], ids=[
        "ramp_huge_int", "ramp_bool_period", "ramp_complex", "input_huge_int",
        "input_bool", "input_string", "preset_huge_int_gain", "preset_bool_gain",
    ])
    def test_scalar_fields_must_be_finite_reals(self, call):
        # Typed refusals, where an untyped OverflowError or TypeError, or a
        # bool taken as 1, would otherwise come through.
        with pytest.raises(DomainError, match="must be finite and real"):
            call()

    def test_derived_quantities(self):
        ramp = p.RampSignal(3.8, 8.2, 400e-6)
        assert ramp.Vm == pytest.approx(4.4)
        assert ramp.fs == pytest.approx(2500.0)
        assert ramp.ws == pytest.approx(2 * np.pi * 2500.0)


class TestCompensatorOutput:
    def test_proportional_feedback(self):
        # Hand expansion: y = 8.4*(vr - vo) for C = (0, -8.4), D = (8.4, 0).
        m = p.SwitchedLinearModel(
            A1=np.zeros((2, 2)), A2=np.zeros((2, 2)),
            B1=np.zeros((2, 2)), B2=np.zeros((2, 2)),
            C=[0.0, -8.4], D=[8.4, 0.0], edge=p.ModulationEdge.TEM,
        )
        vo, vr, vs = 10.7, 11.3, 24.0
        y = compensator_output(m, [0.0, vo], p.InputVector(vr, vs))
        assert y == pytest.approx(8.4 * (vr - vo))

    def test_zero_maps(self):
        m = p.SwitchedLinearModel(
            A1=np.zeros((2, 2)), A2=np.zeros((2, 2)),
            B1=np.zeros((2, 2)), B2=np.zeros((2, 2)),
            C=[0.0, 0.0], D=[0.0, 0.0], edge=p.ModulationEdge.TEM,
        )
        for x, u in [([1, 2], (3, 4)), ([-5, 0.1], (0, 0))]:
            assert compensator_output(m, x, p.InputVector(*u)) == 0.0

    def test_state_pick(self):
        m = p.SwitchedLinearModel(
            A1=np.zeros((2, 2)), A2=np.zeros((2, 2)),
            B1=np.zeros((2, 2)), B2=np.zeros((2, 2)),
            C=[1.0, 0.0], D=[0.0, 0.0], edge=p.ModulationEdge.TEM,
        )
        assert compensator_output(m, [2.0, 5.0], p.InputVector(0, 0)) == 2.0

    def test_dimension_mismatch(self):
        m = p.preset_vmc_buck(1e-3, 1e-6, 10.0, 1.0, p.ModulationEdge.TEM)
        with pytest.raises(DimensionError):
            compensator_output(m, [1.0, 2.0, 3.0], p.InputVector(0, 0))


class TestPreset:
    def test_tem_source_column(self):
        m = p.preset_vmc_buck(20e-3, 47e-6, 22.0, 8.4, p.ModulationEdge.TEM)
        assert np.allclose(m.B1[:, 1], [1 / 20e-3, 0.0])
        assert not m.B2[:, 1].any()
        assert not m.B1[:, 0].any() and not m.B2[:, 0].any()

    def test_lem_source_column(self):
        m = p.preset_vmc_buck(20e-3, 47e-6, 22.0, 8.4, p.ModulationEdge.LEM)
        assert np.allclose(m.B2[:, 1], [1 / 20e-3, 0.0])
        assert not m.B1[:, 1].any()

    def test_dynamics_eigenvalues(self):
        # Oracle: characteristic polynomial s^2 + s/(R Cf) + 1/(L Cf).
        L, Cf, R = 20e-3, 47e-6, 22.0
        m = p.preset_vmc_buck(L, Cf, R, 8.4, p.ModulationEdge.TEM)
        got = np.sort_complex(np.linalg.eigvals(m.A1))
        want = np.sort_complex(np.roots([1.0, 1.0 / (R * Cf), 1.0 / (L * Cf)]))
        assert np.allclose(got, want, rtol=1e-12)
        assert np.all(got.real < 0)
        assert got[0].imag != 0  # underdamped pair for these values

    def test_feedback_rows(self):
        m = p.preset_vmc_buck(1e-3, 1e-6, 5.0, 3.5, p.ModulationEdge.TEM)
        assert np.allclose(m.C, [0.0, -3.5])
        assert np.allclose(m.D, [3.5, 0.0])

    def test_edge_swap_moves_only_source_column(self):
        a = p.preset_vmc_buck(2e-3, 4.7e-6, 12.0, 2.0, p.ModulationEdge.TEM)
        b = p.preset_vmc_buck(2e-3, 4.7e-6, 12.0, 2.0, p.ModulationEdge.LEM)
        assert np.array_equal(a.A1, b.A1) and np.array_equal(a.A2, b.A2)
        assert np.array_equal(a.C, b.C) and np.array_equal(a.D, b.D)
        assert np.array_equal(a.B1, b.B2) and np.array_equal(a.B2, b.B1)

    def test_invalid_components(self):
        with pytest.raises(DomainError):
            p.preset_vmc_buck(0.0, 1e-6, 1.0, 1.0, p.ModulationEdge.TEM)
        with pytest.raises(DomainError):
            p.preset_vmc_buck(1e-3, -1e-6, 1.0, 1.0, p.ModulationEdge.TEM)


class TestDetectBuckStructure:
    def test_preset_detected(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            L = rng.uniform(1e-4, 1e-1)
            Cf = rng.uniform(1e-7, 1e-3)
            R = rng.uniform(1.0, 100.0)
            edge = p.ModulationEdge.TEM if rng.random() < 0.5 else p.ModulationEdge.LEM
            m = p.preset_vmc_buck(L, Cf, R, rng.uniform(0.5, 10), edge)
            vs_column = p.detect_buck_structure(m)
            assert vs_column is not None
            assert np.allclose(vs_column, [1.0 / L, 0.0])
            assert not m.B1[:, 0].any()

    def test_different_dynamics_rejected(self):
        m = p.SwitchedLinearModel(
            A1=[[0.0, 1.0], [-1.0, 0.0]], A2=[[0.0, 1.0], [-1.0, -0.5]],
            B1=np.zeros((2, 2)), B2=[[0.0, 1.0], [0.0, 0.0]],
            C=[1.0, 0.0], D=[1.0, 0.0], edge=p.ModulationEdge.TEM,
        )
        assert p.detect_buck_structure(m) is None

    def test_both_stages_inject_source(self):
        a = [[-1.0, 0.0], [0.0, -2.0]]
        m = p.SwitchedLinearModel(
            A1=a, A2=a,
            B1=[[0.0, 1.0], [0.0, 0.0]], B2=[[0.0, 0.5], [0.0, 0.0]],
            C=[1.0, 0.0], D=[1.0, 0.0], edge=p.ModulationEdge.TEM,
        )
        assert p.detect_buck_structure(m) is None

    def test_differing_reference_columns(self):
        a = [[-1.0, 0.0], [0.0, -2.0]]
        m = p.SwitchedLinearModel(
            A1=a, A2=a,
            B1=[[1.0, 1.0], [0.0, 0.0]], B2=[[0.0, 0.0], [0.0, 0.0]],
            C=[1.0, 0.0], D=[1.0, 0.0], edge=p.ModulationEdge.TEM,
        )
        assert p.detect_buck_structure(m) is None


class TestModelValidation:
    def test_shape_errors_name_matrix(self):
        with pytest.raises(DimensionError, match="B1"):
            p.SwitchedLinearModel(
                A1=np.zeros((2, 2)), A2=np.zeros((2, 2)),
                B1=np.zeros((2, 3)), B2=np.zeros((2, 2)),
                C=[0, 0], D=[0, 0], edge=p.ModulationEdge.TEM,
            )

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            p.SwitchedLinearModel(
                A1=[[np.inf, 0], [0, 0]], A2=np.zeros((2, 2)),
                B1=np.zeros((2, 2)), B2=np.zeros((2, 2)),
                C=[0, 0], D=[0, 0], edge=p.ModulationEdge.TEM,
            )

    def test_matrices_read_only(self):
        m = p.preset_vmc_buck(1e-3, 1e-6, 5.0, 1.0, p.ModulationEdge.TEM)
        with pytest.raises(ValueError):
            m.A1[0, 0] = 1.0
