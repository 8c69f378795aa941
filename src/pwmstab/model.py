"""Switched-linear converter model, ramp signal, and built-in presets.

The unified voltage/current-mode-control model: within each clock period
``T`` the state follows stage ``S1`` from the clock edge until the ramp
``h(t)`` crosses the compensator output ``y = C x + D u`` from below, then
stage ``S2`` for the rest of the period.  Trailing-edge modulation (TEM)
puts the ON stage first; leading-edge modulation (LEM) puts it last.

Inputs are ordered ``u = (v_r, v_s)``: the reference/control voltage
first, the source voltage second.  The B matrices follow the same
ordering, so the source-injection column of a buck converter is the
*second* column of the stage input matrix.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError


class ModulationEdge(enum.Enum):
    """Which stage is the ON stage: TEM = ON first, LEM = ON last."""

    TEM = "TEM"
    LEM = "LEM"


def _matrix(value, shape, name):
    arr = np.array(value, dtype=float)
    if arr.shape != shape:
        raise DimensionError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} has non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SwitchedLinearModel:
    """Two-stage switched-linear converter with two exogenous inputs.

    Parameters
    ----------
    A1, A2 : (N, N) arrays
        Stage dynamics matrices (1/seconds).
    B1, B2 : (N, 2) arrays
        Stage input matrices; column 0 multiplies v_r, column 1
        multiplies v_s.
    C : (N,) array
        Compensator output row.
    D : (2,) array
        Input feedthrough row of the compensator output.
    edge : ModulationEdge
        Whether stage S1 is the ON stage (TEM) or the OFF stage (LEM).
    """

    A1: np.ndarray
    A2: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C: np.ndarray
    D: np.ndarray
    edge: ModulationEdge
    n: int = field(init=False)

    def __post_init__(self):
        a1 = np.atleast_2d(np.asarray(self.A1, dtype=float))
        n = a1.shape[0]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "A1", _matrix(a1, (n, n), "A1"))
        object.__setattr__(self, "A2", _matrix(self.A2, (n, n), "A2"))
        object.__setattr__(self, "B1", _matrix(self.B1, (n, 2), "B1"))
        object.__setattr__(self, "B2", _matrix(self.B2, (n, 2), "B2"))
        object.__setattr__(self, "C", _matrix(np.reshape(self.C, (1, -1)), (1, n), "C")[0])
        object.__setattr__(self, "D", _matrix(np.reshape(self.D, (1, -1)), (1, 2), "D")[0])
        if not isinstance(self.edge, ModulationEdge):
            object.__setattr__(self, "edge", ModulationEdge(self.edge))


@dataclass(frozen=True)
class RampSignal:
    """Sawtooth ramp rising from ``Vl`` to ``Vh`` every period ``T``."""

    Vl: float
    Vh: float
    T: float

    def __post_init__(self):
        if not (math.isfinite(self.Vl) and math.isfinite(self.Vh) and math.isfinite(self.T)):
            raise DomainError("ramp parameters must be finite")
        if self.Vh <= self.Vl:
            raise DomainError(f"Vh must exceed Vl, got Vl={self.Vl}, Vh={self.Vh}")
        if self.T <= 0.0:
            raise DomainError(f"T must be positive, got {self.T}")

    @property
    def Vm(self) -> float:
        """Ramp amplitude Vh - Vl."""
        return self.Vh - self.Vl

    @property
    def slope(self) -> float:
        """Constant ramp slope (V/s)."""
        return (self.Vh - self.Vl) / self.T

    @property
    def fs(self) -> float:
        """Switching frequency 1/T."""
        return 1.0 / self.T

    @property
    def ws(self) -> float:
        """Angular switching frequency 2*pi/T."""
        return 2.0 * math.pi / self.T


@dataclass(frozen=True)
class InputVector:
    """Exogenous inputs: reference voltage ``vr`` and source voltage ``vs``."""

    vr: float
    vs: float

    def __post_init__(self):
        if not (math.isfinite(self.vr) and math.isfinite(self.vs)):
            raise DomainError("input voltages must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.vr, self.vs])


@dataclass(frozen=True)
class BuckColumns:
    """Input-column partition of a buck-structured model.

    ``vs_column`` is the source-injection column (present in the ON stage
    only); ``vr_column`` is the reference column shared by both stages.
    """

    vs_column: np.ndarray
    vr_column: np.ndarray


def ramp_value(ramp: RampSignal, t: float) -> float:
    """Sawtooth value ``Vl + (Vh - Vl) * ((t/T) mod 1)``, elementwise on arrays."""
    if not np.all(np.isfinite(t)):
        raise DomainError(f"t must be finite, got {t}")
    return ramp.Vl + (ramp.Vh - ramp.Vl) * ((t / ramp.T) % 1.0)


def switch_time_of_duty(edge: ModulationEdge, duty, T: float):
    """Switching instant of ON fraction ``duty``, elementwise on arrays:
    ``duty*T`` for TEM (ON stage first), ``(1 - duty)*T`` for LEM."""
    return duty * T if edge is ModulationEdge.TEM else (1.0 - duty) * T


def duty_of_switch_time(edge: ModulationEdge, d, T: float):
    """ON fraction of switching instant ``d``; inverse of :func:`switch_time_of_duty`."""
    return d / T if edge is ModulationEdge.TEM else 1.0 - d / T


def stage_generators(
    model: SwitchedLinearModel, u: InputVector
) -> tuple[np.ndarray, np.ndarray]:
    """Van Loan's augmented stage generators ``[[A_i, B_i u], [0, 0]]``.

    One exponential of size N + 1 holds both ``e^{A_i t}`` (top left) and
    ``J_i(t) B_i u`` (top right column), where ``J_i(t) = int_0^t e^{A_i s} ds``.
    """
    uv = u.as_array()
    gens = np.zeros((2, model.n + 1, model.n + 1))
    gens[0, :-1, :-1] = model.A1
    gens[0, :-1, -1] = model.B1 @ uv
    gens[1, :-1, :-1] = model.A2
    gens[1, :-1, -1] = model.B2 @ uv
    return gens[0], gens[1]


def preset_vmc_buck(
    L: float, Cf: float, R: float, g: float, edge: ModulationEdge
) -> SwitchedLinearModel:
    """Proportional voltage-mode-controlled buck converter preset.

    States are ``(i_L, v_C)``; both stages share
    ``A = [[0, -1/L], [1/Cf, -1/(R*Cf)]]``.  The source column
    ``(1/L, 0)`` sits in the ON stage's input matrix (B1 for TEM, B2 for
    LEM).  Feedback is ``y = g*(v_r - v_o)`` via ``C = (0, -g)``,
    ``D = (g, 0)``; the reference drives no state directly.
    """
    for name, val in (("L", L), ("Cf", Cf), ("R", R)):
        if not (math.isfinite(val) and val > 0.0):
            raise DomainError(f"{name} must be positive and finite, got {val}")
    if not math.isfinite(g):
        raise DomainError(f"g must be finite, got {g}")
    edge = ModulationEdge(edge)
    a = [[0.0, -1.0 / L], [1.0 / Cf, -1.0 / (R * Cf)]]
    on_cols = [[0.0, 1.0 / L], [0.0, 0.0]]
    off_cols = [[0.0, 0.0], [0.0, 0.0]]
    b1, b2 = (on_cols, off_cols) if edge is ModulationEdge.TEM else (off_cols, on_cols)
    return SwitchedLinearModel(
        A1=a, A2=a, B1=b1, B2=b2, C=[0.0, -g], D=[g, 0.0], edge=edge
    )


def detect_buck_structure(model: SwitchedLinearModel) -> BuckColumns | None:
    """Recognize the buck input structure, or return ``None``.

    A model qualifies when both stages share the same dynamics matrix and
    the same v_r column, while the v_s column is present in exactly one
    stage and identically zero in the other.  Only such models admit the
    closed-form boundary conditions of :mod:`pwmstab.buck`.
    """
    if not np.array_equal(model.A1, model.A2):
        return None
    if not np.array_equal(model.B1[:, 0], model.B2[:, 0]):
        return None
    vs1, vs2 = model.B1[:, 1], model.B2[:, 1]
    zero1 = not vs1.any()
    zero2 = not vs2.any()
    if zero1 == zero2:
        # Either both stages inject v_s or neither does.
        return None
    vs_col = vs2 if zero1 else vs1
    return BuckColumns(vs_column=vs_col.copy(), vr_column=model.B1[:, 0].copy())
