"""Closed-form period-doubling boundaries for buck-structured converters.

A buck-structured model shares one dynamics matrix ``A`` between stages
and injects the source voltage through a single column ``B`` that is
present in the ON stage only.  For that structure the period-doubling
boundary admits closed forms in terms of matrix exponentials of ``A T``,
an equivalent harmonic-balance series built from the transfer function
``G(s) = C (sI - A)^{-1} B``, and a short Taylor expansion in ``A T``.

All boundary expressions are affine in the source voltage: each is a
coefficient times ``v_s`` minus the ramp slope, so the critical source
voltage is simply slope/coefficient.  A vanishing coefficient means the
boundary sits at infinite source voltage; those points return ``inf``
rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import DimensionError, DomainError, ResolventPoleError
from .model import (
    ModulationEdge,
    RampSignal,
    SwitchedLinearModel,
    detect_buck_structure,
    switch_time_of_duty,
)


@dataclass(frozen=True)
class BuckPlant:
    """Shared-dynamics plant data extracted from a buck-structured model."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    ramp: RampSignal

    def __post_init__(self):
        a = numerics.as_square_matrix(self.A, "A").astype(float, copy=False)
        b = np.asarray(self.B, dtype=float).reshape(-1)
        c = np.asarray(self.C, dtype=float).reshape(-1)
        n = a.shape[0]
        if b.shape != (n,) or c.shape != (n,):
            raise DimensionError(
                f"B and C must have length {n}, got {b.shape} and {c.shape}"
            )
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "C", c)


@dataclass(frozen=True)
class TaylorCoefficients:
    """Duty-dependent coefficients of the short boundary expansion."""

    delta0: float
    delta1: float
    delta2: float


@dataclass(frozen=True)
class HarmonicGains:
    """Transfer-function samples at the series frequencies, reusable across d."""

    integer: np.ndarray  # G(j k ws), k = 1..K
    half: np.ndarray  # G(j (k - 1/2) ws), k = 1..K


@dataclass(frozen=True)
class HarmonicBalanceResult:
    vs: float
    series_sum: complex
    tail_estimate: float
    harmonics: int


def make_buck_plant(model: SwitchedLinearModel, ramp: RampSignal) -> BuckPlant:
    """Extract the buck plant, or raise if the model lacks the structure."""
    cols = detect_buck_structure(model)
    if cols is None:
        raise DomainError(
            "model does not have buck structure "
            "(shared dynamics, one-stage source column)"
        )
    return BuckPlant(A=model.A1, B=cols.vs_column, C=model.C, ramp=ramp)


def _check_duty(D: float) -> None:
    if not 0.0 < D < 1.0:
        raise DomainError(f"duty must lie in (0, 1), got {D}")


def _coefficient(plant: BuckPlant, d: float) -> float:
    """TEM boundary coefficient C [(I-e^{AT})^-1 (e^{Ad}-I) + (I+e^{AT})^-1] B.

    The LEM form C [(I+e^{-AT})^-1 + (I-e^{AT})^-1 (e^{AT}-e^{Ad})] B is its
    exact negative, as (I+e^{-AT})^-1 = I - (I+e^{AT})^-1; only this form
    stays finite when a plant pole has |lambda| T above ~709.
    """
    T = plant.ramp.T
    n = plant.A.shape[0]
    eye = np.eye(n)
    e_T = numerics.mat_exp(plant.A, T)
    e_d = numerics.mat_exp(plant.A, d)
    term1 = numerics.solve_linear(eye - e_T, (e_d - eye) @ plant.B)
    term2 = numerics.solve_linear(eye + e_T, plant.B)
    return float(plant.C @ (term1 + term2))


def _edge_coefficient(plant: BuckPlant, D: float, edge: ModulationEdge) -> float:
    # Boundary coefficient at duty D: the TEM form at the edge's switching
    # instant, negated for LEM.
    _check_duty(D)
    coef = _coefficient(plant, switch_time_of_duty(edge, D, plant.ramp.T))
    return coef if edge is ModulationEdge.TEM else -coef


def lem_boundary_coefficient(plant: BuckPlant, d: float) -> float:
    """LEM boundary coefficient at switching instant ``d`` (slope/vs units)."""
    if not 0.0 <= d <= plant.ramp.T:
        raise DomainError(f"d must lie in [0, {plant.ramp.T}], got {d}")
    return -_coefficient(plant, d)


def _vs_from_coefficient(plant: BuckPlant, coef: float) -> float:
    if coef == 0.0:
        return math.inf  # boundary at infinite source voltage
    return plant.ramp.slope / coef


def vs_critical_lem(plant: BuckPlant, D: float) -> float:
    """Critical source voltage of the LEM period-doubling boundary at duty ``D``."""
    return _vs_from_coefficient(plant, _edge_coefficient(plant, D, ModulationEdge.LEM))


def vs_critical_tem(plant: BuckPlant, D: float) -> float:
    """Critical source voltage of the TEM period-doubling boundary at duty ``D``."""
    return _vs_from_coefficient(plant, _edge_coefficient(plant, D, ModulationEdge.TEM))


def buck_pdb_residual(
    plant: BuckPlant, D: float, vs: float, edge: ModulationEdge
) -> float:
    """Closed-form period-doubling residual at duty ``D`` for modulation ``edge``.

    Affine in ``vs``; zero on the boundary.
    """
    return _edge_coefficient(plant, D, ModulationEdge(edge)) * vs - plant.ramp.slope


def harmonic_gains(plant: BuckPlant, K: int) -> HarmonicGains:
    """Sample ``G`` at the integer and half-integer switching harmonics.

    These depend on the plant only, not on the switching instant, so one
    set of gains serves a whole duty sweep.
    """
    if K < 1:
        raise DomainError(f"K must be >= 1, got {K}")
    ws = plant.ramp.ws
    k = np.arange(1, K + 1)
    freqs = np.concatenate([k * ws, (k - 0.5) * ws])
    n = plant.A.shape[0]
    systems = 1j * freqs[:, None, None] * np.eye(n) - plant.A
    try:
        sols = np.linalg.solve(systems, np.broadcast_to(
            plant.B.astype(complex), (freqs.size, n)
        )[..., None])
    except np.linalg.LinAlgError as exc:
        raise ResolventPoleError("a series frequency is a pole of the plant") from exc
    gains = (plant.C @ sols[..., 0].T).astype(complex)
    if not np.all(np.isfinite(gains)):
        raise ResolventPoleError("a series frequency is a pole of the plant")
    return HarmonicGains(integer=gains[:K], half=gains[K:])


def harmonic_balance(
    plant: BuckPlant,
    d: float,
    K: int,
    edge: ModulationEdge = ModulationEdge.LEM,
    gains: HarmonicGains | None = None,
) -> HarmonicBalanceResult:
    """Truncated harmonic-balance boundary condition at switching instant ``d``.

    Sums ``(1 - e^{j k ws d}) G(j k ws) - G(j (k-1/2) ws)`` for
    ``k = 1..K`` in ascending order (pairwise accumulation) and returns
    the critical source voltage ``Vm / (2 Re sum)`` together with the sum
    and a tail estimate (magnitude of the last retained term).  The
    rotation runs at twice the subharmonic frequency, ``2k (ws/2) d``;
    the half-harmonic term samples the subharmonic lines themselves.
    For TEM the transfer function enters with opposite sign and ``d`` is
    the ON time; the series itself is edge-agnostic in ``d``.
    """
    T = plant.ramp.T
    if not 0.0 < d < T:
        raise DomainError(f"d must lie in (0, {T}), got {d}")
    if gains is None:
        gains = harmonic_gains(plant, K)
    elif gains.integer.size < K:
        raise DomainError(f"gains hold {gains.integer.size} harmonics, need {K}")
    sign = 1.0 if ModulationEdge(edge) is ModulationEdge.LEM else -1.0
    k = np.arange(1, K + 1)
    rot = np.exp(1j * k * plant.ramp.ws * d)
    terms = sign * ((1.0 - rot) * gains.integer[:K] - gains.half[:K])
    total = complex(np.sum(terms))
    denom = 2.0 * total.real
    vs = math.inf if denom == 0.0 else plant.ramp.Vm / denom
    return HarmonicBalanceResult(
        vs=vs,
        series_sum=total,
        tail_estimate=float(abs(terms[-1])),
        harmonics=K,
    )


def equivalence_residual(
    plant: BuckPlant,
    d: float,
    K: int,
    gains: HarmonicGains | None = None,
) -> float:
    """Gap between the series and matrix forms of the boundary coefficient.

    Both sides express the same exact boundary condition, so the residual
    ``|2 fs Re(sum) - C[...]B|`` shrinks as the truncation ``K`` grows.
    """
    series = harmonic_balance(plant, d, K, ModulationEdge.LEM, gains)
    lhs = 2.0 * plant.ramp.fs * series.series_sum.real
    rhs = -_coefficient(plant, d)
    return abs(lhs - rhs)


def taylor_coefficients(D: float) -> TaylorCoefficients:
    """Duty polynomials of the expansion's first three orders."""
    if not 0.0 <= D <= 1.0:
        raise DomainError(f"duty must lie in [0, 1], got {D}")
    return TaylorCoefficients(
        delta0=(1.0 - 2.0 * D) / 2.0,
        delta1=(-1.0 + 2.0 * D - 2.0 * D * D) / 4.0,
        delta2=(-D + 3.0 * D * D - 2.0 * D ** 3) / 12.0,
    )


def _taylor_coefficient_matrix(plant: BuckPlant, D: float, order: int) -> float:
    if order < 0 or order > 2:
        raise DomainError(f"order must be 0, 1, or 2, got {order}")
    deltas = taylor_coefficients(D)
    at = plant.A * plant.ramp.T
    n = plant.A.shape[0]
    total = deltas.delta0 * np.eye(n)
    if order >= 1:
        total = total + deltas.delta1 * at
    if order >= 2:
        total = total + deltas.delta2 * (at @ at)
    return float(plant.C @ total @ plant.B)


def taylor_critical_vs(plant: BuckPlant, D: float, order: int = 2) -> float:
    """Critical source voltage from the truncated Taylor boundary condition."""
    _check_duty(D)
    return _vs_from_coefficient(plant, _taylor_coefficient_matrix(plant, D, order))
