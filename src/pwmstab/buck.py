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

Only ``e^{A d}`` in the closed forms depends on the duty.  A
:class:`BuckPlant` computes its ``e^{A T}`` terms once, on first use, and
keeps them, so one plant should serve a whole duty sweep: each boundary
coefficient then costs one matrix exponential and no linear solve.
"""

from __future__ import annotations

import functools
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

    @functools.cached_property
    def _boundary_terms(self) -> tuple[np.ndarray, float]:
        # z = (I - e^{AT})^-1 B and k = C [(I + e^{AT})^-1 B - z], the
        # duty-free parts of the boundary coefficient.  Computed on first
        # use, so a plant whose e^{AT} overflows or whose I - e^{AT} or
        # I + e^{AT} is singular still builds and serves the series and
        # Taylor forms; the error is raised again by every call that needs
        # these terms, as cached_property does not cache exceptions.
        e_T = numerics.mat_exp(self.A, self.ramp.T)
        if not np.all(np.isfinite(e_T)):
            raise DomainError("e^{AT} overflows")
        eye = np.eye(self.A.shape[0])
        z = numerics.solve_linear(eye - e_T, self.B)
        k = float(self.C @ (numerics.solve_linear(eye + e_T, self.B) - z))
        return z, k


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
    vs_column = detect_buck_structure(model)
    if vs_column is None:
        raise DomainError(
            "model does not have buck structure "
            "(shared dynamics, one-stage source column)"
        )
    return BuckPlant(A=model.A1, B=vs_column, C=model.C, ramp=ramp)


def _check_duty(D: float) -> None:
    numerics.check_real("duty", D)
    if not 0.0 < D < 1.0:
        raise DomainError(f"duty must lie in (0, 1), got {D}")


def _coefficient(plant: BuckPlant, d: float) -> float:
    """TEM boundary coefficient C [(I-e^{AT})^-1 (e^{Ad}-I) + (I+e^{AT})^-1] B.

    Evaluated as C e^{Ad} z + k with the plant's cached
    z = (I-e^{AT})^-1 B and k = C [(I+e^{AT})^-1 B - z]; the form is exact
    because (I-e^{AT})^-1 commutes with e^{Ad}, both being functions of A.

    The LEM form C [(I+e^{-AT})^-1 + (I-e^{AT})^-1 (e^{AT}-e^{Ad})] B is its
    exact negative, as (I+e^{-AT})^-1 = I - (I+e^{AT})^-1; only this form
    stays finite when a plant pole has |lambda| T above ~709.
    """
    z, k = plant._boundary_terms
    coef = float(plant.C @ (numerics.mat_exp(plant.A, d) @ z)) + k
    if not math.isfinite(coef):
        raise DomainError(f"boundary coefficient at d = {d} is not finite")
    return coef


def _edge_coefficient(plant: BuckPlant, D: float, edge: ModulationEdge) -> float:
    # Boundary coefficient at duty D: the TEM form at the edge's switching
    # instant, negated for LEM.
    _check_duty(D)
    coef = _coefficient(plant, switch_time_of_duty(edge, D, plant.ramp.T))
    return coef if edge is ModulationEdge.TEM else -coef


def lem_boundary_coefficient(plant: BuckPlant, d: float) -> float:
    """LEM boundary coefficient at switching instant ``d`` (slope/vs units)."""
    numerics.check_real("d", d)
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
    numerics.check_real("vs", vs)
    return _edge_coefficient(plant, D, ModulationEdge(edge)) * vs - plant.ramp.slope


def harmonic_gains(plant: BuckPlant, K: int) -> HarmonicGains:
    """Sample ``G`` at the integer and half-integer switching harmonics.

    These depend on the plant only, not on the switching instant, so one
    set of gains serves a whole duty sweep.  One stacked solve takes all
    ``2K`` resolvents; a singular one raises :class:`ResolventPoleError`.
    """
    numerics.check_count("K", K, 1)
    if K > numerics.MAX_GRID_STEPS:
        raise DomainError(f"K must be <= {numerics.MAX_GRID_STEPS}, got {K}")
    ws = plant.ramp.ws
    k = np.arange(1, K + 1)
    freqs = np.concatenate([k * ws, (k - 0.5) * ws])
    n = plant.A.shape[0]
    systems = 1j * freqs[:, None, None] * np.eye(n) - plant.A
    x, ok = numerics.solve_linear_stack(systems, np.broadcast_to(plant.B, (2 * K, n)))
    if not ok.all():
        raise ResolventPoleError("a series frequency is a pole of the plant")
    gains = x @ plant.C
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
    the critical source voltage ``slope / (2 fs Re sum)`` (``inf`` where
    ``Re sum`` is zero) together with the sum and a tail estimate
    (magnitude of the last retained term).  The rotation runs at twice
    the subharmonic frequency, ``2k (ws/2) d``; the half-harmonic term
    samples the subharmonic lines themselves.  For TEM the transfer
    function enters with opposite sign and ``d`` is the ON time; the
    series itself is edge-agnostic in ``d``.
    """
    numerics.check_count("K", K, 1)
    numerics.check_real("d", d)
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
    return HarmonicBalanceResult(
        vs=_vs_from_coefficient(plant, 2.0 * plant.ramp.fs * total.real),
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
    numerics.check_real("duty", D)
    if not 0.0 <= D <= 1.0:
        raise DomainError(f"duty must lie in [0, 1], got {D}")
    return TaylorCoefficients(
        delta0=(1.0 - 2.0 * D) / 2.0,
        delta1=(-1.0 + 2.0 * D - 2.0 * D * D) / 4.0,
        delta2=(-D + 3.0 * D * D - 2.0 * D ** 3) / 12.0,
    )


def _taylor_coefficient_matrix(plant: BuckPlant, D: float, order: int) -> float:
    numerics.check_count("order", order, 0)
    if order > 2:
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
