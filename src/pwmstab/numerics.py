"""Small dense-matrix numerics used throughout the package.

Converter models are low order (N <= 8), so everything here targets small
dense matrices:

* ``mat_exp`` wraps scaling-and-squaring with a Pade kernel
  (``scipy.linalg.expm``), accurate to ~1e-13 relative for the norms that
  occur in one switching period; every other exponential is built from it.
* ``stage_powers`` builds every uniform grid ``e^{G_i j h}`` of stage
  exponentials, the orbit scan's, the simulator's and ``grid_exponentials``',
  from one ``mat_exp`` step exponential per generator powered by doubling.
  It sizes the grid too (with ``||G_i h||_1 <= rho`` where asked) and
  refuses one past ``MAX_GRID_STEPS = 2^17`` steps before building it.
* ``taylor_terms`` gives the terms ``(G tau)^k / k!`` of ``e^{G tau}`` for
  ``||G tau||_1 <= 1`` down to ``2^-53``: the simulator's in-step series,
  and ``grid_exponentials``, which takes ``e^{G t}`` at arbitrary times of a
  period as a grid exponential times a Taylor sum.
* The exponential, power and grid kernels report a value past the float
  range only as non-finite entries, with no ``RuntimeWarning``; callers
  that can meet divergent dynamics check for them and raise
  :class:`DomainError`.
* ``eigenvalues`` runs the dense QR algorithm (``numpy.linalg.eigvals``)
  on the matrix as given, so a real matrix keeps exact conjugate pairs.
* A single system, real or complex, is solved in two steps:
  ``factor_linear`` (LAPACK ``getrf``) factors ``M`` and applies the
  pivot threshold, and ``solve_factored`` (``getrs``) solves for one
  right-hand side from that factor; ``solve_linear`` is the two in a row.
  The orbit evaluation behind ``orbit_at`` and each Newton step of the
  orbit solver factors ``I - Phi0`` once and solves both ``x0`` and the
  slope's ``(I - Phi0)^{-1} Gamma`` from it (``steadystate.critical_value``
  given the factor); ``critical_value`` at any other ``lambda`` and
  ``BuckPlant`` call ``solve_linear``.  ``solve_linear_stack`` solves a
  stack (the orbit scan, ``orbit_grid``, the swept curves,
  ``harmonic_gains``).  These are the package's only linear solves, and
  both paths apply one pivot threshold, so a near-singular system raises,
  or its slice is masked, instead of solving into garbage.
* ``newton_root`` refines a bracket whose end values are already known by
  Newton steps on a caller-supplied slope, bisecting where a step would
  leave the bracket; the orbit solver refines its switching time with it,
  and the simulator its comparator event.
* ``find_root`` refines a bracket by scipy's ``brentq``, or returns its
  end nearest zero where ``brentq`` would refuse it.  The package never
  calls it: the tests' reference cycle, which checks the simulator, does,
  and ``perfbench/spans.py`` wraps it by name.  It imports
  ``scipy.optimize`` when called, so importing the package does not.

All functions are pure; they can be called concurrently from sweep workers.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys

import numpy as np
import scipy.linalg

from .errors import (
    DimensionError,
    DivergenceError,
    DomainError,
    NoConvergenceError,
    SingularMatrixError,
)

#: Relative pivot threshold below which a linear system is declared singular.
SINGULAR_PIVOT_RTOL = 1e-14

#: ``brentq``'s relative step tolerance and iteration budget, scipy's defaults.
_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100

#: Evaluation budget of ``newton_root``, Brent's.
_NEWTON_MAXITER = _BRENT_MAXITER

#: Most steps of a grid of stage exponentials (:func:`stage_powers`), and
#: most terms of a harmonic series (``buck.harmonic_gains``); more are refused.
MAX_GRID_STEPS = 2 ** 17


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a square 2-D float/complex array."""
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} has non-finite entries")
    return arr


def check_count(name: str, value, low: int) -> None:
    """Raise :class:`DomainError` unless ``value`` is an int or numpy integer
    (not a bool, nor an integral float) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")


def _finite_real(value) -> bool:
    # float first: the ABC check costs ~0.4 us, and mat_exp and newton_root
    # run this per call.  A bool is a Real, but not a number here.
    try:
        return (isinstance(value, float) or isinstance(value, numbers.Real)
                and not isinstance(value, bool)) and math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def check_real(name: str, value) -> None:
    """Raise :class:`DomainError` unless ``value`` is a finite real number:
    not a bool, a complex or a string, nor an int past the float range."""
    if not _finite_real(value):
        raise DomainError(f"{name} must be finite and real, got {value!r}")


def check_positive(name: str, value) -> None:
    """Raise :class:`DomainError` unless ``value`` passes :func:`check_real` and is > 0."""
    if not (_finite_real(value) and value > 0.0):
        raise DomainError(f"{name} must be positive and finite, got {value}")


def mat_exp(a, t: float) -> np.ndarray:
    """Matrix exponential ``e^{A t}``.

    ``t`` may be zero or negative (reversed-time factors such as
    ``e^{-A T}`` are legitimate inputs).  An exponential that overflows
    comes back non-finite, with no ``RuntimeWarning``.
    """
    arr = as_square_matrix(a, "A").astype(float, copy=False)
    check_real("t", t)
    if t == 0.0:
        return np.eye(arr.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        return scipy.linalg.expm(arr * t)


def stage_powers(gens, span: float, steps: int, rho: float | None = None) -> np.ndarray:
    """``e^{G_i j h}``, ``j = 0..P``, ``h = span / P``, of every ``G_i`` in
    ``gens``, as a ``(P + 1, len(gens), m, m)`` stack whose slice ``[0]`` is
    exactly ``I``: one step exponential (:func:`mat_exp`) per generator,
    powered by doubling.  ``P`` is ``steps``, raised with ``rho`` to the
    fewest steps with ``||G_i h||_1 <= rho``; past ``MAX_GRID_STEPS`` it
    raises :class:`DomainError` before it builds anything.  Overflow comes
    back non-finite, with no ``RuntimeWarning``."""
    check_count("steps", steps, 1)
    if rho is not None:
        stiff = max(float(np.abs(g).sum(axis=0).max()) for g in gens) * span
        need = stiff / rho
        if not need <= MAX_GRID_STEPS:  # a NaN norm too
            raise DomainError(
                f"stage too stiff: ||G||_1 T = {stiff:.6g} needs {need:.6g} steps "
                f"of ||G h||_1 <= {rho}, more than MAX_GRID_STEPS = {MAX_GRID_STEPS}"
            )
        steps = max(steps, math.ceil(need))
    if steps > MAX_GRID_STEPS:
        raise DomainError(f"grid of {steps} steps past MAX_GRID_STEPS = {MAX_GRID_STEPS}")
    step = np.stack([mat_exp(g, span / steps) for g in gens])
    powers = np.empty((steps + 1,) + step.shape)
    powers[0] = np.eye(step.shape[-1])
    done = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while done <= steps:
            take = min(done, steps + 1 - done)
            np.matmul(powers[:take], powers[done - 1] @ step, out=powers[done:done + take])
            done += take
    return powers


def taylor_terms(gen, tau: float) -> np.ndarray:
    """Terms ``(G tau)^k / k!``, ``k = 0..K``, of the series of ``e^{G tau}``.

    For ``rho = ||G tau||_1 <= 1``, ``K`` is the smallest order whose first
    dropped term ``rho^(K+1) / (K+1)!`` is at most ``2^-53`` (the truncation
    bound of Al-Mohy & Higham 2009), so ``sum_k v^k terms[k]`` is
    ``e^{G v tau}`` to that bound for every ``0 <= v <= 1``.  Returns a
    ``(K + 1, m, m)`` stack whose first slice is exactly ``I``.
    """
    rho = float(np.abs(gen).sum(axis=0).max()) * tau
    order, term = 0, rho
    while term > 2.0 ** -53:
        order += 1
        term *= rho / (order + 1)
    terms = np.empty((order + 1,) + np.shape(gen))
    terms[0] = np.eye(len(gen))
    for k in range(1, order + 1):
        np.multiply(terms[k - 1] @ gen, tau / k, out=terms[k])
    return terms


def grid_exponentials(gen, period: float, t) -> np.ndarray:
    """``e^{G t_j}`` for every time of the 1-D array ``t`` in ``[0, period]``.

    The period is cut into the fewest steps ``h`` with ``||G h||_1 <= 1``,
    and the grid exponentials ``e^{G q h}`` built, by one
    :func:`stage_powers` call.  With ``t_j = (q_j + v_j) h`` and
    ``0 <= v_j <= 1``, slice ``j`` is ``e^{G q_j h}`` times
    ``sum_k v_j^k terms[k]``
    (:func:`taylor_terms` of ``G h``); ``t_j = 0`` gives exactly ``I``.
    Work and memory grow with ``||G||_1 period``, not with its logarithm as
    in scaling and squaring: a few steps per period for a converter stage,
    ``10^4`` powers for ``||G||_1 period = 10^4``, a :class:`DomainError`
    past ``MAX_GRID_STEPS``.  Overflow comes back non-finite, with no
    ``RuntimeWarning``.
    """
    arr = as_square_matrix(gen, "G").astype(float, copy=False)
    check_positive("period", period)
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise DimensionError(f"t must be a 1-D array, got shape {t.shape}")
    if not np.all((t >= 0.0) & (t <= period)):
        raise DomainError(f"times must lie in [0, {period}]")
    powers = stage_powers((arr,), period, 1, 1.0)
    h = period / (len(powers) - 1)
    terms = taylor_terms(arr, h)
    v = t / h
    q = np.floor(v).astype(int)  # at most the step count, as t <= period
    vander = (v - q)[:, None] ** np.arange(len(terms))
    rest = (vander @ terms.reshape(len(terms), -1)).reshape(t.shape + arr.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        # Overflow is reported to the caller as non-finite entries.
        return powers[q, 0] @ rest


def eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a small dense matrix, with multiplicity.

    Dense QR iteration (``numpy.linalg.eigvals``) on the matrix as given,
    so a real matrix yields exact conjugate pairs.  The result is complex
    and sorted by (real, imag), so callers get a deterministic order.
    """
    vals = np.linalg.eigvals(as_square_matrix(m, "M")).astype(complex)
    return vals[np.lexsort((vals.imag, vals.real))]


def factor_linear(m) -> tuple[np.ndarray, np.ndarray]:
    """LU factor of a square ``M`` with partial pivoting, real or complex.

    LAPACK ``getrf``.  Raises :class:`SingularMatrixError` when any pivot
    magnitude falls below ``SINGULAR_PIVOT_RTOL * ||M||_inf``; that
    threshold is the package-wide definition of "numerically singular".
    Returns the ``(lu, piv)`` pair that :func:`solve_factored` takes, so
    one factor serves every right-hand side of ``M``.
    """
    arr = as_square_matrix(m, "M")
    # ||M||_inf, as np.linalg.norm(M, np.inf) computes it.
    scale = np.abs(arr).sum(axis=1).max()
    if scale == 0.0:
        raise SingularMatrixError("matrix is identically zero")
    lu, piv, _ = _getrf(arr.dtype)(arr)
    pivot = np.abs(lu.diagonal()).min()
    if pivot <= SINGULAR_PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"pivot {pivot:.3e} below threshold "
            f"{SINGULAR_PIVOT_RTOL * scale:.3e}"
        )
    return lu, piv


def solve_factored(factor: tuple[np.ndarray, np.ndarray], b) -> np.ndarray:
    """Solve ``M x = b`` from the :func:`factor_linear` factor of ``M``.

    LAPACK ``getrs``; ``b`` may be complex where ``M`` is real.
    """
    lu, piv = factor
    vec = np.asarray(b)
    if vec.shape[0] != lu.shape[0]:
        raise DimensionError(
            f"b has length {vec.shape[0]}, expected {lu.shape[0]}"
        )
    if not np.isfinite(vec).all():
        raise DomainError("b has non-finite entries")
    return _getrs(lu.dtype, vec.dtype)(lu, piv, vec)[0]


def solve_linear(m, b) -> np.ndarray:
    """Solve ``M x = b`` by LU with partial pivoting, real or complex.

    :func:`factor_linear` then :func:`solve_factored`: a near-singular
    ``M`` raises :class:`SingularMatrixError`.
    """
    return solve_factored(factor_linear(m), b)


# The routines scipy's lu_factor/lu_solve pick for these dtypes: getrf
# from M alone, getrs from the LU factor and b together.
@functools.cache
def _getrf(m_dtype):
    return scipy.linalg.get_lapack_funcs(("getrf",), (np.empty(0, m_dtype),))[0]


@functools.cache
def _getrs(lu_dtype, b_dtype):
    return scipy.linalg.get_lapack_funcs(
        ("getrs",), (np.empty(0, lu_dtype), np.empty(0, b_dtype))
    )[0]


def solve_linear_stack(m, b) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``M_i x_i = b_i`` for every slice of a ``(k, n, n)`` stack.

    Batched LU with partial pivoting, real or complex.  Each slice gets
    the test of :func:`solve_linear`: a pivot at or below
    ``SINGULAR_PIVOT_RTOL * ||M_i||_inf`` makes it singular.  Returns the
    ``(k, n)`` solutions and a ``(k,)`` boolean ``ok`` mask; the rows of
    singular slices are NaN.
    """
    arr = np.asarray(m)
    vec = np.asarray(b)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise DimensionError(f"M must be a (k, n, n) stack, got shape {arr.shape}")
    if vec.shape != arr.shape[:2]:
        raise DimensionError(f"b has shape {vec.shape}, expected {arr.shape[:2]}")
    if not (np.all(np.isfinite(arr)) and np.all(np.isfinite(vec))):
        raise DomainError("M or b has non-finite entries")
    k, n, _ = arr.shape
    # [M | b], eliminated in place; row swaps carry b along.  Below the
    # diagonal only the multipliers' column is left stale: nothing reads it.
    lu = np.concatenate([arr, vec[:, :, None]], axis=2).astype(
        np.result_type(arr, vec, float), copy=False
    )
    real = not np.iscomplexobj(lu)
    scale = _inf_norms(arr)
    slices = np.arange(k)
    pivot_min = np.full(k, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Singular slices divide by a zero pivot; their rows become NaN.
        # The last column has one candidate pivot and nothing below it.
        for j in range(n - 1):
            col = lu[:, j:, j]
            # LAPACK's pivot order: |re| + |im| for complex entries.
            mag = np.abs(col) if real else np.abs(col.real) + np.abs(col.imag)
            below = np.argmax(mag, axis=1)
            if below.any():
                # Row j trades places with row j + below of every slice.
                other = j + below
                row = lu[slices, other]
                lu[slices, other] = lu[:, j]
                lu[:, j] = row
            pivot = lu[:, j, j]
            np.minimum(pivot_min, np.abs(pivot), out=pivot_min)
            f = lu[:, j + 1:, j] / pivot[:, None]
            lu[:, j + 1:, j + 1:] -= f[:, :, None] * lu[:, None, j, j + 1:]
        if n:
            np.minimum(pivot_min, np.abs(lu[:, n - 1, n - 1]), out=pivot_min)
        x = lu[:, :, n]
        for j in range(n - 1, -1, -1):
            x[:, j] = (
                x[:, j] - np.einsum("ki,ki->k", lu[:, j, j + 1:n], x[:, j + 1:])
            ) / lu[:, j, j]
    ok = (scale > 0.0) & (pivot_min > SINGULAR_PIVOT_RTOL * scale)
    x[~ok] = np.nan
    return x, ok


def _inf_norms(arr: np.ndarray) -> np.ndarray:
    # ||M_i||_inf of every slice of a (k, n, n) stack, the floats of
    # np.abs(arr).sum(axis=2).max(axis=1, initial=0.0) without its two
    # reductions over short axes: numpy adds fewer than 8 terms left to
    # right, as the column slices are added here.
    mag = np.abs(arr)
    k, n, _ = mag.shape
    if n < 8:
        rows = np.zeros((k, n))
        for j in range(n):
            rows += mag[:, :, j]
    else:
        rows = mag.sum(axis=2)
    scale = np.zeros(k)
    for i in range(n):
        np.maximum(scale, rows[:, i], out=scale)
    return scale


def _check_bracket(lo: float, hi: float, tol: float) -> None:
    # The arguments both root finders refuse.
    if not (_finite_real(lo) and _finite_real(hi) and lo < hi):
        raise DomainError(f"invalid bracket [{lo}, {hi}]")
    check_positive("tol", tol)


def _checked(x: float, fx) -> float:
    # f(x) as a float; NaN ends either root finder.
    fx = float(fx)
    if math.isnan(fx):
        raise DivergenceError(f"f({x:.6g}) is NaN")
    return fx


def newton_root(f, lo: float, hi: float, flo: float, fhi: float, tol: float) -> float:
    """Root of ``f`` inside the bracket ``[lo, hi]`` by bracketed Newton.

    ``f(x)`` returns the value and the slope at ``x``; ``flo`` and ``fhi``
    are the values at the ends, already known and of opposite signs, so
    the ends are not evaluated again.  The first iterate is the
    regula-falsi point of the ends, or the end it lies within ``tol`` of.
    Every value narrows the bracket by its sign; the next iterate is the
    Newton step, or the midpoint where that step would not land strictly
    inside the bracket or the slope is zero.  The last iterate is returned
    once its value is zero, its Newton step is at most ``tol`` long, or the
    bracket is at most ``tol`` wide.  A NaN value raises
    :class:`DivergenceError`, a budget of 100 evaluations spent
    :class:`NoConvergenceError`.  The result never leaves ``[lo, hi]``.
    """
    _check_bracket(lo, hi, tol)
    flo, fhi = float(flo), float(fhi)
    if not (flo < 0.0 < fhi or fhi < 0.0 < flo):
        raise DomainError(f"no sign change over [{lo}, {hi}]: f = {flo}, {fhi}")
    # flo / (flo - fhi) lies in [0, 1]; the end tests also clamp rounding.
    x = lo + (hi - lo) * (flo / (flo - fhi))
    if x - lo <= tol:
        x = lo
    elif hi - x <= tol:
        x = hi
    for _ in range(_NEWTON_MAXITER):
        fx, slope = f(x)
        fx, slope = _checked(x, fx), float(slope)
        if fx == 0.0 or abs(fx) <= tol * abs(slope):
            return x
        if (fx < 0.0) == (flo < 0.0):
            lo = x
        else:
            hi = x
        if hi - lo <= tol:
            return x
        step = x - fx / slope if slope else math.nan
        x = step if lo < step < hi else lo + (hi - lo) / 2
    raise NoConvergenceError(f"Newton did not converge in [{lo:.6g}, {hi:.6g}]")


def find_root(f, lo: float, hi: float, tol: float) -> float:
    """Root of ``f`` inside the bracket ``[lo, hi]`` (Brent's method).

    Each end is evaluated once.  Without a strict sign change over the
    bracket (a zero at an end, or a few-ulp disagreement with the scan that
    found it) the end with the smaller ``|f|`` is returned, ``lo`` on a tie.
    NaN raises :class:`DivergenceError`, an exhausted Brent budget
    :class:`NoConvergenceError`.  The result never leaves ``[lo, hi]``.

    The iteration is scipy's ``brentq`` with ``xtol = tol``,
    ``rtol = 4 eps`` and 100 iterations.
    """
    # Only the tests call find_root: scipy.optimize stays off start-up.
    import scipy.optimize

    _check_bracket(lo, hi, tol)
    seen = []

    def value(x):
        seen.append(_checked(x, f(x)))
        return seen[-1]

    try:
        root, info = scipy.optimize.brentq(
            value, lo, hi, xtol=tol, rtol=_BRENT_RTOL, maxiter=_BRENT_MAXITER,
            full_output=True, disp=False,
        )
    except ValueError:
        # brentq refuses ends of one sign; f's own ValueError propagates.
        if len(seen) < 2 or seen[0] < 0.0 < seen[1] or seen[1] < 0.0 < seen[0]:
            raise
        return lo if abs(seen[0]) <= abs(seen[1]) else hi
    if not info.converged:
        raise NoConvergenceError(f"Brent did not converge in [{lo:.6g}, {hi:.6g}]")
    return root
