"""Small dense-matrix numerics used throughout the package.

Converter models are low order (N <= 8), so everything here targets small
dense matrices.  Single matrices go to LAPACK-backed routines; stacks of
matrices evaluated on a whole grid at once go to a numpy kernel:

* ``mat_exp`` wraps scaling-and-squaring with a Pade kernel
  (``scipy.linalg.expm``), accurate to ~1e-13 relative for the norms that
  occur in one switching period.
* ``mat_exp_stack`` exponentiates a ``(k, m, m)`` stack in one pass:
  degree-13 Pade with per-slice scaling and squaring (Al-Mohy & Higham
  2009, the algorithm behind ``scipy.linalg.expm``), written with numpy's
  batched ``matmul`` and ``solve`` only.  It applies scipy's structure
  test: on triangular slices (diagonal ones included) the diagonal and the
  first off-diagonal are recomputed in closed form after every squaring,
  so ``e^{0}`` is exactly ``I`` and an exact +1 multiplier stays exactly
  +1.  scipy's own batch forms are avoided because they loop over the
  slices in Python and need a newer scipy than the supported floor.
* ``mat_powers`` stacks the powers ``step^j``, ``j = 0..points``, of one
  matrix by doubling.  Of a step exponential ``e^{G h}`` they are the
  exponentials ``e^{G j h}`` on a uniform grid: the orbit solver's scan and
  the simulator's scan grids both come from it, at one ``mat_exp`` per
  stage.
* The exponential and power kernels report a value past the float range
  only as non-finite entries, with no ``RuntimeWarning``; callers that can
  meet divergent dynamics check for them and raise :class:`DomainError`.
* ``eigenvalues`` runs the dense QR algorithm (``numpy.linalg.eigvals``)
  on the matrix as given, so a real matrix keeps exact conjugate pairs.
* ``solve_linear`` is an LU solve, real or complex, by LAPACK
  ``getrf``/``getrs`` called directly, with an explicit pivot threshold so
  near-singular systems raise instead of returning garbage; upstream code
  relies on that signal (e.g. "lambda is an eigenvalue of the open-loop
  map").  ``solve_linear_stack`` applies the same threshold to every
  slice of a stack and reports it in a mask instead of raising.
* ``newton_root`` refines a bracket whose end values are already known by
  Newton steps on a caller-supplied slope, bisecting where a step would
  leave the bracket; the orbit solver refines its switching time with it,
  and the simulator its comparator event.
* ``find_root`` refines a bracket by Brent-Dekker, ported from scipy's
  ``brentq``, or returns its end nearest zero.  The package itself does
  not call it: it is the root finder of the test-side reference cycle
  the simulator is checked against, and ``perfbench/spans.py`` wraps it by
  name.

All functions are pure; they can be called concurrently from sweep workers.
"""

from __future__ import annotations

import functools
import math
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

#: Brent's relative step tolerance (the smallest scipy accepts) and its
#: iteration budget, scipy's defaults.
_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100

#: Evaluation budget of ``newton_root``, Brent's.
_NEWTON_MAXITER = _BRENT_MAXITER


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


def mat_exp(a, t: float) -> np.ndarray:
    """Matrix exponential ``e^{A t}``.

    ``t`` may be zero or negative (reversed-time factors such as
    ``e^{-A T}`` are legitimate inputs).  An exponential that overflows
    comes back non-finite, as with :func:`mat_exp_stack`.
    """
    arr = as_square_matrix(a, "A").astype(float, copy=False)
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t}")
    if t == 0.0:
        return np.eye(arr.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        return scipy.linalg.expm(arr * t)


#: Degree-13 Pade coefficients b_0..b_13 (Higham 2005, Table 10.4), grouped
#: as the four combinations of (A2, A4, A6) the evaluation needs: rows 0-1 build
#: U = A (A6 (b13 A6 + b11 A4 + b9 A2) + b7 A6 + b5 A4 + b3 A2 + b1 I) and
#: rows 2-3 build V = A6 (b12 A6 + b10 A4 + b8 A2) + b6 A6 + b4 A4 + b2 A2 + b0 I.
_PADE13_B0, _PADE13_B1 = 64764752532480000.0, 32382376266240000.0
_PADE13_MIX = np.array([
    [40840800.0, 16380.0, 1.0],
    [1187353796428800.0, 10559470521600.0, 33522128640.0],
    [1323241920.0, 960960.0, 182.0],
    [7771770303897600.0, 129060195264000.0, 670442572800.0],
])
#: Largest 1-norm for which the degree-13 approximant is exact to unit
#: roundoff in backward error (Al-Mohy & Higham 2009, Table 3.1).
_THETA13 = 5.371920351148152


def _pin_triangular(r, a, up, scale):
    # Code Fragment 2.1 of Al-Mohy & Higham (2009): overwrite the diagonal
    # and the first off-diagonal of r ~ e^{A scale} with their closed forms.
    # The off-diagonal needs the divided difference (e^b - e^a)/(b - a),
    # taken as e^{(a+b)/2} sinh(h)/h with h = (b - a)/2, which does not
    # cancel when a and b are close.
    m = a.shape[-1]
    ii = np.arange(m)
    diag = np.diagonal(a, axis1=1, axis2=2) * scale[:, None]
    r[:, ii, ii] = np.exp(diag)
    if m == 1:
        return
    half = np.diff(diag, axis=1) / 2.0
    flat = half == 0.0
    sinch = np.exp(diag[:, :-1] + half) * np.where(
        flat, 1.0, np.sinh(half) / np.where(flat, 1.0, half)
    )
    off = np.where(
        up[:, None],
        np.diagonal(a, 1, axis1=1, axis2=2),
        np.diagonal(a, -1, axis1=1, axis2=2),
    )
    val = sinch * off * scale[:, None]
    upper = np.flatnonzero(up)[:, None]
    lower = np.flatnonzero(~up)[:, None]
    r[upper, ii[:-1], ii[1:]] = val[up]
    r[lower, ii[1:], ii[:-1]] = val[~up]


def _pin(r, a, up, tri, scale):
    # Applies _pin_triangular to the triangular slices of r in place.
    if tri.all():
        _pin_triangular(r, a, up, scale)
    elif tri.any():
        pinned = r[tri]
        _pin_triangular(pinned, a[tri], up[tri], scale[tri])
        r[tri] = pinned


def mat_exp_stack(a) -> np.ndarray:
    """``e^{A_i}`` for every slice ``A_i`` of a real ``(k, m, m)`` stack.

    Each slice is scaled by ``2^-s_i`` until its 1-norm is at most
    ``theta_13``, one degree-13 Pade solve runs over the whole stack, and
    every slice is squared back ``s_i`` times.  Triangular slices are
    exact on the diagonal and keep their zero triangle, as with
    ``scipy.linalg.expm``.  A slice that overflows comes back non-finite,
    as with :func:`mat_exp`.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise DimensionError(f"A must be a (k, m, m) stack, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("A has non-finite entries")
    k, m, _ = arr.shape
    # s = max(0, ceil(log2(||A||_1 / theta_13))), exactly, from frexp.
    frac, s = np.frexp(np.abs(arr).sum(axis=1).max(axis=1, initial=0.0) / _THETA13)
    s = np.maximum(s - (frac == 0.5), 0)
    scale = np.ldexp(1.0, -s)
    nonzero = arr != 0.0
    below = np.tri(m, k=-1, dtype=bool)
    upper = ~nonzero[:, below].any(axis=1)
    lower = ~nonzero[:, below.T].any(axis=1)
    tri = upper | lower

    x = arr * scale[:, None, None]
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    mix = (_PADE13_MIX @ np.stack([x2, x4, x6]).reshape(3, -1)).reshape(4, k, m, m)
    diag = np.arange(m)
    mix[1, :, diag, diag] += _PADE13_B1
    mix[3, :, diag, diag] += _PADE13_B0
    u = x @ (x6 @ mix[0] + mix[1])
    v = x6 @ mix[2] + mix[3]
    r = np.linalg.solve(v - u, v + u)
    with np.errstate(over="ignore", invalid="ignore"):
        # Overflow is reported to the caller as non-finite entries.
        _pin(r, arr, upper, tri, scale)
        for j in range(int(s.max(initial=0))):
            act = s > j
            r = np.where(act[:, None, None], r @ r, r)
            _pin(r, arr, upper, tri & act, np.ldexp(1.0, j + 1 - s))
    if tri.any():
        r[upper] = np.triu(r[upper])
        r[lower] = np.tril(r[lower])
    return r


def mat_powers(step, points: int) -> np.ndarray:
    """``step^j`` for ``j = 0..points``, as a ``(points + 1, m, m)`` stack.

    Built by doubling: each pass multiplies every power so far by the
    highest one times ``step``, so ``step^0`` is exactly ``I`` and about
    ``log2(points)`` passes build the stack.  With ``step = e^{G h}``
    the slices are ``e^{G j h}`` on a uniform grid.  A non-finite ``step``,
    or a power past the float range, comes back as non-finite entries,
    with no ``RuntimeWarning``, as with :func:`mat_exp`.
    """
    arr = np.asarray(step, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"step must be square, got shape {arr.shape}")
    check_count("points", points, 1)
    powers = np.eye(len(arr))[None]
    with np.errstate(over="ignore", invalid="ignore"):
        while len(powers) <= points:
            powers = np.concatenate(
                (powers, powers[: points + 1 - len(powers)] @ (powers[-1] @ arr))
            )
    return powers


def eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a small dense matrix, with multiplicity.

    Dense QR iteration (``numpy.linalg.eigvals``) on the matrix as given,
    so a real matrix yields exact conjugate pairs.  The result is complex
    and sorted by (real, imag), so callers get a deterministic order.
    """
    vals = np.linalg.eigvals(as_square_matrix(m, "M")).astype(complex)
    return vals[np.lexsort((vals.imag, vals.real))]


def solve_linear(m, b) -> np.ndarray:
    """Solve ``M x = b`` by LU with partial pivoting, real or complex.

    Raises :class:`SingularMatrixError` when any pivot magnitude falls
    below ``SINGULAR_PIVOT_RTOL * ||M||_inf``; that threshold is the
    package-wide definition of "numerically singular".
    """
    arr = as_square_matrix(m, "M")
    vec = np.asarray(b)
    if vec.shape[0] != arr.shape[0]:
        raise DimensionError(
            f"b has length {vec.shape[0]}, expected {arr.shape[0]}"
        )
    if not np.isfinite(vec).all():
        raise DomainError("b has non-finite entries")
    # ||M||_inf, as np.linalg.norm(M, np.inf) computes it.
    scale = np.abs(arr).sum(axis=1).max()
    if scale == 0.0:
        raise SingularMatrixError("matrix is identically zero")
    getrf, getrs = _lu_routines(arr.dtype, vec.dtype)
    lu, piv, _ = getrf(arr)
    pivot = np.abs(lu.diagonal()).min()
    if pivot <= SINGULAR_PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"pivot {pivot:.3e} below threshold "
            f"{SINGULAR_PIVOT_RTOL * scale:.3e}"
        )
    return getrs(lu, piv, vec)[0]


@functools.cache
def _lu_routines(m_dtype, b_dtype):
    # The routines scipy's lu_factor/lu_solve pick for these dtypes: getrf
    # from M alone, getrs from the LU factor and b together.
    getrf, = scipy.linalg.get_lapack_funcs(("getrf",), (np.empty(0, m_dtype),))
    getrs, = scipy.linalg.get_lapack_funcs(
        ("getrs",), (np.empty(0, getrf.dtype), np.empty(0, b_dtype))
    )
    return getrf, getrs


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
    scale = np.abs(arr).sum(axis=2).max(axis=1, initial=0.0)
    slices = np.arange(k)
    pivot_min = np.full(k, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Singular slices divide by a zero pivot; their rows become NaN.
        for j in range(n):
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
        x = lu[:, :, n]
        for j in range(n - 1, -1, -1):
            x[:, j] = (
                x[:, j] - np.einsum("ki,ki->k", lu[:, j, j + 1:n], x[:, j + 1:])
            ) / lu[:, j, j]
    ok = (scale > 0.0) & (pivot_min > SINGULAR_PIVOT_RTOL * scale)
    x[~ok] = np.nan
    return x, ok


def _check_bracket(lo: float, hi: float, tol: float) -> None:
    # The arguments both root finders refuse.
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"invalid bracket [{lo}, {hi}]")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")


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

    The iteration is scipy's ``brentq`` (``brentq.c``) step for step, with
    ``xtol = tol`` and ``rtol = 4 eps``: the same points are evaluated and
    the same float is returned.
    """
    _check_bracket(lo, hi, tol)

    def value(x):
        return _checked(x, f(x))

    fpre, fcur = value(lo), value(hi)
    if not (fpre < 0.0 < fcur or fcur < 0.0 < fpre):
        return lo if abs(fpre) <= abs(fcur) else hi
    # xcur is the best estimate, xblk the far end of the bracket around the
    # root, xpre the previous estimate; scur and spre are the last two steps.
    xpre, xcur, xtol = float(lo), float(hi), float(tol)
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless a short interpolation step is found
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # Secant.
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # Inverse quadratic extrapolation.
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # An underflowed denominator gives C an infinite or NaN
                # step, which fails the test below: bisect.
                if den:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise NoConvergenceError(f"Brent did not converge in [{lo:.6g}, {hi:.6g}]")
