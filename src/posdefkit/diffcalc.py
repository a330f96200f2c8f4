"""Finite differences, numeric derivatives, and difference-based positivity tests.

The forward difference here is (Delta_delta f)(t) = f(t) - f(t + delta), so
delta**(-k) * Delta_delta^k f -> (-1)**k f^(k) as delta -> 0.  Complete
monotonicity and the Bernstein property are tested through these differences
directly; the derivative test for Bernstein functions uses the identity
Delta_delta^(k+1) psi = -integral of Delta_delta^k psi' over a delta step,
so psi' completely monotone forces Delta_delta^(k+1) psi <= 0.
"""

import math

import numpy as np

from .errors import DomainError, OrderTooHigh
from .kernelcheck import FAIL, PASS, PositivityVerdict, default_tol, psd_check

_EPS = np.finfo(float).eps

# difference orders supported by delta_k
_K_CAP = 12
# public numeric-derivative cap; hankel may push the internal one to 6
_NUMERIC_CAP = 4
_NUMERIC_CAP_INTERNAL = 6

DEFAULT_DELTAS = (1e-1, 1e-2, 1e-3)


def _binomial_rows(ks, width):
    """Row i holds the signed binomials (-1)^j C(k_i, j) for j < width, zero past k_i."""
    rows = np.zeros((len(ks), width))
    for i, k in enumerate(ks):
        rows[i, : k + 1] = [(-1.0) ** j * math.comb(k, j) for j in range(k + 1)]
    return rows


def delta_k(f, t, delta, k):
    """k-th iterated forward difference sum_j (-1)^j C(k,j) f(t + j*delta)."""
    k = int(k)
    if k < 0 or k > _K_CAP:
        raise OrderTooHigh(f"difference order must be in 0..{_K_CAP}")
    if delta <= 0:
        raise ValueError("delta must be positive")
    lo, hi = f.domain
    if t < lo or t + k * delta > hi:
        raise DomainError("difference stencil leaves the function domain")
    pts = t + delta * np.arange(k + 1)
    vals = np.atleast_1d(f(pts))
    return float(np.dot(_binomial_rows([k], k + 1)[0], vals))


def _numeric_derivative(f, t, k, cap):
    if k > cap:
        raise OrderTooHigh(
            f"numeric differentiation supports order <= {cap}; provide analytic derivatives"
        )
    t = np.asarray(t, dtype=np.float64)
    # balance roundoff 2^k*eps/h^k against the O(h^6) Richardson remainder
    h0 = _EPS ** (1.0 / (k + 6)) * np.maximum(1.0, np.abs(t))
    lo, hi = f.domain
    dist = np.minimum(t - lo, hi - t)
    if np.any(dist <= 0):
        raise DomainError("numeric derivative needs an interior point")
    # a step of h0 reaches (k/2 + 0.01) * 4 * h0 from t; infinite dist keeps h0
    h0 = np.minimum(h0, 0.9 * dist / ((k / 2.0 + 0.01) * 4.0))
    # central k-th differences with steps h0, 2h0 and 4h0 (each O(h^2)) from
    # one call of f on the union of the three stencils
    hs = (h0, 2 * h0, 4 * h0)
    offsets = (k / 2.0 - np.arange(k + 1)) * np.stack(hs)[..., None]
    vals = np.asarray(f(t[..., None] + offsets))
    coeff = _binomial_rows([k], k + 1)[0]
    d1, d2, d4 = (v @ coeff / h**k for v, h in zip(vals, hs))
    # eliminate h^2 then h^4
    r1 = (4.0 * d1 - d2) / 3.0
    r2 = (4.0 * d2 - d4) / 3.0
    return (16.0 * r1 - r2) / 15.0


def derivative(f, t, k):
    """k-th derivative of ``f`` at ``t`` (a scalar or an array): analytic when
    available, else central differences with two Richardson eliminations
    (numeric k <= 4)."""
    k = int(k)
    if k < 0:
        raise OrderTooHigh("derivative order must be >= 0")
    if k == 0:
        return f(t)
    if f.has_analytic(k):
        return f.deriv_at(t, k)
    return _numeric_derivative(f, t, k, _NUMERIC_CAP)


def _difference_scan(f, grid, k_range, deltas, tol, sign):
    """Scan Delta_delta^k f over grid x deltas x k_range with one call of f.

    f is evaluated on every stencil t + d_eff*j, j = 0..max(k_range), with
    d_eff = delta*max(1, |t|), and all orders come from one product with the
    signed binomial rows.  sign=+1 demands the differences be >= -tol*scale
    (complete monotonicity), sign=-1 demands them <= tol*scale (Bernstein
    derivative device), with scale = max(1, |f(t)|).  Returns (worst
    normalized value, witness or None, failed); the witness is the first
    worst (t, d_eff, k) in (t, delta, k) order.
    """
    ks = list(k_range)
    deltas = np.asarray(deltas, dtype=np.float64)
    if np.any(deltas <= 0):
        raise ValueError("delta must be positive")
    t = np.atleast_1d(np.asarray(grid, dtype=np.float64))
    width = max(ks, default=0) + 1
    d_eff = deltas * np.maximum(1.0, np.abs(t))[:, None]
    pts = t[:, None, None] + d_eff[..., None] * np.arange(width)
    lo, hi = f.domain
    bad = (t < lo) | (t > hi) | (pts[..., -1] > hi).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        if lo <= t[i] <= hi:
            raise DomainError("difference stencil leaves the function domain")
        f(t[i])  # raises the handle's own out-of-domain error
    if not (ks and pts.size):
        return math.inf, None, False
    vals = np.asarray(f(pts.ravel())).reshape(-1, width)  # one row per (t, delta)
    diffs = (vals @ _binomial_rows(ks, width).T).reshape(t.size, deltas.size, len(ks))
    local = np.maximum(1.0, np.abs(vals[:: deltas.size, 0]))  # f(t) opens each t's first row
    margins = (sign * diffs) / local[:, None, None]
    # a NaN difference (overflow) never counts as the worst
    margins[np.isnan(margins)] = np.inf
    i = int(np.argmin(margins))
    worst = float(margins.flat[i])
    failed = worst < -tol
    if not failed:
        return worst, None, False
    i_t, i_d, i_k = np.unravel_index(i, margins.shape)
    return worst, (float(t[i_t]), float(d_eff[i_t, i_d]), ks[i_k]), True


def completely_monotone_check(f, grid, k_max=4, deltas=None, tol=None):
    """Differences of all orders 0..k_max stay nonnegative on the grid.

    Verdict witness is the worst (t, delta, k) triple; ``extremal_eig``
    holds the worst difference normalized by max(1, |f(t)|).
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=np.float64))
    if deltas is None:
        deltas = DEFAULT_DELTAS
    if tol is None:
        tol = default_tol(grid.size)
    k_max = int(k_max)
    if k_max > _K_CAP:
        raise OrderTooHigh(f"k_max must be <= {_K_CAP}")
    worst, witness, failed = _difference_scan(
        f, grid, range(k_max + 1), deltas, tol, sign=+1.0
    )
    if failed:
        return PositivityVerdict(FAIL, worst, tol, 1.0, np.array(witness), grid)
    return PositivityVerdict(PASS, worst, tol, 1.0, None, grid)


def bernstein_check(psi, grid, k_max=3, deltas=None, tol=None):
    """Nonnegativity plus the differenced-derivative test for Bernstein functions.

    psi must stay >= -tol on the grid, and Delta_delta^(k+1) psi <= tol*scale
    for k = 0..k_max (psi' completely monotone in difference form).  A
    nonnegativity violation is reported with witness (t, 0, -1); a derivative
    violation with the (t, delta, k) triple of the failing difference, where
    k counts the order of the implied derivative of psi'.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=np.float64))
    if deltas is None:
        deltas = DEFAULT_DELTAS
    if tol is None:
        tol = default_tol(grid.size)
    k_max = int(k_max)
    if k_max + 1 > _K_CAP:
        raise OrderTooHigh(f"k_max must be <= {_K_CAP - 1}")
    vals = np.atleast_1d(psi(grid))
    i_min = int(np.argmin(vals))
    if vals[i_min] < -tol:
        witness = np.array([float(grid[i_min]), 0.0, -1.0])
        return PositivityVerdict(FAIL, float(vals[i_min]), tol, 1.0, witness, grid)
    worst, witness, failed = _difference_scan(
        psi, grid, range(1, k_max + 2), deltas, tol, sign=-1.0
    )
    if failed:
        t, d_eff, order = witness
        return PositivityVerdict(FAIL, worst, tol, 1.0, np.array([t, d_eff, order - 1]), grid)
    return PositivityVerdict(PASS, min(worst, float(vals[i_min])), tol, 1.0, None, grid)


def hankel_check(f, c, n, shifted=False, tol=None):
    """Hankel-matrix positivity of derivatives at the point c.

    Unshifted: M_ij = f^(i+j)(c) for 0 <= i, j <= n (moment condition for a
    representing measure on the line); shifted: M_ij = -f^(1+i+j)(c) (measure
    on [0, inf), equivalently f and -f' both of positive type).  Needs
    derivatives to order 2n (2n+1 shifted): analytic when present, numeric
    up to order 6 otherwise.
    """
    n = int(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    order_needed = 2 * n + (1 if shifted else 0)
    if tol is None:
        tol = default_tol(n + 1)
    if f.has_analytic(order_needed):
        dk = lambda k: f.deriv_at(c, k) if k else f(c)
    else:
        if order_needed > _NUMERIC_CAP_INTERNAL:
            raise OrderTooHigh(
                "hankel order needs derivatives to order "
                f"{order_needed}; numeric differentiation stops at {_NUMERIC_CAP_INTERNAL}"
            )
        dk = lambda k: (f(c) if k == 0 else _numeric_derivative(f, c, k, _NUMERIC_CAP_INTERNAL))
    derivs = np.array([dk(k) for k in range(order_needed + 1)])
    idx = np.arange(n + 1)
    if shifted:
        M = -derivs[1 + idx[:, None] + idx[None, :]]
    else:
        M = derivs[idx[:, None] + idx[None, :]]
    return psd_check(M, tol)


def convex_decreasing_check(f, grid, tol=None):
    """Sampled convexity (nondecreasing slopes) and monotone decrease.

    FAIL reports the leftmost offending grid point as a 1-vector witness;
    ``extremal_eig`` is the worst normalized violation.
    """
    grid = np.sort(np.atleast_1d(np.asarray(grid, dtype=np.float64)))
    if grid.size < 3:
        raise ValueError("need at least three points")
    if tol is None:
        tol = default_tol(grid.size)
    vals = np.atleast_1d(f(grid))
    scale = max(1.0, float(np.abs(vals).max()))
    rises = np.diff(vals)
    slopes = rises / np.diff(grid)
    worst = 0.0
    where = None
    inc = rises / scale
    j = int(np.argmax(inc))
    if inc[j] > worst:
        worst, where = float(inc[j]), float(grid[j])
    kinks = -np.diff(slopes) / scale
    if kinks.size:
        j = int(np.argmax(kinks))
        if kinks[j] > worst:
            worst, where = float(kinks[j]), float(grid[j + 1])
    if worst > tol:
        return PositivityVerdict(FAIL, -worst, tol, scale, np.array([where]), grid)
    return PositivityVerdict(PASS, -worst, tol, scale, None, grid)
