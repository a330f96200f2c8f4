"""Vectorized numpy kernels of the integral representations.

Each kernel takes an array of lambda values (any array-like; scalars become
length-1 arrays) and evaluates one basis function or weighted sum over it.
The argument t (or u) may be a scalar or an array that broadcasts against
lambda, so one call serves a whole batch of t.

Numerical conventions:

- weighted exp sums are accumulated in log space per term, so an individually
  overflowing factor (huge weight, steep exp growth) cannot produce inf*0;
- ``e_lambda`` uses its closed form away from zero and a six-term Taylor
  branch for |lambda*u| < 1e-2.  The wide switch matters: its direct form
  (expm1(-x) + x)/lam**2 cancels to x**2/2, so the relative error grows
  like 2*eps/x as x shrinks; at the 1e-2 boundary both branches agree to
  ~5e-14 and the series is exact to ~5e-17 below it;
- the damped kernels fuse the factor exp(-lam*t0) into the basis function
  (t0 = 0 gives e_lambda itself).  For |lambda*u| < 1 they multiply the
  expm1 form by it; beyond that they use a difference of exponentials whose
  every term has a single exponent, so large lam*|u| cannot make 0*inf.
  The increasing form's f_lambda(t) is the negated ``e_lambda_dt`` kernel
  at t0 = 1, whose expm1 form does not cancel for small lam*(t - 1).
  ``e_lambda_damped_vals`` forms only the branches its block uses: a block
  wholly inside the series range skips the closed forms;
- the Bernstein sum of w_i * (1 - exp(-lam_i*t)) skips expm1 at saturated
  nodes, lam_i * min(t) >= 40: there exp(-lam_i*t) <= e^-40 < 2^-54, so
  1 - exp(-lam_i*t) is exactly 1.0 in binary64 for every t of the call.
  Their columns of the block are set to 1.0, so the product with the
  weights is the one of the fully evaluated block, bit for bit.
"""

import numpy as np

# |lambda*u| below this uses the Taylor branch
SERIES_SWITCH = 1e-2
# lambda*t at or above this makes -expm1(-lambda*t) exactly 1.0
SATURATION = 40.0


def exp_weighted_sum(lam, w, t, k):
    """sum_i w_i * lam_i**k * exp(-lam_i*t) for each t and column of w, for
    integer k >= 0.  Column 0 (>= 0) is summed in log space, the others as its
    terms times their ratio to it; a node where it is 0 drops from all."""
    lam = np.ascontiguousarray(lam, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    t, k = np.asarray(t, dtype=np.float64), int(k)
    shape = t.shape + w.shape[1:]
    if not lam.size:
        return np.zeros(shape)
    lead = w if w.ndim == 1 else w[:, 0]
    keep = lead > 0.0
    lam, w, lead = lam[keep], w[keep], lead[keep]
    nz = lam != 0.0
    # lam = 0 adds its weight exactly for k = 0 and nothing for k > 0
    total = w[~nz].sum(axis=0) if k == 0 else 0.0
    lam, w, lead = lam[nz], w[nz], lead[nz]
    if not lam.size:
        return np.full(shape, total)
    mag = np.log(lead) - t.reshape(-1, 1) * lam
    if k > 0:
        mag += k * np.log(np.abs(lam))
    terms = np.exp(mag)
    if (k % 2) == 1:
        terms = np.where(lam < 0.0, -terms, terms)
    sums = terms.sum(axis=1)
    if w.ndim > 1:
        sums = np.column_stack([sums, terms @ (w[:, 1:] / lead[:, None])])
    return (total + sums).reshape(shape)


def e_lambda_damped_vals(lam, u, t0):
    """e_lambda(u) * exp(-lam*t0) fused so large lam*|u| cannot make 0*inf."""
    lam = np.ascontiguousarray(lam, dtype=np.float64)
    u, t0 = np.asarray(u, dtype=np.float64), float(t0)
    x = lam * u
    if not x.size:  # no nodes: the empty block, at once
        return x
    ax = np.abs(x)
    near = ax < SERIES_SWITCH
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lt0 = -lam * t0
        damp = np.exp(lt0)
        x2 = x * x
        x4 = x2 * x2
        poly = 0.5 - x / 6.0 + x2 / 24.0 - x2 * x / 120.0 + x4 / 720.0 - x4 * x / 5040.0
        out = -u * u * poly * damp
        if not near.all():
            # the difference form cancels like eps/x**2 for small x; below
            # |x| = 1 the product form is accurate and expm1 cannot overflow
            prod = -(np.expm1(-x) + x) * damp
            diff = damp * (1.0 - x) - np.exp(lt0 - x)
            direct = np.where(ax < 1.0, prod, diff) / (lam * lam)
            out = np.where(near, out, direct)
    return np.where(lam == 0.0, -0.5 * u * u, out) if (lam == 0.0).any() else out


def e_lambda_dt_damped_vals(lam, t, t0):
    """expm1(-lam*u)/lam * exp(-lam*t0) with u = t - t0, in overflow-safe form.

    The difference form takes exp(-lam*t) from t itself: formed as
    exp(-lam*t0 - lam*u), its exponent cancels to ~lam*eps for lam near 1/t.
    """
    lam = np.ascontiguousarray(lam, dtype=np.float64)
    t, t0 = np.asarray(t, dtype=np.float64), float(t0)
    u = t - t0
    x = lam * u
    if not x.size:  # no nodes: the empty block, at once
        return x
    small = np.abs(x) < 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        prod = np.expm1(-x) / lam * np.exp(-lam * t0)
        diff = (np.exp(-lam * t) - np.exp(-lam * t0)) / lam
    out = np.where(small, prod, diff)
    return np.where(lam == 0.0, -u, out)


def one_minus_exp_sum(lam, w, t):
    """sum_i w_i * (1 - exp(-lam_i*t)) for each t and column of w, via expm1.

    The t-by-node block gets expm1 only up to the last live node; the
    saturated nodes after it (lam_i * min(t) >= SATURATION, every saturated
    node of a sorted quadrature mesh) get their exact column of 1.0.
    """
    lam = np.ascontiguousarray(lam, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if not lam.size:
        return np.zeros(t.shape + w.shape[1:])
    # a batch reaching t <= 0 saturates nothing
    tmin = max(float(t.min()), 0.0) if t.size else 0.0
    with np.errstate(over="ignore"):  # an overflowed lam * tmin is inf: saturated
        live = np.flatnonzero(~(lam * tmin >= SATURATION))
    k = int(live[-1]) + 1 if live.size else 0
    block = np.empty((t.size, lam.size))
    head = block[:, :k]
    np.expm1(-t.reshape(-1, 1) * lam[:k], out=head)
    np.negative(head, out=head)
    block[:, k:] = 1.0
    return (block @ w).reshape(t.shape + w.shape[1:])
