"""Function handles: a callable plus domain and optional analytic derivatives."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OrderTooHigh


@dataclass(frozen=True)
class FuncHandle:
    """A scalar function on an interval, vectorized over numpy arrays.

    ``deriv(t, k)`` returns the k-th derivative for 0 <= k <= d_max when
    analytic derivatives are available, for a scalar or an array t;
    ``deriv(t, 0)`` must agree with the function itself.  ``bound(t, k)``,
    when set, is the error bound of the k-th derivative at each t;
    ``bounds_at`` reports zeros for a handle without it.  Domain endpoints
    are admitted when the formula extends continuously there; a point that is
    not finite, and an evaluation that comes out non-finite, raise
    ``DomainError``.
    """

    fn: object
    domain: tuple = (-math.inf, math.inf)
    deriv: object = None
    d_max: int = 0
    name: str = ""
    bound: object = None

    def __call__(self, t):
        return self._checked(self.fn, t, self.name or "function")

    def _checked(self, fn, t, what, finite=True):
        """fn at t inside the domain; a float for a scalar t, else an array."""
        arr = np.asarray(t, dtype=np.float64)
        lo, hi = self.domain
        if arr.size:
            # a NaN point makes both ends NaN, so it is named here and never blamed on fn
            first, last = arr.min(), arr.max()
            if not (math.isfinite(first) and math.isfinite(last)):
                bad = arr[~np.isfinite(arr)].flat[0]
                raise DomainError(f"{what} needs a finite t, got {bad:g}")
            if first < lo or last > hi:
                raise DomainError(f"{what} evaluated outside its domain [{lo:g}, {hi:g}]")
        out = np.asarray(fn(arr), dtype=np.float64)
        if finite and not np.isfinite(out).all():
            raise DomainError(f"{what} is not finite at a requested point")
        return float(out) if arr.ndim == 0 else out

    def deriv_at(self, t, k):
        """Analytic k-th derivative at a scalar or an array t; raises
        ``OrderTooHigh`` beyond d_max."""
        return self._order_at(self.deriv, t, k, "derivative") if int(k) else self(t)

    def bounds_at(self, t, k=0):
        """Error bound of ``deriv_at(t, k)`` at a scalar or an array t: zeros
        for a handle without ``bound``, inf where a bound overflowed."""
        bound = self.bound or (lambda arr, k: np.zeros_like(arr))
        return self._order_at(bound, t, k, "bound", finite=False)

    def _order_at(self, fn, t, k, what, finite=True):
        """``fn(t, k)`` through ``_checked`` once order k is available."""
        k, name = int(k), self.name or "function"
        if k and not self.has_analytic(k):
            raise OrderTooHigh(f"analytic derivatives of order {k} are not available for {name}")
        return self._checked(lambda arr: fn(arr, k), t, f"{what} of {name}", finite)

    def has_analytic(self, k):
        return self.deriv is not None and int(k) <= self.d_max


def from_callable(fn, domain=(-math.inf, math.inf), name=""):
    """Wrap a plain vectorized callable with no analytic derivatives."""
    return FuncHandle(fn=fn, domain=domain, name=name)


def evenize(f, name=""):
    """The even function t -> f(|t|) on the mirrored domain, with f's bound at |t|."""
    lo, hi = f.domain
    if lo > 0:
        raise DomainError("evenize needs a domain reaching down to 0")
    return FuncHandle(
        fn=lambda t: f.fn(np.abs(t)),
        domain=(-hi, hi),
        name=name or (f.name + "_even" if f.name else "even"),
        bound=None if f.bound is None else lambda t, k: f.bound(np.abs(t), k),
    )


def quadrature_handle(evaluate, domain, name, d_max=0):
    """A handle on ``evaluate(ts, k)``, the ``LaplaceValue`` of the k-th
    derivative (k <= d_max) at sorted distinct ts.  Each order keeps its last
    batch and serves a call on the same distinct arguments, in any order or
    multiplicity, from it: the values, derivatives and ``bounds_at`` of one
    batch cost one evaluation and give the bits a new one would."""
    memo = {}  # order -> (bytes of the distinct arguments, their LaplaceValue)

    def read(field):
        def at(t, k):
            uniq, inv = np.unique(t, return_inverse=True)
            # one read of the kept pair, so threads sharing a handle never mix batches
            key, lv = memo.get(k, (None, None))
            if key != uniq.tobytes():
                key, lv = uniq.tobytes(), evaluate(uniq, k)
                memo[k] = (key, lv)
            return getattr(lv, field)[inv].reshape(np.shape(t))

        return at

    deriv = read("value")
    return FuncHandle(fn=lambda t: deriv(t, 0), domain=domain, deriv=deriv if d_max else None,
                      d_max=d_max, name=name, bound=read("truncation_bound"))


def _grid_size(lo, hi, n):
    """n as an int, once n is in 1..64 and (lo, hi) is a nonempty window of
    finite ends and finite width hi - lo."""
    n = int(n)
    if n < 1 or n > 64:
        raise ValueError("grid size must be in 1..64")
    if not (math.isfinite(float(hi) - float(lo)) and hi > lo):
        raise ValueError("grid interval must be finite and nonempty")
    return n


def chebyshev_grid(lo, hi, n):
    """n Chebyshev points of the first kind mapped strictly inside (lo, hi)."""
    n = _grid_size(lo, hi, n)
    i = np.arange(n)
    x = np.cos(np.pi * (2 * i + 1) / (2 * n))
    return np.sort(0.5 * (lo + hi) + 0.5 * (hi - lo) * x)


def uniform_grid(lo, hi, n):
    """n equally spaced interior points of (lo, hi)."""
    return np.linspace(lo, hi, _grid_size(lo, hi, n) + 2)[1:-1]
