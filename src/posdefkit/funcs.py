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
    ``deriv(t, 0)`` must agree with the function itself.  Domain endpoints
    are admitted when the formula extends continuously there; evaluations
    that come out non-finite raise ``DomainError``.
    """

    fn: object
    domain: tuple = (-math.inf, math.inf)
    deriv: object = None
    d_max: int = 0
    name: str = ""

    def __call__(self, t):
        return self._checked(self.fn, t, self.name or "function")

    def _checked(self, fn, t, what):
        """fn at t inside the domain; a float for a scalar t, else an array."""
        arr = np.asarray(t, dtype=np.float64)
        lo, hi = self.domain
        if (arr < lo).any() or (arr > hi).any():
            raise DomainError(f"{what} evaluated outside its domain [{lo:g}, {hi:g}]")
        out = np.asarray(fn(arr), dtype=np.float64)
        if not np.isfinite(out).all():
            raise DomainError(f"{what} is not finite at a requested point")
        return float(out) if arr.ndim == 0 else out

    def deriv_at(self, t, k):
        """Analytic k-th derivative at a scalar or an array t; raises
        ``OrderTooHigh`` beyond d_max."""
        k = int(k)
        if k == 0:
            return self(t)
        name = self.name or "function"
        if self.deriv is None or k > self.d_max:
            raise OrderTooHigh(f"analytic derivatives of order {k} are not available for {name}")
        return self._checked(lambda arr: self.deriv(arr, k), t, f"derivative of {name}")

    def has_analytic(self, k):
        return self.deriv is not None and int(k) <= self.d_max


def from_callable(fn, domain=(-math.inf, math.inf), name=""):
    """Wrap a plain vectorized callable with no analytic derivatives."""
    return FuncHandle(fn=fn, domain=domain, name=name)


def evenize(f, name=""):
    """The even function t -> f(|t|) on the mirrored domain."""
    lo, hi = f.domain
    if lo > 0:
        raise DomainError("evenize needs a domain reaching down to 0")
    return FuncHandle(
        fn=lambda t: f.fn(np.abs(t)),
        domain=(-hi, hi),
        name=name or (f.name + "_even" if f.name else "even"),
    )


def _grid_size(lo, hi, n):
    """n as an int, once n is in 1..64 and (lo, hi) is a finite nonempty window."""
    n = int(n)
    if n < 1 or n > 64:
        raise ValueError("grid size must be in 1..64")
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
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
