"""Reflection positivity and negativity on symmetric intervals and the line.

A function phi is reflection positive on (-a, a) when both the difference
kernel phi((t-s)/2) on (-a, a) and the sum kernel phi((t+s)/2) on (0, a)
build PSD Grams; the negative-definite analogue swaps psd_check for
cnd_check and is cross-checked through exp(-h*psi) sampling and, on the
whole line, through the Bernstein property of psi restricted to (0, inf).
The (-a, a) window is mirrored bit for bit, so evenness is decided from one
evaluation of phi on it.  Verdicts are grid decisions: PASS means no
violation was found at this grid and tolerance, nothing stronger.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import measure as msr
from .diffcalc import _convex_decreasing, _dip, _sample, bernstein_check
from .errors import (
    ConsistencyError,
    DomainError,
    InvalidMeasure,
    NotConvex,
    NotSymmetric,
)
from .funcs import FuncHandle, chebyshev_grid, evenize, quadrature_handle
from .kernelcheck import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    PositivityVerdict,
    _decide,
    _scale,
    cnd_check,
    combine,
    psd_check,
    resolve_tol,
    schoenberg_scan,
    window_gram,
)

_EPS = np.finfo(float).eps

# probe horizon replacing a when the requested interval is the whole line
_UNBOUNDED_HORIZON = 4.0


@dataclass(frozen=True)
class ReflectionReport:
    """Both kernel verdicts plus the evenness flag and combined outcome.

    The Schoenberg and Bernstein entries are filled only by the
    negative-definite check (None otherwise); the combined verdict is PASS
    exactly when evenness and every filled route pass.
    """

    minus_verdict: PositivityVerdict
    plus_verdict: PositivityVerdict
    a: float
    symmetric: bool
    verdict: str
    schoenberg_minus: PositivityVerdict | None = None
    schoenberg_plus: PositivityVerdict | None = None
    bernstein_verdict: PositivityVerdict | None = None
    bound: float = 0.0

    @property
    def passed(self):
        return self.verdict == PASS

    def to_dict(self):
        doc = {
            "verdict": self.verdict,
            "a": self.a,
            "symmetric": self.symmetric,
            "minus": self.minus_verdict.to_dict(),
            "plus": self.plus_verdict.to_dict(),
        }
        for key, route in (("schoenberg_minus", self.schoenberg_minus),
                           ("schoenberg_plus", self.schoenberg_plus),
                           ("bernstein", self.bernstein_verdict)):
            if route is not None:
                doc[key] = route.to_dict()
        return doc


@dataclass(frozen=True)
class BoundaryReport:
    """Outcome of the boundary-derivative test for a transform on (-a, a)."""

    sufficient: bool
    rp: ReflectionReport
    necessary_witness: float | None


def _window(a, n, tol, finite=True):
    """a checked positive (and finite if ``finite``), n and the tol for n points."""
    a = float(a)
    if not (a > 0 and (math.isfinite(a) or not finite)):
        raise DomainError("a must be positive and finite" if finite else "a must be positive")
    return a, int(n), resolve_tol(tol, int(n))


def _even_grids(f, a, n, tol):
    """The n-point Chebyshev windows of (-a, a), mirrored as w = (x - x[::-1])/2 so that
    -w[::-1] == w bit for bit (0.0 in the middle at odd n), and of (0, a); and the
    evenness verdict (within tol*scale) from one evaluation of f on w, vals vs vals[::-1]."""
    x = chebyshev_grid(-a, a, n)
    grids = 0.5 * (x - x[::-1]), chebyshev_grid(0.0, a, n)
    vals = np.atleast_1d(f(grids[0]))
    return grids, _decide(float(np.abs(vals - vals[::-1]).max()), tol, _scale(vals), upper=True)


def reflection_positive_check(phi, a, n=12, tol=None):
    """PSD test of both kernels of ``phi`` on Chebyshev grids in (-a, a).

    The report combines evenness (within tol*scale), the difference kernel
    on a symmetric grid, and the sum kernel on a (0, a) grid.
    """
    a, n, tol = _window(a, n, tol)
    grids, even = _even_grids(phi, a, n, tol)
    grams = [window_gram(phi, g) for g in grids]
    minus_v, plus_v = (psd_check(g, tol) for g in grams)
    return ReflectionReport(minus_v, plus_v, a, even == PASS, combine((even, minus_v, plus_v)),
                            bound=float(max(g.bounds.max() for g in grams)))


def reflection_negative_check(psi, a, n=12, hs=None, tol=None):
    """Negative-definite analogue on (-a, a), with a = inf allowed.

    Runs every route and combines them: cnd on both kernels, the
    exp(-h*psi) positive-definiteness scan on both kernels, and for a = inf
    the Bernstein test of psi - psi(0) on (0, horizon).  All routes report
    individually so a FAIL shows which necessary condition broke.  Raises
    ``NotSymmetric`` when the evenness of psi within tol*scale fails.
    """
    a, n, tol = _window(a, n, tol, finite=False)
    grids, even = _even_grids(psi, a if math.isfinite(a) else _UNBOUNDED_HORIZON, n, tol)
    if even == FAIL:
        raise NotSymmetric("function must be even for the reflection tests")
    # one Gram per kernel feeds both the cnd test and the exp(-h*psi) scan
    grams = [window_gram(psi, g) for g in grids]
    minus_v, plus_v = (cnd_check(g, tol) for g in grams)
    sch_m, sch_p = (schoenberg_scan(g, hs, tol) for g in grams)
    bern_v = None
    if math.isinf(a):
        psi0 = psi(0.0)
        shifted = replace(psi, fn=lambda t: psi.fn(t) - psi0, domain=(0.0, psi.domain[1]),
                          name=(psi.name or "psi") + "_shifted")
        bern_v = bernstein_check(shifted, grids[1], k_max=3, tol=tol)
    routes = (even, minus_v, plus_v, sch_m, sch_p, bern_v)
    return ReflectionReport(
        minus_v, plus_v, a, even == PASS, combine(v for v in routes if v is not None),
        schoenberg_minus=sch_m, schoenberg_plus=sch_p, bernstein_verdict=bern_v,
        bound=float(max(g.bounds.max() for g in grams)),
    )


def polya_check(phi, grid, tol=None):
    """Sufficient test: even, nonnegative, convex, decreasing on [0, inf).

    PASS certifies positive definiteness on the line.  FAIL only means the
    criterion is not met at this grid; it is not a refutation (Gaussians
    fail convexity near 0 yet are positive definite).  Evenness is the
    caller's promise; the grid must sit in [0, inf).
    """
    grid, tol, vals, scale = _sample(phi, grid, tol, lo=0.0)
    dip = _dip(grid, tol, vals)
    return _convex_decreasing(grid, tol, vals, scale) if dip.passed else dip


def extendable_check(psi, a, tol=None):
    """Whether a convex nonnegative ``psi`` on [0, a] extends to a positive
    definite even function, i.e. the one-sided slope at a is <= tol.

    Returns ``(flag, extension)`` where the extension is psi(min(|t|, a)) on
    the whole line: psi continued by the constant psi(a) and mirrored.  The
    positive-definiteness claim for the extension holds only when the flag
    is true.  Raises ``NotConvex`` when the sampled convexity or
    nonnegativity precondition fails.
    """
    a, _, tol = _window(a, 24, tol)
    pts = np.concatenate(([0.0], chebyshev_grid(0.0, a, 22), [a]))
    vals = np.atleast_1d(psi(pts))
    scale = _scale(vals)
    if _dip(pts, tol, vals).verdict == FAIL:
        raise NotConvex("function must be nonnegative on [0, a]")
    slopes = np.diff(vals) / np.diff(pts)
    drop = float(np.max(slopes[:-1] - slopes[1:]))
    if _decide(drop, tol, scale, upper=True) == FAIL:
        raise NotConvex("sampled slopes decrease; function is not convex on [0, a]")
    # one-sided slope at a-: first-order backward differences pushed through
    # three extrapolation levels (base steps h, 2h, 4h, 8h)
    h0 = min(_EPS**0.2 * max(1.0, a), a / 10.0)
    d = [(float(psi(a)) - float(psi(a - h0 * 2.0**j))) / (h0 * 2.0**j) for j in range(4)]
    r1 = [2.0 * d[j] - d[j + 1] for j in range(3)]
    r2 = [(4.0 * r1[j] - r1[j + 1]) / 3.0 for j in range(2)]
    slope_a = (8.0 * r2[0] - r2[1]) / 7.0
    base = psi.fn
    extension = FuncHandle(
        fn=lambda arr: np.asarray(
            base(np.minimum(np.abs(np.asarray(arr, dtype=np.float64)), a)),
            dtype=np.float64,
        ),
        domain=(-math.inf, math.inf),
        name=(psi.name or "psi") + "_extended",
    )
    return _decide(slope_a, tol, upper=True) == PASS, extension


def boundary_derivative_check(mu, a, n=12, tol=None):
    """Boundary-derivative test for phi(t) = transform of mu at |t|.

    ``sufficient`` is the one-sided slope condition at a (slope <= tol
    implies reflection positivity); ``rp`` is the direct kernel check, with
    verdict INCONCLUSIVE when ``rp.bound`` exceeds the quadrature tolerance;
    when rp passes and phi is nonconstant, ``necessary_witness`` is b = a/1000
    when the transform slope there is < -tol.  The slope never decreases
    (phi is convex), so no larger b can qualify when this one fails.  A
    nonpositive boundary slope together with a failed kernel check is a
    contradiction and raises ``ConsistencyError``; a transform that diverges
    on the window raises ``DivergentIntegral``.
    """
    a, n, tol = _window(a, n, tol)
    b = 1e-3 * a
    transform = quadrature_handle(lambda ts, k: msr.laplace_deriv(mu, ts, k), (0.0, a),
                                  "transform", 1)
    slope_b, slope = transform.deriv_at([b, a], 1)
    sufficient = _decide(slope, tol, upper=True) == PASS
    phi = evenize(transform, "transform_even")
    rp = reflection_positive_check(phi, a, n, tol)
    if not rp.bound <= msr.QUAD_TOL:
        rp = replace(rp, verdict=INCONCLUSIVE)
    witness = None
    if rp.passed:
        grid = chebyshev_grid(-a, a, max(n, 12))
        vals = np.atleast_1d(phi(grid))
        scale = _scale(vals)
        nonconstant = _decide(float(vals.max() - vals.min()), tol, scale, upper=True) == FAIL
        if nonconstant and _decide(slope_b, tol) == FAIL:
            witness = b
    if sufficient and rp.verdict == FAIL:
        raise ConsistencyError(
            "boundary slope is nonpositive yet the kernel check failed; "
            "the two routes contradict beyond tolerance"
        )
    return BoundaryReport(sufficient=sufficient, rp=rp, necessary_witness=witness)


def periodic_rp(mu_plus, beta, t, tol=msr.QUAD_TOL):
    """Value at t of the beta-periodic reflection positive function
    integral of e^{-r lam} + e^{-(beta - r) lam} dmu_plus, r = t mod beta.

    The reduction uses exact floating-point fmod with a sign fix-up, so
    f(t + k*beta) = f(t) and f(beta - t) = f(t) hold to the last bit.
    """
    beta = float(beta)
    if not (beta > 0 and math.isfinite(beta)):
        raise ValueError("beta must be positive and finite")
    if not msr.on_half_line(mu_plus):
        raise InvalidMeasure("periodic construction needs a measure on [0, inf)")
    (t,) = msr._batch(t, "periodic construction").tolist()
    r = math.fmod(t, beta)
    if r < 0.0:
        r += beta
    near, far = msr.laplace(mu_plus, np.array([r, beta - r]), tol).value
    return float(near + far)


def double_integral_rp(atoms, t):
    """Sum of w * (e^{-lam|t|} + e^{-lam(beta - |t|)}) over (lam, beta, w) atoms.

    Each beta must stay above |t| (the defining strip is beta >= a > |t|,
    and the best available a is the smallest beta in the list); an empty
    atom list gives 0.  Sums are exact.
    """
    (t,) = msr._batch(t, "double integral construction").tolist()
    rows = [(float(l), float(b), float(w)) for (l, b, w) in atoms]
    for lam, beta, w in rows:
        if lam < 0 or w < 0 or beta <= 0 or not all(map(math.isfinite, (lam, beta, w))):
            raise InvalidMeasure("atoms must be finite (lam >= 0, beta > 0, weight >= 0) triples")
    a = min((b for _, b, _ in rows), default=math.inf)
    if abs(t) >= a:
        raise DomainError(f"|t| = {abs(t):g} must stay below the smallest beta ({a:g})")
    x = abs(t)
    total = 0.0
    for lam, beta, w in rows:
        total += w * (math.exp(-lam * x) + math.exp(-lam * (beta - x)))
    return total
