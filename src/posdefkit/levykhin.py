"""Synthesis and analysis of the classical integral representations.

Four forms are covered, all driven by the same measure machinery:

- interval form      psi(t) = c + d(t-t0) + integral e_lam(t) e^{-lam t0} dmu
- increasing form    psi(t) = c + integral f_lam(t) dmu,  mu on [0, inf)
- Bernstein form     psi(t) = a + b t + integral (1 - e^{-lam t}) dsigma
- even half-line form  psi(t) = a + b|t| + integral (1 - e^{-lam |t|}) dsigma

The basis functions are normalized so that e_lam and its t-derivative vanish
at t0, and f_lam vanishes at t = 1; both are continuous in lam at 0.  The
second derivative of the interval form is the negated transform of mu, the
first derivative of the increasing form is the transform itself, which is
what the analysis routines invert (nonnegative least squares on a lambda
dictionary; see ``analyze_interval``).

The function handles are ``funcs.quadrature_handle``s: they integrate their
distinct arguments as one batch and keep the last batch of each derivative
order, values and bounds together, so a Gram that two checks evaluate on
one grid costs one quadrature.
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _accel
from . import measure as msr
from .diffcalc import completely_monotone_check, derivative
from .errors import (
    DivergentIntegral,
    DomainError,
    InvalidMeasure,
    InvalidRep,
    NotIncreasing,
    NotNegativeDefinite,
)
from .funcs import FuncHandle, quadrature_handle
from .jsonfmt import number, pair, render, required
from .kernelcheck import FAIL, _decide, resolve_tol

# default quadrature tolerance of every synthesis, and sign tolerance of the fits
SYNTH_TOL = msr.QUAD_TOL
FIT_TOL = 1e-8
_PROBE_TOL = 1e-6
# exp() overflows just above 709; dictionary columns beyond this are unusable
_EXP_OVERFLOW = 700.0


def default_lambda_grid():
    """Dictionary for the inverse fits: 40 log-spaced points plus exact 0."""
    return np.concatenate(([0.0], np.geomspace(1e-3, 1e3, 40)))


# ---------------------------------------------------------------------------
# basis functions (scalar forms; the array forms live in _accel)


def e_lambda(lam, t, t0=0.0):
    """(1 - lam*u - exp(-lam*u)) / lam**2 with u = t - t0; -u**2/2 at lam = 0.

    Vanishes together with its t-derivative at t = t0.  Small |lam*u| is
    routed through a Taylor branch, so the value is continuous in lam at 0.
    """
    return float(_accel.e_lambda_damped_vals(lam, float(t) - float(t0), 0.0)[0])


def f_lambda(lam, t):
    """(exp(-lam) - exp(-lam*t)) / lam; equals t - 1 at lam = 0, zero at t = 1."""
    return float(-_accel.e_lambda_dt_damped_vals(lam, float(t), 1.0)[0])


# ---------------------------------------------------------------------------
# representation types


def _probe_points(a, b):
    lo = a if math.isfinite(a) else ((b - 4.0) if math.isfinite(b) else -2.0)
    hi = b if math.isfinite(b) else ((a + 4.0) if math.isfinite(a) else 2.0)
    return np.linspace(lo, hi, 7)[1:-1]


def _probe_laplace(mu, points, what):
    # Finiteness at the probes extends to their convex hull (the transform
    # is log-convex in t); the gap out to the open endpoints is inherent to
    # finite probing and documented rather than papered over.
    try:
        msr.laplace(mu, points, tol=_PROBE_TOL)
    except DivergentIntegral as exc:
        raise InvalidRep(f"{what}: transform of the measure diverges on "
                         f"[{min(points):g}, {max(points):g}]: {exc}") from exc


@dataclass(frozen=True)
class LKIntervalRep:
    """Scalars (t0, c, d) and a measure mu on the line; see synth_interval."""

    form = "interval"
    json_fields = ("t0", "c", "d", "interval", "mu")

    t0: float
    c: float
    d: float
    mu: msr.Measure
    interval: tuple = (-math.inf, math.inf)

    def __post_init__(self):
        try:
            a, b = (float(x) for x in self.interval)
        except (TypeError, ValueError):
            raise InvalidRep("interval must be two numbers") from None
        object.__setattr__(self, "interval", (a, b))
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "d", float(self.d))
        if not a < b:
            raise InvalidRep("interval must be nonempty")
        if not a < self.t0 < b:
            raise InvalidRep("t0 must lie inside the interval")
        _probe_laplace(self.mu, _probe_points(a, b), "interval representation")


@dataclass(frozen=True)
class LKIncreasingRep:
    """Scalar c = psi(1) and a measure mu on [0, inf); see synth_increasing."""

    form = "increasing"
    json_fields = ("c", "mu")

    c: float
    mu: msr.Measure

    def __post_init__(self):
        object.__setattr__(self, "c", float(self.c))
        if not msr.on_half_line(self.mu):
            raise InvalidRep("increasing representation: mu must lie in [0, inf)")
        _probe_laplace(self.mu, np.geomspace(0.125, 8.0, 5), "increasing representation")


@dataclass(frozen=True)
class BernsteinRep:
    """Triple (a, b, sigma) with sigma on (0, inf) integrating min(1, lam)."""

    form = "bernstein"
    json_fields = ("a", "b", "sigma")

    a: float
    b: float
    sigma: msr.Measure

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if self.a < 0 or self.b < 0:
            raise InvalidRep("a and b must be nonnegative")
        try:
            msr.one_wedge_integral(self.sigma)
        except DivergentIntegral as exc:
            raise InvalidRep(
                "sigma fails the min(1, lam) integrability condition"
            ) from exc
        except InvalidMeasure as exc:
            raise InvalidRep("sigma must be supported in (0, inf)") from exc


# ---------------------------------------------------------------------------
# synthesis


def _synth(mu, wsum, g_head, g_tail, offset, t, tol, full, what):
    """``msr.integral_value`` of offset + integral g_t dmu, or its value unless ``full``."""
    lv = msr.integral_value(mu, wsum, g_head, g_tail, t, tol, what, offset)
    return lv if full else lv.value


def synth_interval(rep, t, tol=SYNTH_TOL, full=False):
    """c + d(t-t0) + integral e_lam(t) e^{-lam t0} dmu at t inside the interval.

    Atom sums are exact; the density part carries a quadrature bound <= tol.
    ``full=True`` returns a LaplaceValue exposing that bound.  Like every
    synthesizer here, it takes a scalar or an array of t.
    """
    a, b = rep.interval
    ts = msr._batch(t, "synthesis", f"t = {{:g}} outside the open interval ({a:g}, {b:g})", a, b)
    u, t0 = ts - rep.t0, rep.t0
    um = float(np.abs(u).max())
    # |e_lam(u)| <= u^2/2 * e^{|lam u|} over the stub
    g_head = (msr.scaled_exp(0.5 * um * um, msr.stub_reach(rep.mu.density) * (um + abs(t0))), 0.0)
    return _synth(rep.mu, lambda x, w: _accel.e_lambda_damped_vals(x, u[:, None], t0) @ w, g_head,
                  (2.0 + um, -1.0, min(float(ts.min()), t0)), rep.c + rep.d * u, t, tol, full,
                  "interval synthesis")


def synth_increasing(rep, t, tol=SYNTH_TOL, full=False):
    """c + integral f_lam(t) dmu for t > 0; equals c exactly at t = 1."""
    ts = msr._batch(t, "synthesis", "increasing synthesis is defined for t > 0", 0.0)
    um = float(np.abs(ts - 1.0).max())
    g_head = (msr.scaled_exp(um, msr.stub_reach(rep.mu.density) * um), 0.0)
    return _synth(rep.mu, lambda x, w: -(_accel.e_lambda_dt_damped_vals(x, ts[:, None], 1.0) @ w),
                  g_head, (2.0, -1.0, min(1.0, float(ts.min()))), rep.c, t, tol, full,
                  "increasing synthesis")


def _bernstein(rep, ts, t, tol, full):
    dens = rep.sigma.density
    # 1 - e^{-lam t} <= lam t
    g_head = (float(ts.max()), 1.0) if dens is not None and dens.lo == 0.0 else (1.0, 0.0)
    return _synth(rep.sigma, lambda x, w: _accel.one_minus_exp_sum(x, w, ts), g_head,
                  (1.0, 0.0, 0.0), rep.a + rep.b * ts, t, tol, full, "Bernstein synthesis")


def synth_bernstein(rep, t, tol=SYNTH_TOL, full=False):
    """a + b*t + integral (1 - e^{-lam t}) dsigma for t >= 0; nonnegative,
    and exactly a at t = 0."""
    # the open bound one subnormal below 0 admits t = 0 and rejects every t < 0
    ts = msr._batch(t, "synthesis", "Bernstein synthesis is defined for t >= 0", -math.ulp(0.0))
    return _bernstein(rep, ts, t, tol, full)


def synth_reflection_negative(rep, t, tol=SYNTH_TOL, full=False):
    """Even extension a + b|t| + integral (1 - e^{-lam |t|}) dsigma; exactly a at t = 0."""
    return _bernstein(rep, np.abs(msr._batch(t, "synthesis")), t, tol, full)


# synthesis form -> (the representation form it reads, its synthesizer)
SYNTH_FORMS = {
    "interval": ("interval", synth_interval),
    "increasing": ("increasing", synth_increasing),
    "bernstein": ("bernstein", synth_bernstein),
    "reflection_negative": ("bernstein", synth_reflection_negative),
}


def synth(rep, t, tol=SYNTH_TOL, full=False, form=None):
    """Evaluate ``rep`` at t in ``form`` (a ``SYNTH_FORMS`` key), by default
    the representation's own; a form that reads another representation
    raises ``InvalidRep``."""
    form = rep.form if form is None else form
    native, fn = SYNTH_FORMS.get(form, (None, None))
    if native != rep.form:
        raise InvalidRep(f"representation has form {rep.form!r}, not {form!r}")
    return fn(rep, t, tol, full)


# ---------------------------------------------------------------------------
# function handles around the synthesizers


def interval_handle(rep, tol=SYNTH_TOL):
    """FuncHandle for the interval synthesis with analytic derivatives.

    The second and higher derivatives reduce to transform derivatives of mu
    with flipped sign; the first derivative integrates the basis-derivative
    expm1(-lam*u)/lam against e^{-lam t0} dmu.
    """

    def evaluate(ts, k):
        if k == 0:
            return synth_interval(rep, ts, tol, full=True)
        if k > 1:
            lv = msr.laplace_deriv(rep.mu, ts, k - 2, tol)
            return replace(lv, value=-lv.value)
        ts = msr._batch(ts, "synthesis")
        u, t0 = ts - rep.t0, rep.t0
        um = float(np.abs(u).max())
        g_head = (msr.scaled_exp(um + 1.0, msr.stub_reach(rep.mu.density) * (um + abs(t0))), 0.0)
        return msr.integral_value(
            rep.mu, lambda x, w: _accel.e_lambda_dt_damped_vals(x, ts[:, None], t0) @ w, g_head,
            (2.0, -1.0, min(float(ts.min()), t0)), ts, tol, "interval first derivative", rep.d)

    return quadrature_handle(evaluate, rep.interval, "interval_synth", 8)


def increasing_handle(rep, tol=SYNTH_TOL):
    """FuncHandle for the increasing synthesis; psi^(k) is the (k-1)-st
    transform derivative of mu."""

    def evaluate(ts, k):
        if k == 0:
            return synth_increasing(rep, ts, tol, full=True)
        return msr.laplace_deriv(rep.mu, ts, k - 1, tol)

    return quadrature_handle(evaluate, msr.HALF_LINE, "increasing_synth", 8)


def bernstein_handle(rep, tol=SYNTH_TOL):
    """FuncHandle for the Bernstein synthesis; derivatives come from the
    transform of sigma (which needs no mass finiteness for k >= 1)."""

    def evaluate(ts, k):
        if k == 0:
            return synth_bernstein(rep, ts, tol, full=True)
        lv = msr.laplace_deriv(rep.sigma, ts, k, tol)
        return replace(lv, value=-lv.value + rep.b if k == 1 else -lv.value)

    return quadrature_handle(evaluate, msr.HALF_LINE, "bernstein_synth", 8)


def reflection_negative_handle(rep, tol=SYNTH_TOL):
    """Even FuncHandle on the whole line (no derivatives: kink at 0)."""
    return quadrature_handle(lambda ts, k: synth_reflection_negative(rep, ts, tol, full=True),
                             (-math.inf, math.inf), "reflneg_synth")


# ---------------------------------------------------------------------------
# analysis (inverse fits)


def _dictionary(fit, lambda_grid):
    """exp(-lam_j * s_i) columns; overflowing columns are dropped.

    A dropped column could only matter with weight below the double
    underflow threshold, so dropping is lossless in practice.  A lambda that
    is not finite raises ``ValueError`` naming the first one.
    """
    lams = np.asarray(lambda_grid, dtype=np.float64)
    if not np.all(np.isfinite(lams)):
        raise ValueError(f"lambda grid must be finite, got {lams[~np.isfinite(lams)][0]:g}")
    expo = -np.outer(fit, lams)
    keep = expo.max(axis=0) <= _EXP_OVERFLOW
    return np.exp(expo[:, keep]), lams[keep]


def _fit_prelude(fit_grid, tol):
    """The sorted distinct points of a fit grid (at least two) and tol, which
    must be finite and > 0 as in ``resolve_tol``."""
    fit = np.unique(np.asarray(fit_grid, dtype=np.float64))
    if fit.size < 2:
        raise ValueError("fit grid needs at least two points")
    return fit, resolve_tol(float(tol), fit.size)


def _nnls_fit(fit, y, lambda_grid):
    """Nonnegative atoms on ``lambda_grid`` (None: ``default_lambda_grid()``)
    whose transform fits y on the fit grid, and the max residual."""
    if lambda_grid is None:
        lambda_grid = default_lambda_grid()
    A, lams = _dictionary(fit, lambda_grid)
    if A.shape[1] == 0:
        raise ValueError("every dictionary column overflows on this fit grid")
    # columns span many orders of magnitude; normalizing keeps the active-set
    # solver convergent and the nonnegativity constraint is scale-invariant
    # (max-norm: entries reach the overflow edge, so L2 squaring is unsafe)
    from scipy import optimize

    norms = np.abs(A).max(axis=0)
    w, _ = optimize.nnls(A / norms, y, maxiter=50 * A.shape[1])
    w = w / norms
    residual = float(np.abs(A @ w - y).max())
    atoms = tuple((float(l), float(x)) for l, x in zip(lams, w) if x > 0.0)
    return atoms, residual


def analyze_interval(psi, t0, fit_grid, lambda_grid=None, tol=FIT_TOL):
    """Recover (c, d) = (psi(t0), psi'(t0)) and fit mu to -psi''.

    The scalar pair is determined by the representation; recovering mu from
    -psi'' is an ill-posed inverse problem, so the measure is a nonnegative
    least-squares fit over the lambda dictionary and only the reported
    residual (max fit error on the grid) is claimed.  Raises
    ``NotNegativeDefinite`` when -psi'' dips below -tol on the fit grid.
    """
    t0 = float(t0)
    fit, tol = _fit_prelude(fit_grid, tol)
    c = psi(t0)
    d = derivative(psi, t0, 1)
    y = -np.asarray(derivative(psi, fit, 2))
    if _decide(y.min(), tol) == FAIL:
        i = int(np.argmin(y))
        raise NotNegativeDefinite(
            f"second derivative is positive at t = {fit[i]:g}; "
            "no positive measure can represent it"
        )
    atoms, residual = _nnls_fit(fit, y, lambda_grid)
    rep = LKIntervalRep(t0=t0, c=c, d=d, mu=msr.Measure(atoms=atoms), interval=psi.domain)
    return rep, residual


def analyze_increasing(psi, fit_grid, lambda_grid=None, tol=FIT_TOL):
    """Recover c = psi(1) and fit mu to psi' on the grid.

    psi' must be nonnegative (``NotIncreasing`` otherwise) and pass the
    finite-difference complete-monotonicity screen (``NotNegativeDefinite``
    otherwise, since psi' must be a transform of a positive measure).
    """
    fit, tol = _fit_prelude(fit_grid, tol)
    if fit[0] <= 0:
        raise DomainError("fit grid must lie in (0, inf)")
    c = psi(1.0)
    y = np.asarray(derivative(psi, fit, 1))
    if _decide(y.min(), tol) == FAIL:
        i = int(np.argmin(y))
        raise NotIncreasing(f"derivative is negative at t = {fit[i]:g}")
    dpsi = _derivative_handle(psi)
    # noise floor: numeric psi' carries ~1e-11 error through the differences
    cm = completely_monotone_check(dpsi, fit, k_max=2, tol=max(tol, 1e-9))
    if not cm.passed:
        raise NotNegativeDefinite(
            "derivative fails the complete-monotonicity differences; "
            "no positive measure matches psi'"
        )
    atoms, residual = _nnls_fit(fit, y, lambda_grid)
    rep = LKIncreasingRep(c=c, mu=msr.Measure(atoms=atoms, support=msr.HALF_LINE))
    return rep, residual


def _derivative_handle(psi):
    """psi' as a handle: psi's derivatives and bounds shifted one order, where it has them."""
    shift = psi.deriv is not None and psi.d_max >= 2
    return FuncHandle(fn=lambda t: derivative(psi, t, 1), domain=psi.domain,
                      deriv=(lambda t, k: psi.deriv_at(t, k + 1)) if shift else None,
                      d_max=psi.d_max - 1 if shift else 0,
                      name=(psi.name + "_prime") if psi.name else "psi_prime",
                      bound=(lambda t, k: psi.bounds_at(t, k + 1)) if psi.has_analytic(1) else None)


def bernstein_to_increasing(rep, tol=SYNTH_TOL):
    """Re-express a Bernstein triple in the increasing form.

    c = psi(1) and mu = b*delta_0 + lam dsigma(lam): integrating f_lam
    against lam dsigma telescopes to the (1 - e^{-lam t}) kernel minus its
    value at t = 1, and the lam = 0 atom supplies the linear part.  A gridded
    sigma is its interpolant in both c and mu, whatever its rule.  c is a
    quadrature value stored as exact, so the increasing form carries the
    error of psi(1), up to its bound, at every t.
    """
    sigma = msr.interpolated(rep.sigma)
    c = synth_bernstein(replace(rep, sigma=sigma), 1.0, tol)
    weighted = msr.lambda_weighted(sigma)
    atoms = ((0.0, rep.b),) if rep.b > 0 else ()
    mu = msr.Measure(atoms=atoms + weighted.atoms, density=weighted.density,
                     support=msr.HALF_LINE)
    return LKIncreasingRep(c=c, mu=mu)


# ---------------------------------------------------------------------------
# JSON forms


_REPS = {cls.form: cls for cls in (LKIntervalRep, LKIncreasingRep, BernsteinRep)}
# (to JSON, from JSON) of the ``json_fields`` that are not floats
_CODECS = {"interval": (list, lambda v: pair(v, "interval", InvalidRep)),
           "mu": (msr.measure_doc, msr.measure_from_doc),
           "sigma": (msr.measure_doc, msr.measure_from_doc)}


def rep_to_json(rep):
    """Serialize a representation: its form, then its ``json_fields`` in
    order; measures embed in their JSON dict form."""
    if not isinstance(rep, tuple(_REPS.values())):
        raise TypeError("not a representation object")
    return render({"form": rep.form, **{name: _CODECS.get(name, (float,))[0](getattr(rep, name))
                                        for name in rep.json_fields}})


def rep_from_json(text):
    """Parse any of the three representation JSON forms; a missing field or
    a scalar that is not a number raises ``InvalidRep``."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise InvalidRep("representation JSON must be an object")
    form = doc.get("form")
    if not isinstance(form, str) or form not in _REPS:
        raise InvalidRep(f"unknown representation form {form!r}")
    cls = _REPS[form]
    return cls(**{name: _CODECS[name][1](required(doc, name, InvalidRep)) if name in _CODECS
                  else number(doc, name, InvalidRep) for name in cls.json_fields})
