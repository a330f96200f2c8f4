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
"""

import json
import math
from dataclasses import dataclass

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
from .funcs import FuncHandle
from .jsonfmt import render

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
    return float(_accel.f_lambda_vals(lam, float(t))[0])


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


def _require_halfline(mu, what):
    lam, _ = mu.atom_arrays()
    if lam.size and np.any(lam < 0):
        raise InvalidRep(f"{what}: atoms must lie in [0, inf)")
    if mu.density is not None and mu.density.lo < 0:
        raise InvalidRep(f"{what}: density support must lie in [0, inf)")


@dataclass(frozen=True)
class LKIntervalRep:
    """Scalars (t0, c, d) and a measure mu on the line; see synth_interval."""

    form = "interval"

    t0: float
    c: float
    d: float
    mu: msr.Measure
    interval: tuple = (-math.inf, math.inf)

    def __post_init__(self):
        a, b = float(self.interval[0]), float(self.interval[1])
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

    c: float
    mu: msr.Measure

    def __post_init__(self):
        object.__setattr__(self, "c", float(self.c))
        _require_halfline(self.mu, "increasing representation")
        _probe_laplace(self.mu, np.geomspace(0.125, 8.0, 5), "increasing representation")


@dataclass(frozen=True)
class BernsteinRep:
    """Triple (a, b, sigma) with sigma on (0, inf) integrating min(1, lam)."""

    form = "bernstein"

    a: float
    b: float
    sigma: msr.Measure

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if self.a < 0 or self.b < 0:
            raise InvalidRep("a and b must be nonnegative")
        try:
            wedge = msr.one_wedge_integral(self.sigma)
        except DivergentIntegral as exc:
            raise InvalidRep(
                "sigma fails the min(1, lam) integrability condition"
            ) from exc
        except InvalidMeasure as exc:
            raise InvalidRep("sigma must be supported in (0, inf)") from exc
        if not math.isfinite(wedge):
            raise InvalidRep("sigma fails the min(1, lam) integrability condition")


# ---------------------------------------------------------------------------
# synthesis


def _stub_reach(mu):
    """Largest |lam| the unresolved stub of a function density reaches; 0 otherwise."""
    dens = mu.density
    if isinstance(dens, msr.FuncDensity):
        return abs(dens.lo) + dens.head.cutoff
    return 0.0


def _batch(t, message="", lo=-math.inf, hi=math.inf):
    """t as a 1-d float array; a DomainError names the first t that is not
    finite, else the first outside (lo, hi), as a scalar call there would."""
    ts = np.ravel(np.asarray(t, dtype=np.float64))
    for bad, text in ((~np.isfinite(ts), "synthesis needs a finite t, got {:g}"),
                      ((ts <= lo) | (ts >= hi), message)):
        if bad.any():
            raise DomainError(text.format(ts[bad][0]))
    return ts


def _synth(mu, kernel, g_head, g_tail, offset, t, tol, full, what):
    """offset + integral kernel(lam) dmu for each t, shaped like t and checked
    finite; a LaplaceValue when ``full``.  ``kernel`` maps nodes to one row per t."""
    part, worst, bounds = msr.integrate_against(mu, lambda x, w: kernel(x) @ w, g_head, g_tail, tol)
    value = offset + part
    bad = ~np.isfinite(value)
    if bad.any():
        raise DivergentIntegral(f"{what} overflowed at t = {np.ravel(t)[bad][0]:g}")
    lv = msr.LaplaceValue.shaped(t, value, bounds, worst <= tol)
    return lv if full else lv.value


def synth_interval(rep, t, tol=1e-10, full=False):
    """c + d(t-t0) + integral e_lam(t) e^{-lam t0} dmu at t inside the interval.

    Atom sums are exact; the density part carries a quadrature bound <= tol.
    ``full=True`` returns a LaplaceValue exposing that bound.  Like every
    synthesizer here, it takes a scalar or an array of t.
    """
    a, b = rep.interval
    ts = _batch(t, f"t = {{:g}} outside the open interval ({a:g}, {b:g})", a, b)
    u, t0 = ts - rep.t0, rep.t0
    um = float(np.max(np.abs(u)))
    # |e_lam(u)| <= u^2/2 * e^{|lam u|} over the stub
    g_head = (0.5 * um * um * math.exp(_stub_reach(rep.mu) * (um + abs(t0))), 0.0)
    return _synth(rep.mu, lambda x: _accel.e_lambda_damped_vals(x, u[:, None], t0), g_head,
                  (2.0 + um, -1.0, min(float(ts.min()), t0)), rep.c + rep.d * u, t, tol, full,
                  "interval synthesis")


def synth_increasing(rep, t, tol=1e-10, full=False):
    """c + integral f_lam(t) dmu for t > 0; equals c exactly at t = 1."""
    ts = _batch(t, "increasing synthesis is defined for t > 0", 0.0)
    um = float(np.max(np.abs(ts - 1.0)))
    g_head = (um * math.exp(_stub_reach(rep.mu) * um), 0.0)
    return _synth(rep.mu, lambda x: _accel.f_lambda_vals(x, ts[:, None]), g_head,
                  (2.0, -1.0, min(1.0, float(ts.min()))), rep.c, t, tol, full,
                  "increasing synthesis")


def _bernstein(rep, ts, t, tol, full):
    dens = rep.sigma.density
    # 1 - e^{-lam t} <= lam t
    g_head = (float(ts.max()), 1.0) if dens is not None and dens.lo == 0.0 else (1.0, 0.0)
    return _synth(rep.sigma, lambda x: _accel.one_minus_exp_vals(x, ts[:, None]), g_head,
                  (1.0, 0.0, 0.0), rep.a + rep.b * ts, t, tol, full, "Bernstein synthesis")


def synth_bernstein(rep, t, tol=1e-10, full=False):
    """a + b*t + integral (1 - e^{-lam t}) dsigma for t > 0; nonnegative."""
    ts = _batch(t, "Bernstein synthesis is defined for t > 0", 0.0)
    return _bernstein(rep, ts, t, tol, full)


def synth_reflection_negative(rep, t, tol=1e-10, full=False):
    """Even extension a + b|t| + integral (1 - e^{-lam |t|}) dsigma; exactly a at t = 0."""
    return _bernstein(rep, _batch(np.abs(t)), t, tol, full)


def synth(rep, t, tol=1e-10, full=False, form=None):
    """Evaluate ``rep`` at t in ``form``, by default the representation's own.

    A ``BernsteinRep`` also takes ``form="reflection_negative"``; any other
    mismatch raises ``InvalidRep``.
    """
    native = rep.form
    form = native if form is None else form
    if native == "bernstein" and form == "reflection_negative":
        return synth_reflection_negative(rep, t, tol, full)
    if form != native:
        raise InvalidRep(f"representation has form {native!r}, not {form!r}")
    fn = {"interval": synth_interval, "increasing": synth_increasing,
          "bernstein": synth_bernstein}[native]
    return fn(rep, t, tol, full)


# ---------------------------------------------------------------------------
# function handles around the synthesizers


def _synth_handle(rep, tol, form, domain, name, deriv=None):
    def fn(t):
        # one batched synthesis over the distinct arguments
        uniq, inv = np.unique(t, return_inverse=True)
        return synth(rep, uniq, tol, form=form)[inv].reshape(np.shape(t))

    return FuncHandle(
        fn=fn,
        domain=domain,
        deriv=deriv,
        d_max=8 if deriv is not None else 0,
        name=name,
    )


def interval_handle(rep, tol=1e-10):
    """FuncHandle for the interval synthesis with analytic derivatives.

    The second and higher derivatives reduce to transform derivatives of mu
    with flipped sign; the first derivative integrates the basis-derivative
    expm1(-lam*u)/lam against e^{-lam t0} dmu.
    """

    def d1(t):
        ts = _batch(t)
        u, t0 = ts - rep.t0, rep.t0
        um = float(np.max(np.abs(u)))
        g_head = ((um + 1.0) * math.exp(_stub_reach(rep.mu) * (um + abs(t0))), 0.0)
        return _synth(rep.mu, lambda x: _accel.e_lambda_dt_damped_vals(x, u[:, None], t0),
                      g_head, (2.0, -1.0, min(float(ts.min()), t0)), rep.d, t, tol, False,
                      "interval first derivative")

    def deriv(t, k):
        if k == 1:
            return d1(t)
        return -msr.laplace_deriv(rep.mu, t, k - 2, tol).value

    return _synth_handle(rep, tol, "interval", rep.interval, "interval_synth", deriv)


def increasing_handle(rep, tol=1e-10):
    """FuncHandle for the increasing synthesis; psi^(k) is the (k-1)-st
    transform derivative of mu."""

    def deriv(t, k):
        return msr.laplace_deriv(rep.mu, t, k - 1, tol).value

    return _synth_handle(rep, tol, "increasing", (0.0, math.inf), "increasing_synth", deriv)


def bernstein_handle(rep, tol=1e-10):
    """FuncHandle for the Bernstein synthesis; derivatives come from the
    transform of sigma (which needs no mass finiteness for k >= 1)."""

    def deriv(t, k):
        val = -msr.laplace_deriv(rep.sigma, t, k, tol).value
        if k == 1:
            val += rep.b
        return val

    return _synth_handle(rep, tol, "bernstein", (0.0, math.inf), "bernstein_synth", deriv)


def reflection_negative_handle(rep, tol=1e-10):
    """Even FuncHandle on the whole line (no derivatives: kink at 0)."""
    return _synth_handle(rep, tol, "reflection_negative", (-math.inf, math.inf), "reflneg_synth")


# ---------------------------------------------------------------------------
# analysis (inverse fits)


def _dictionary(fit, lambda_grid):
    """exp(-lam_j * s_i) columns; overflowing columns are dropped.

    A dropped column could only matter with weight below the double
    underflow threshold, so dropping is lossless in practice.
    """
    lams = np.asarray(lambda_grid, dtype=np.float64)
    expo = -np.outer(fit, lams)
    keep = expo.max(axis=0) <= _EXP_OVERFLOW
    return np.exp(expo[:, keep]), lams[keep]


def _nnls_fit(fit, y, lambda_grid):
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


def analyze_interval(psi, t0, fit_grid, lambda_grid=None, tol=1e-8):
    """Recover (c, d) = (psi(t0), psi'(t0)) and fit mu to -psi''.

    The scalar pair is determined by the representation; recovering mu from
    -psi'' is an ill-posed inverse problem, so the measure is a nonnegative
    least-squares fit over the lambda dictionary and only the reported
    residual (max fit error on the grid) is claimed.  Raises
    ``NotNegativeDefinite`` when -psi'' dips below -tol on the fit grid.
    """
    t0 = float(t0)
    fit = np.unique(np.asarray(fit_grid, dtype=np.float64))
    if fit.size < 2:
        raise ValueError("fit grid needs at least two points")
    if lambda_grid is None:
        lambda_grid = default_lambda_grid()
    c = psi(t0)
    d = derivative(psi, t0, 1)
    y = -np.asarray(derivative(psi, fit, 2))
    if y.min() < -float(tol):
        i = int(np.argmin(y))
        raise NotNegativeDefinite(
            f"second derivative is positive at t = {fit[i]:g}; "
            "no positive measure can represent it"
        )
    atoms, residual = _nnls_fit(fit, y, lambda_grid)
    rep = LKIntervalRep(t0=t0, c=c, d=d, mu=msr.Measure(atoms=atoms), interval=psi.domain)
    return rep, residual


def analyze_increasing(psi, fit_grid, lambda_grid=None, tol=1e-8):
    """Recover c = psi(1) and fit mu to psi' on the grid.

    psi' must be nonnegative (``NotIncreasing`` otherwise) and pass the
    finite-difference complete-monotonicity screen (``NotNegativeDefinite``
    otherwise, since psi' must be a transform of a positive measure).
    """
    fit = np.unique(np.asarray(fit_grid, dtype=np.float64))
    if fit.size < 2:
        raise ValueError("fit grid needs at least two points")
    if fit[0] <= 0:
        raise DomainError("fit grid must lie in (0, inf)")
    if lambda_grid is None:
        lambda_grid = default_lambda_grid()
    tol = float(tol)
    c = psi(1.0)
    y = np.asarray(derivative(psi, fit, 1))
    if y.min() < -tol:
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
    rep = LKIncreasingRep(c=c, mu=msr.Measure(atoms=atoms, support=(0.0, math.inf)))
    return rep, residual


def _derivative_handle(psi):
    """psi' as a handle: analytic order shift when psi has derivatives."""
    fn = lambda t: derivative(psi, t, 1)
    deriv = None
    d_max = 0
    if psi.deriv is not None and psi.d_max >= 2:
        deriv = lambda t, k: psi.deriv_at(t, k + 1)
        d_max = psi.d_max - 1
    return FuncHandle(
        fn=fn,
        domain=psi.domain,
        deriv=deriv,
        d_max=d_max,
        name=(psi.name + "_prime") if psi.name else "psi_prime",
    )


def bernstein_to_increasing(rep, tol=1e-10):
    """Re-express a Bernstein triple in the increasing form.

    c = psi(1) and mu = b*delta_0 + lam dsigma(lam): integrating f_lam
    against lam dsigma telescopes to the (1 - e^{-lam t}) kernel minus its
    value at t = 1, and the lam = 0 atom supplies the linear part.
    """
    c = synth_bernstein(rep, 1.0, tol)
    atoms = [(0.0, rep.b)] if rep.b > 0 else []
    atoms += [(lam, lam * w) for lam, w in rep.sigma.atoms]
    dens = rep.sigma.density
    new_dens = None
    if dens is not None:
        if isinstance(dens, msr.GriddedDensity):
            new_dens = msr.GriddedDensity(dens.grid, dens.grid * dens.values, dens.rule)
        else:
            h = dens.head
            if dens.lo == 0.0:
                head = msr.HeadBound(h.coef, h.power + 1.0, h.cutoff)
            else:
                head = msr.HeadBound(h.coef * (dens.lo + h.cutoff), h.power, h.cutoff)
            env = dens.tail_env
            new_env = (
                None
                if env is None
                else msr.Envelope(env.coef, env.power + 1.0, env.decay, env.cutoff)
            )
            base = dens.fn
            new_dens = msr.FuncDensity(
                lambda x: x * np.asarray(base(x), dtype=np.float64),
                dens.lo,
                dens.hi,
                head,
                new_env,
            )
    mu = msr.Measure(atoms=tuple(atoms), density=new_dens, support=(0.0, math.inf))
    return LKIncreasingRep(c=c, mu=mu)


# ---------------------------------------------------------------------------
# JSON forms


def rep_to_json(rep):
    """Serialize a representation; measures embed in their JSON dict form."""
    if isinstance(rep, LKIntervalRep):
        doc = {
            "form": "interval",
            "t0": rep.t0,
            "c": rep.c,
            "d": rep.d,
            "interval": [rep.interval[0], rep.interval[1]],
            "mu": msr.measure_doc(rep.mu),
        }
    elif isinstance(rep, LKIncreasingRep):
        doc = {"form": "increasing", "c": rep.c, "mu": msr.measure_doc(rep.mu)}
    elif isinstance(rep, BernsteinRep):
        doc = {"form": "bernstein", "a": rep.a, "b": rep.b, "sigma": msr.measure_doc(rep.sigma)}
    else:
        raise TypeError("not a representation object")
    return render(doc)


def rep_from_json(text):
    """Parse any of the three representation JSON forms."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise InvalidRep("representation JSON must be an object")
    form = doc.get("form")
    if form == "interval":
        return LKIntervalRep(
            t0=float(doc["t0"]),
            c=float(doc["c"]),
            d=float(doc["d"]),
            mu=msr.measure_from_doc(doc["mu"]),
            interval=(float(doc["interval"][0]), float(doc["interval"][1])),
        )
    if form == "increasing":
        return LKIncreasingRep(c=float(doc["c"]), mu=msr.measure_from_doc(doc["mu"]))
    if form == "bernstein":
        return BernsteinRep(
            a=float(doc["a"]), b=float(doc["b"]), sigma=msr.measure_from_doc(doc["sigma"])
        )
    raise InvalidRep(f"unknown representation form {form!r}")
