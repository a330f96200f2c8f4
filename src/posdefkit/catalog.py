"""Named reference functions with analytic derivatives and exact
integral-representation data.

Every entry records which definiteness properties it is known to have
(``known_flags``, each with its classical source) and, when available, the
measure data that reproduces the function through the synthesis routines.
``check_flag`` maps each flag to the checkers that can confirm it; the CLI
``check-*`` subcommands and ``run_flag_check`` (which the test suite runs
over the whole catalog) both go through it.

Flag semantics follow the window: ``positive_definite`` and
``negative_definite`` refer to the sum kernel f((x+y)/2) on half-line
windows (the transform sense) and to the difference kernel on symmetric
windows (the Fourier sense).
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as _gamma_fn

from . import levykhin as lk
from .diffcalc import bernstein_check, completely_monotone_check
from .errors import InvalidMeasure, UnknownName
from .funcs import FuncHandle, chebyshev_grid
from .kernelcheck import PASS, cnd_check, combine, psd_check, schoenberg_scan, window_gram
from .measure import Envelope, FuncDensity, HeadBound, Measure
from .reflection import reflection_negative_check, reflection_positive_check

# ---------------------------------------------------------------------------
# named densities (serializable by reference from measure JSON)


def _power_decay_density(coef, power, decay, name, params):
    coef = float(coef)
    power = float(power)
    decay = float(decay)
    if coef <= 0 or decay < 0 or not all(map(math.isfinite, (coef, power, decay))):
        raise InvalidMeasure("density needs coef > 0, decay >= 0, finite power")

    def fn(lam):
        lam = np.asarray(lam, dtype=np.float64)
        return coef * np.power(lam, power) * np.exp(-decay * lam)

    return FuncDensity(
        fn=fn,
        lo=0.0,
        hi=math.inf,
        head=HeadBound(coef=coef, power=power),
        tail_env=Envelope(coef=coef, power=power, decay=decay),
        name=name,
        params=params,
    )


def _lebesgue():
    return _power_decay_density(1.0, 0.0, 0.0, "lebesgue", {})


def _exp_density():
    # exp(-lam) dlam
    return _power_decay_density(1.0, 0.0, 1.0, "exp", {})


def _log_sigma():
    # exp(-lam)/lam dlam
    return _power_decay_density(1.0, -1.0, 1.0, "log_sigma", {})


def _stable_sigma(alpha=0.5):
    # (alpha / Gamma(1-alpha)) lam^(-1-alpha) dlam, the alpha-stable jump density
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise InvalidMeasure("stable_sigma needs 0 < alpha < 1")
    coef = alpha / float(_gamma_fn(1.0 - alpha))
    return _power_decay_density(coef, -1.0 - alpha, 0.0, "stable_sigma", {"alpha": alpha})


def _gamma_density(alpha=1.0):
    alpha = float(alpha)
    if alpha <= 0:
        raise InvalidMeasure("gamma density needs alpha > 0")
    coef = 1.0 / float(_gamma_fn(alpha))
    return _power_decay_density(coef, alpha - 1.0, 1.0, "gamma", {"alpha": alpha})


def _raw_power_decay(coef=1.0, power=0.0, decay=0.0):
    return _power_decay_density(
        coef, power, decay, "power_decay",
        {"coef": float(coef), "power": float(power), "decay": float(decay)},
    )


_DENSITY_SPECS = {
    "lebesgue": _lebesgue,
    "exp": _exp_density,
    "log_sigma": _log_sigma,
    "stable_sigma": _stable_sigma,
    "gamma": _gamma_density,
    "power_decay": _raw_power_decay,
}


def density_from_spec(name, params=None):
    """Build a named density; this is how measure JSON references callables."""
    try:
        builder = _DENSITY_SPECS[name]
    except KeyError:
        raise UnknownName(f"unknown density {name!r}") from None
    return builder(**dict(params or {}))


def _halfline_density_measure(dens):
    return Measure(atoms=(), density=dens, support=(0.0, math.inf))


# ---------------------------------------------------------------------------
# entry types


@dataclass(frozen=True)
class FlagClaim:
    """One definiteness claim with its classical source."""

    flag: str
    params: dict = field(default_factory=dict)
    source: str = ""


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    func: FuncHandle
    domain: tuple
    known_flags: tuple
    lk_form: str | None = None
    lk_data: object | None = None
    params: dict = field(default_factory=dict)
    summary: str = ""
    check_window: tuple = (0.0, 4.0)


@dataclass(frozen=True)
class FlagCheckResult:
    """Routes run for one flag; passed only when every route passed."""

    entry: str
    flag: str
    routes: tuple

    @property
    def passed(self):
        return combine(v for _, v in self.routes) == PASS


def _falling(alpha, k):
    out = 1.0
    for j in range(k):
        out *= alpha - j
    return out


# ---------------------------------------------------------------------------
# entry builders


def _power_entry(alpha=0.5):
    alpha = float(alpha)
    if not 0.0 < alpha <= 2.0:
        raise ValueError("power needs 0 < alpha <= 2")
    func = FuncHandle(
        fn=lambda t: np.power(t, alpha),
        domain=(0.0, math.inf),
        deriv=lambda t, k: _falling(alpha, k) * t ** (alpha - k),
        d_max=8,
        name=f"power({alpha:g})",
    )
    flags = []
    lk_form = None
    lk_data = None
    if alpha <= 1.0:
        flags = [
            FlagClaim("bernstein", {}, "fractional powers t^alpha, alpha <= 1 (Bernstein)"),
            FlagClaim("negative_definite", {},
                      "exp(-h t^alpha) is completely monotone for alpha <= 1 (Schoenberg)"),
        ]
        lk_form = "bernstein"
        if alpha == 1.0:
            sigma = Measure(atoms=(), density=None, support=(0.0, math.inf))
            lk_data = lk.BernsteinRep(a=0.0, b=1.0, sigma=sigma)
        else:
            lk_data = lk.BernsteinRep(
                a=0.0, b=0.0,
                sigma=_halfline_density_measure(_stable_sigma(alpha)),
            )
    return CatalogEntry(
        name="power", func=func, domain=func.domain, known_flags=tuple(flags),
        lk_form=lk_form, lk_data=lk_data, params={"alpha": alpha},
        summary="t**alpha on the positive half-line",
    )


def _log1p_entry():
    func = FuncHandle(
        fn=np.log1p,
        domain=(0.0, math.inf),
        deriv=lambda t, k: (-1.0) ** (k - 1) * math.factorial(k - 1) / (1.0 + t) ** k,
        d_max=8,
        name="log1p",
    )
    flags = (
        FlagClaim("bernstein", {}, "log(1+t) as an integral of 1 - exp(-lam t)"),
        FlagClaim("negative_definite", {}, "(1+t)^-h is completely monotone (Schoenberg)"),
    )
    rep = lk.BernsteinRep(a=0.0, b=0.0, sigma=_halfline_density_measure(_log_sigma()))
    return CatalogEntry(
        name="log1p", func=func, domain=func.domain, known_flags=flags,
        lk_form="bernstein", lk_data=rep, summary="log(1 + t)",
    )


def _log_entry():
    func = FuncHandle(
        fn=np.log,
        domain=(0.0, math.inf),
        deriv=lambda t, k: (-1.0) ** (k - 1) * math.factorial(k - 1) / t**k,
        d_max=8,
        name="log",
    )
    flags = (
        FlagClaim("negative_definite", {},
                  "t^-h is completely monotone for every h > 0 (Schoenberg)"),
    )
    rep = lk.LKIncreasingRep(c=0.0, mu=_halfline_density_measure(_lebesgue()))
    return CatalogEntry(
        name="log", func=func, domain=func.domain, known_flags=flags,
        lk_form="increasing", lk_data=rep,
        summary="log t, the Frullani integral of (exp(-lam) - exp(-lam t))/lam",
    )


def _ratio_entry():
    func = FuncHandle(
        fn=lambda t: t / (1.0 + t),
        domain=(0.0, math.inf),
        deriv=lambda t, k: (-1.0) ** (k + 1) * math.factorial(k) / (1.0 + t) ** (k + 1),
        d_max=8,
        name="ratio",
    )
    flags = (
        FlagClaim("bernstein", {}, "t/(1+t) = integral of (1 - exp(-lam t)) exp(-lam)"),
        FlagClaim("negative_definite", {}, "Bernstein functions are negative definite"),
    )
    rep = lk.BernsteinRep(a=0.0, b=0.0, sigma=_halfline_density_measure(_exp_density()))
    return CatalogEntry(
        name="ratio", func=func, domain=func.domain, known_flags=flags,
        lk_form="bernstein", lk_data=rep, summary="t / (1 + t)",
    )


def _neg_power_entry(alpha=1.0):
    alpha = float(alpha)
    if alpha <= 0:
        raise ValueError("neg_power needs alpha > 0")
    func = FuncHandle(
        fn=lambda t: np.power(t, -alpha),
        domain=(0.0, math.inf),
        deriv=lambda t, k: _falling(-alpha, k) * t ** (-alpha - k),
        d_max=8,
        name=f"neg_power({alpha:g})",
    )
    flags = (
        FlagClaim("completely_monotone", {},
                  "t^-alpha is the transform of the gamma density (Hausdorff-Bernstein-Widder)"),
        FlagClaim("positive_definite", {},
                  "completely monotone functions have PSD sum kernels (Widder)"),
    )
    return CatalogEntry(
        name="neg_power", func=func, domain=func.domain, known_flags=flags,
        params={"alpha": alpha}, summary="t**(-alpha) on the positive half-line",
    )


def _neg_tlogt_entry():
    def deriv(t, k):
        if k == 1:
            return -np.log(t) - 1.0
        return -math.factorial(k - 2) * (-1.0) ** k * t ** (1 - k)

    func = FuncHandle(
        fn=lambda t: -t * np.log(t),
        domain=(0.0, math.inf),
        deriv=deriv,
        d_max=8,
        name="neg_tlogt",
    )
    flags = (
        FlagClaim("negative_definite", {},
                  "t^(h t) has PSD sum kernels for h > 0 (entropy function)"),
    )
    rep = lk.LKIntervalRep(
        t0=1.0, c=0.0, d=-1.0,
        mu=_halfline_density_measure(_lebesgue()),
        interval=(0.0, math.inf),
    )
    return CatalogEntry(
        name="neg_tlogt", func=func, domain=func.domain, known_flags=flags,
        lk_form="interval", lk_data=rep,
        summary="-t log t; second derivative is -1/t, the transform of Lebesgue measure",
    )


def _signed_power_entry(alpha=1.5):
    # sign convention: -t^alpha is the negative definite branch for 1 <= alpha <= 2
    alpha = float(alpha)
    if not 1.0 <= alpha <= 2.0:
        raise ValueError("signed_power needs 1 <= alpha <= 2")
    func = FuncHandle(
        fn=lambda t: -np.power(t, alpha),
        domain=(0.0, math.inf),
        deriv=lambda t, k: -_falling(alpha, k) * t ** (alpha - k),
        d_max=8,
        name=f"signed_power({alpha:g})",
    )
    flags = (
        FlagClaim("negative_definite", {},
                  "-t^alpha, 1 <= alpha <= 2, on the additive half-line (Schoenberg)"),
    )
    if alpha == 2.0:
        mu = Measure(atoms=((0.0, 2.0),), density=None, support=(0.0, math.inf))
    elif alpha == 1.0:
        mu = Measure(atoms=(), density=None, support=(0.0, math.inf))
    else:
        coef = alpha * (alpha - 1.0) / float(_gamma_fn(2.0 - alpha))
        mu = _halfline_density_measure(_raw_power_decay(coef, 1.0 - alpha, 0.0))
    rep = lk.LKIntervalRep(t0=1.0, c=-1.0, d=-alpha, mu=mu, interval=(0.0, math.inf))
    return CatalogEntry(
        name="signed_power", func=func, domain=func.domain, known_flags=flags,
        lk_form="interval", lk_data=rep, params={"alpha": alpha},
        summary="-t**alpha for 1 <= alpha <= 2",
    )


def _green_entry(lam=1.0):
    lam = float(lam)
    if lam <= 0:
        raise ValueError("green needs lam > 0")
    func = FuncHandle(
        fn=lambda t: np.exp(-lam * np.abs(t)),
        domain=(-math.inf, math.inf),
        name=f"green({lam:g})",
    )
    flags = (
        FlagClaim("positive_definite", {},
                  "exp(-lam|t|) is the Cauchy characteristic function (Bochner)"),
        FlagClaim("reflection_positive", {"a": 1.0},
                  "one-sided transform restricted to a symmetric interval"),
    )
    return CatalogEntry(
        name="green", func=func, domain=func.domain, known_flags=flags,
        params={"lam": lam}, summary="exp(-lam |t|) on the line",
        check_window=(-2.0, 2.0),
    )


def _thermal_green_entry(lam=1.0, beta=2.0):
    lam = float(lam)
    beta = float(beta)
    if lam <= 0 or beta <= 0:
        raise ValueError("thermal_green needs lam > 0 and beta > 0")

    def fn(t):
        x = np.abs(np.asarray(t, dtype=np.float64))
        return np.exp(-lam * x) + np.exp(-lam * (beta - x))

    func = FuncHandle(fn=fn, domain=(-math.inf, math.inf),
                      name=f"thermal_green({lam:g},{beta:g})")
    flags = (
        FlagClaim("reflection_positive", {"a": beta / 2.0},
                  "periodic continuation has nonnegative Fourier coefficients"),
    )
    return CatalogEntry(
        name="thermal_green", func=func, domain=func.domain, known_flags=flags,
        params={"lam": lam, "beta": beta},
        summary="exp(-lam|t|) + exp(-lam(beta - |t|)), the beta-periodic kernel",
        check_window=(-beta / 2.0, beta / 2.0),
    )


def _abs_power_entry(alpha=1.0):
    alpha = float(alpha)
    if not 0.0 <= alpha <= 2.0:
        raise ValueError("abs_power needs 0 <= alpha <= 2")
    func = FuncHandle(
        fn=lambda t: np.power(np.abs(t), alpha),
        domain=(-math.inf, math.inf),
        name=f"abs_power({alpha:g})",
    )
    flags = ()
    lk_form = None
    lk_data = None
    if alpha <= 1.0:
        flags = (
            FlagClaim("reflection_negative", {},
                      "|t|^alpha is the exponent of a symmetric stable law for alpha <= 1"),
        )
        lk_form = "reflection_negative"
        if alpha == 0.0:
            sigma = Measure(atoms=(), density=None, support=(0.0, math.inf))
            lk_data = lk.BernsteinRep(a=1.0, b=0.0, sigma=sigma)
        elif alpha == 1.0:
            sigma = Measure(atoms=(), density=None, support=(0.0, math.inf))
            lk_data = lk.BernsteinRep(a=0.0, b=1.0, sigma=sigma)
        else:
            lk_data = lk.BernsteinRep(
                a=0.0, b=0.0,
                sigma=_halfline_density_measure(_stable_sigma(alpha)),
            )
    return CatalogEntry(
        name="abs_power", func=func, domain=func.domain, known_flags=flags,
        lk_form=lk_form, lk_data=lk_data, params={"alpha": alpha},
        summary="|t|**alpha on the line", check_window=(-2.0, 2.0),
    )


def _one_minus_cexp_entry(c=1.0, lam=1.0):
    c = float(c)
    lam = float(lam)
    if c < 0 or lam <= 0:
        raise ValueError("one_minus_cexp needs c >= 0 and lam > 0")
    func = FuncHandle(
        fn=lambda t: 1.0 - c * np.exp(-lam * t),
        domain=(0.0, math.inf),
        deriv=lambda t, k: -c * (-lam) ** k * np.exp(-lam * t),
        d_max=8,
        name=f"one_minus_cexp({c:g},{lam:g})",
    )
    flags = [
        FlagClaim("negative_definite", {},
                  "exp(h c e^{-lam t}) expands into a positive exponential sum"),
    ]
    lk_form = None
    lk_data = None
    if c <= 1.0:
        # 1 - c exp(-lam t) = (1 - c) + c (1 - exp(-lam t)); needs c <= 1
        flags.append(FlagClaim("bernstein", {}, "nonnegative with completely monotone slope"))
        sigma = Measure(atoms=((lam, c),) if c > 0 else (), density=None,
                        support=(0.0, math.inf))
        lk_form = "bernstein"
        lk_data = lk.BernsteinRep(a=1.0 - c, b=0.0, sigma=sigma)
    return CatalogEntry(
        name="one_minus_cexp", func=func, domain=func.domain,
        known_flags=tuple(flags), lk_form=lk_form, lk_data=lk_data,
        params={"c": c, "lam": lam}, summary="1 - c exp(-lam t)",
    )


def _exp_decay_entry():
    func = FuncHandle(
        fn=lambda t: np.exp(-t),
        domain=(-math.inf, math.inf),
        deriv=lambda t, k: (-1.0) ** k * np.exp(-t),
        d_max=8,
        name="exp_decay",
    )
    flags = (
        FlagClaim("completely_monotone", {}, "transform of a unit point mass"),
        FlagClaim("positive_definite", {}, "rank-one sum kernel (Widder)"),
    )
    return CatalogEntry(
        name="exp_decay", func=func, domain=func.domain, known_flags=flags,
        summary="exp(-t)",
    )


def _cosh_entry():
    func = FuncHandle(
        fn=np.cosh,
        domain=(-math.inf, math.inf),
        deriv=lambda t, k: np.cosh(t) if k % 2 == 0 else np.sinh(t),
        d_max=8,
        name="cosh",
    )
    # no definiteness flags: cosh is a two-sided transform, so its moment
    # matrices pass unshifted Hankel tests while the shifted ones fail
    return CatalogEntry(
        name="cosh", func=func, domain=func.domain, known_flags=(),
        summary="cosh t, the two-sided transform of (point at 1 + point at -1)/2",
        check_window=(-2.0, 2.0),
    )


def _triangle_entry():
    func = FuncHandle(
        fn=lambda t: np.maximum(0.0, 1.0 - np.abs(t)),
        domain=(-math.inf, math.inf),
        name="triangle",
    )
    flags = (
        FlagClaim("positive_definite", {},
                  "even, convex, decreasing on the half-line (Polya); Fejer kernel"),
    )
    return CatalogEntry(
        name="triangle", func=func, domain=func.domain, known_flags=flags,
        summary="max(0, 1 - |t|)", check_window=(-2.0, 2.0),
    )


_BUILDERS = {
    "power": _power_entry,
    "log1p": _log1p_entry,
    "log": _log_entry,
    "ratio": _ratio_entry,
    "neg_power": _neg_power_entry,
    "neg_tlogt": _neg_tlogt_entry,
    "signed_power": _signed_power_entry,
    "green": _green_entry,
    "thermal_green": _thermal_green_entry,
    "abs_power": _abs_power_entry,
    "one_minus_cexp": _one_minus_cexp_entry,
    "exp_decay": _exp_decay_entry,
    "cosh": _cosh_entry,
    "triangle": _triangle_entry,
}


def get(name, **params):
    """Build the named entry; parameters go through as keywords."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownName(f"unknown catalog entry {name!r}") from None
    return builder(**params)


def names():
    return sorted(_BUILDERS)


def default_entries():
    """The concrete entries the regression suite checks, one per claim set."""
    out = [get("power", alpha=a) for a in (0.25, 0.5, 1.0, 1.5, 2.0)]
    out += [get("log1p"), get("log"), get("ratio"), get("neg_power"),
            get("neg_tlogt"), get("signed_power"), get("green"),
            get("thermal_green"), get("abs_power", alpha=0.5),
            get("abs_power", alpha=1.0), get("one_minus_cexp"),
            get("exp_decay"), get("cosh"), get("triangle")]
    return out


def check_flag(entry, flag, window=None, n=12, grid=chebyshev_grid, a=None, hs=None,
               k_max=None, tol=None):
    """Run the routes that confirm ``flag`` on ``entry``: ((route, verdict), ...).

    Grid routes sample ``grid(lo, hi, n)`` on ``window``, by default the
    entry's check window, cut to [0, inf) for the difference tests.  The
    kernel follows the window (``window_gram``) and names the route
    (``psd_minus``, ``cnd_plus``, ...).  ``a`` is the reflection half-width
    (inf by default for ``reflection_negative``).
    """
    f = entry.func
    if flag == "reflection_positive":
        if a is None:
            raise ValueError("reflection_positive needs the half-width a")
        return (("rp", reflection_positive_check(f, a, n, tol)),)
    if flag == "reflection_negative":
        return (("rn", reflection_negative_check(f, math.inf if a is None else a, n, hs, tol)),)
    difference = {"completely_monotone": completely_monotone_check, "bernstein": bernstein_check}
    if flag not in difference and flag not in ("positive_definite", "negative_definite"):
        raise UnknownName(f"no checker for flag {flag!r}")
    if window is None:
        lo, hi = entry.check_window
        window = (max(lo, 0.0), hi) if flag in difference else (lo, hi)
    points = grid(window[0], window[1], n)
    if flag in difference:
        kw = {} if k_max is None else {"k_max": k_max}
        return ((flag, difference[flag](f, points, tol=tol, **kw)),)
    g = window_gram(f, points)
    if flag == "positive_definite":
        return ((f"psd_{g.kind}", psd_check(g, tol)),)
    return ((f"cnd_{g.kind}", cnd_check(g, tol)),
            (f"schoenberg_{g.kind}", schoenberg_scan(g, hs, tol)))


def run_flag_check(entry, claim, n=12, tol=None):
    """Confirm one flag claim through ``check_flag`` on the entry's check window."""
    routes = check_flag(entry, claim.flag, n=n, a=claim.params.get("a"), tol=tol)
    return FlagCheckResult(entry.name, claim.flag, routes)


def lk_synth_value(entry, t, tol=1e-10):
    """Evaluate the entry's stored representation at t."""
    rep = entry.lk_data
    if rep is None:
        raise UnknownName(f"entry {entry.name!r} carries no representation data")
    return lk.synth(rep, t, tol, form=entry.lk_form)
