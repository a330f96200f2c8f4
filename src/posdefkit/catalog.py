"""Named reference functions with analytic derivatives and exact
integral-representation data.

Every entry records which definiteness properties it is known to have
(``known_flags``, each with its classical source) and, when available, the
measure data that reproduces the function through the synthesis routines.
``check_flag`` maps each flag to the checkers that can confirm it; the CLI
``check-*`` subcommands and ``run_flag_check`` (which the test suite runs
over the whole catalog) both go through it.

Every builder goes through ``_entry``, the one place an entry and its
function handle are tied: the entry's domain is the handle's, derivatives
run to order 8 whenever a builder gives them, and the synthesis form is the
representation's own, except for ``abs_power``, whose Bernstein data
synthesizes in the even ``reflection_negative`` form.

Flag semantics follow the window: ``positive_definite`` and
``negative_definite`` refer to the sum kernel f((x+y)/2) on half-line
windows (the transform sense) and to the difference kernel on symmetric
windows (the Fourier sense).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import levykhin as lk
from .diffcalc import bernstein_check, completely_monotone_check
from .errors import UnknownName
from .funcs import FuncHandle, chebyshev_grid
from .kernelcheck import PASS, cnd_check, combine, psd_check, schoenberg_scan, window_gram
from .measure import HALF_LINE, Measure, density_from_spec
from .reflection import reflection_negative_check, reflection_positive_check

_LINE = (-math.inf, math.inf)


def _halfline(atoms=(), density=None):
    """A measure on the half-line; no arguments give the zero measure."""
    return Measure(atoms=atoms, density=density, support=HALF_LINE)


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


def _entry(name, fn, domain, flags, deriv=None, rep=None, form=None, **fields):
    """The entry ``name`` with its handle on ``domain``, named ``name(p1,p2)``
    after the params: derivatives run to order 8 when ``deriv`` is given, and
    the synthesis form is ``rep``'s own unless ``form`` names another."""
    params = fields.get("params", {})
    label = f"{name}({','.join(format(v, 'g') for v in params.values())})" if params else name
    func = FuncHandle(fn=fn, domain=domain, deriv=deriv, d_max=0 if deriv is None else 8,
                      name=label)
    return CatalogEntry(name=name, func=func, domain=func.domain, known_flags=tuple(flags),
                        lk_form=None if rep is None else form or rep.form, lk_data=rep, **fields)


def _falling(alpha, k):
    return math.prod((alpha - j for j in range(k)), start=1.0)


def _power_law(name, coef, p, flags, **fields):
    """The entry ``name`` of coef * t**p on the half-line, with its derivatives."""
    return _entry(name, lambda t: coef * np.power(t, p), HALF_LINE, flags,
                  deriv=lambda t, k: coef * _falling(p, k) * t ** (p - k), **fields)


def _fractional_power_rep(alpha):
    """Bernstein data (a, b, sigma) of t**alpha for 0 <= alpha <= 1."""
    if alpha in (0.0, 1.0):
        return lk.BernsteinRep(a=1.0 - alpha, b=alpha, sigma=_halfline())
    sigma = _halfline(density=density_from_spec("stable_sigma", {"alpha": alpha}))
    return lk.BernsteinRep(a=0.0, b=0.0, sigma=sigma)


# ---------------------------------------------------------------------------
# entry builders


def _power_entry(alpha=0.5):
    alpha = float(alpha)
    if not 0.0 < alpha <= 2.0:
        raise ValueError("power needs 0 < alpha <= 2")
    flags = ()
    rep = None
    if alpha <= 1.0:
        flags = (
            FlagClaim("bernstein", {}, "fractional powers t^alpha, alpha <= 1 (Bernstein)"),
            FlagClaim("negative_definite", {},
                      "exp(-h t^alpha) is completely monotone for alpha <= 1 (Schoenberg)"),
        )
        rep = _fractional_power_rep(alpha)
    return _power_law("power", 1.0, alpha, flags, rep=rep, params={"alpha": alpha},
                      summary="t**alpha on the positive half-line")


def _log1p_entry():
    flags = (
        FlagClaim("bernstein", {}, "log(1+t) as an integral of 1 - exp(-lam t)"),
        FlagClaim("negative_definite", {}, "(1+t)^-h is completely monotone (Schoenberg)"),
    )
    return _entry(
        "log1p", np.log1p, HALF_LINE, flags,
        deriv=lambda t, k: (-1.0) ** (k - 1) * math.factorial(k - 1) / (1.0 + t) ** k,
        rep=lk.BernsteinRep(a=0.0, b=0.0,
                            sigma=_halfline(density=density_from_spec("log_sigma"))),
        summary="log(1 + t)",
    )


def _log_entry():
    flags = (
        FlagClaim("negative_definite", {},
                  "t^-h is completely monotone for every h > 0 (Schoenberg)"),
    )
    return _entry(
        "log", np.log, HALF_LINE, flags,
        deriv=lambda t, k: (-1.0) ** (k - 1) * math.factorial(k - 1) / t**k,
        rep=lk.LKIncreasingRep(c=0.0, mu=_halfline(density=density_from_spec("lebesgue"))),
        summary="log t, the Frullani integral of (exp(-lam) - exp(-lam t))/lam",
    )


def _ratio_entry():
    flags = (
        FlagClaim("bernstein", {}, "t/(1+t) = integral of (1 - exp(-lam t)) exp(-lam)"),
        FlagClaim("negative_definite", {}, "Bernstein functions are negative definite"),
    )
    return _entry(
        "ratio", lambda t: t / (1.0 + t), HALF_LINE, flags,
        deriv=lambda t, k: (-1.0) ** (k + 1) * math.factorial(k) / (1.0 + t) ** (k + 1),
        rep=lk.BernsteinRep(a=0.0, b=0.0, sigma=_halfline(density=density_from_spec("exp"))),
        summary="t / (1 + t)",
    )


def _neg_power_entry(alpha=1.0):
    alpha = float(alpha)
    if alpha <= 0:
        raise ValueError("neg_power needs alpha > 0")
    flags = (
        FlagClaim("completely_monotone", {},
                  "t^-alpha is the transform of the gamma density (Hausdorff-Bernstein-Widder)"),
        FlagClaim("positive_definite", {},
                  "completely monotone functions have PSD sum kernels (Widder)"),
    )
    return _power_law("neg_power", 1.0, -alpha, flags, params={"alpha": alpha},
                      summary="t**(-alpha) on the positive half-line")


def _neg_tlogt_entry():
    def deriv(t, k):
        if k == 1:
            return -np.log(t) - 1.0
        return -math.factorial(k - 2) * (-1.0) ** k * t ** (1 - k)

    flags = (
        FlagClaim("negative_definite", {},
                  "t^(h t) has PSD sum kernels for h > 0 (entropy function)"),
    )
    mu = _halfline(density=density_from_spec("lebesgue"))
    rep = lk.LKIntervalRep(t0=1.0, c=0.0, d=-1.0, mu=mu, interval=HALF_LINE)
    return _entry(
        "neg_tlogt", lambda t: -t * np.log(t), HALF_LINE, flags, deriv=deriv, rep=rep,
        summary="-t log t; second derivative is -1/t, the transform of Lebesgue measure",
    )


def _signed_power_entry(alpha=1.5):
    # sign convention: -t^alpha is the negative definite branch for 1 <= alpha <= 2
    alpha = float(alpha)
    if not 1.0 <= alpha <= 2.0:
        raise ValueError("signed_power needs 1 <= alpha <= 2")
    flags = (
        FlagClaim("negative_definite", {},
                  "-t^alpha, 1 <= alpha <= 2, on the additive half-line (Schoenberg)"),
    )
    if alpha == 2.0:
        mu = _halfline(((0.0, 2.0),))
    elif alpha == 1.0:
        mu = _halfline()
    else:
        coef = alpha * (alpha - 1.0) / math.gamma(2.0 - alpha)
        mu = _halfline(density=density_from_spec(
            "power_decay", {"coef": coef, "power": 1.0 - alpha, "decay": 0.0}))
    rep = lk.LKIntervalRep(t0=1.0, c=-1.0, d=-alpha, mu=mu, interval=HALF_LINE)
    return _power_law("signed_power", -1.0, alpha, flags, rep=rep, params={"alpha": alpha},
                      summary="-t**alpha for 1 <= alpha <= 2")


def _green_entry(lam=1.0):
    lam = float(lam)
    if lam <= 0:
        raise ValueError("green needs lam > 0")
    flags = (
        FlagClaim("positive_definite", {},
                  "exp(-lam|t|) is the Cauchy characteristic function (Bochner)"),
        FlagClaim("reflection_positive", {"a": 1.0},
                  "one-sided transform restricted to a symmetric interval"),
    )
    return _entry(
        "green", lambda t: np.exp(-lam * np.abs(t)), _LINE, flags,
        params={"lam": lam}, summary="exp(-lam |t|) on the line", check_window=(-2.0, 2.0),
    )


def _thermal_green_entry(lam=1.0, beta=2.0):
    lam = float(lam)
    beta = float(beta)
    if lam <= 0 or beta <= 0:
        raise ValueError("thermal_green needs lam > 0 and beta > 0")

    def fn(t):
        x = np.abs(np.asarray(t, dtype=np.float64))
        return np.exp(-lam * x) + np.exp(-lam * (beta - x))

    flags = (
        FlagClaim("reflection_positive", {"a": beta / 2.0},
                  "periodic continuation has nonnegative Fourier coefficients"),
    )
    return _entry(
        "thermal_green", fn, _LINE, flags, params={"lam": lam, "beta": beta},
        summary="exp(-lam|t|) + exp(-lam(beta - |t|)), the beta-periodic kernel",
        check_window=(-beta / 2.0, beta / 2.0),
    )


def _abs_power_entry(alpha=1.0):
    alpha = float(alpha)
    if not 0.0 <= alpha <= 2.0:
        raise ValueError("abs_power needs 0 <= alpha <= 2")
    flags = ()
    rep = None
    if alpha <= 1.0:
        flags = (
            FlagClaim("reflection_negative", {},
                      "|t|^alpha is the exponent of a symmetric stable law for alpha <= 1"),
        )
        rep = _fractional_power_rep(alpha)
    return _entry(
        "abs_power", lambda t: np.power(np.abs(t), alpha), _LINE, flags,
        rep=rep, form="reflection_negative",
        params={"alpha": alpha}, summary="|t|**alpha on the line", check_window=(-2.0, 2.0),
    )


def _one_minus_cexp_entry(c=1.0, lam=1.0):
    c = float(c)
    lam = float(lam)
    if c < 0 or lam <= 0:
        raise ValueError("one_minus_cexp needs c >= 0 and lam > 0")
    flags = [
        FlagClaim("negative_definite", {},
                  "exp(h c e^{-lam t}) expands into a positive exponential sum"),
    ]
    rep = None
    if c <= 1.0:
        # 1 - c exp(-lam t) = (1 - c) + c (1 - exp(-lam t)); needs c <= 1
        flags.append(FlagClaim("bernstein", {}, "nonnegative with completely monotone slope"))
        rep = lk.BernsteinRep(a=1.0 - c, b=0.0, sigma=_halfline(((lam, c),) if c > 0 else ()))
    return _entry(
        "one_minus_cexp", lambda t: 1.0 - c * np.exp(-lam * t), HALF_LINE, flags,
        deriv=lambda t, k: -c * (-lam) ** k * np.exp(-lam * t),
        rep=rep, params={"c": c, "lam": lam}, summary="1 - c exp(-lam t)",
    )


def _exp_decay_entry():
    flags = (
        FlagClaim("completely_monotone", {}, "transform of a unit point mass"),
        FlagClaim("positive_definite", {}, "rank-one sum kernel (Widder)"),
    )
    return _entry("exp_decay", lambda t: np.exp(-t), _LINE, flags,
                  deriv=lambda t, k: (-1.0) ** k * np.exp(-t), summary="exp(-t)")


def _cosh_entry():
    # no definiteness flags: cosh is a two-sided transform, so its moment
    # matrices pass unshifted Hankel tests while the shifted ones fail
    return _entry(
        "cosh", np.cosh, _LINE, (),
        deriv=lambda t, k: np.cosh(t) if k % 2 == 0 else np.sinh(t),
        summary="cosh t, the two-sided transform of (point at 1 + point at -1)/2",
        check_window=(-2.0, 2.0),
    )


def _triangle_entry():
    flags = (
        FlagClaim("positive_definite", {},
                  "even, convex, decreasing on the half-line (Polya); Fejer kernel"),
    )
    return _entry("triangle", lambda t: np.maximum(0.0, 1.0 - np.abs(t)), _LINE, flags,
                  summary="max(0, 1 - |t|)", check_window=(-2.0, 2.0))


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
    UnknownName.check_params(builder, f"catalog entry {name!r}", params)
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


def lk_synth_value(entry, t, tol=lk.SYNTH_TOL):
    """Evaluate the entry's stored representation at t."""
    rep = entry.lk_data
    if rep is None:
        raise UnknownName(f"entry {entry.name!r} carries no representation data")
    return lk.synth(rep, t, tol, form=entry.lk_form)
