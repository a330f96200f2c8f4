"""Positive measures on the line and their Laplace transforms.

A :class:`Measure` is a finite list of weighted atoms plus an optional
density.  Two density representations are supported:

- :class:`GriddedDensity`: sampled values on a strictly increasing grid,
  integrated by the trapezoid rule or by per-cell Gauss-Legendre on the
  piecewise-linear interpolant.  This is the JSON round-trip form.  Its
  error bound covers the disagreement between quadrature rules on that
  interpolant, not how well the interpolant models a continuous density.
- :class:`FuncDensity`: a vectorized callable on an interval ``[lo, hi)``
  carrying an analytic bound near ``lo`` (:class:`HeadBound`) and, when
  ``hi`` is infinite, a tail :class:`Envelope`.  This form covers densities
  with integrable endpoint singularities such as ``lambda**(-1-alpha)``
  against ``1 - exp(-lambda*t)``, which no fixed grid can represent at the
  tolerances used here.

Every integral (transforms, masses, the one-wedge integral and the
syntheses in ``levykhin``) goes through :func:`integrate_against`, which
sums atoms exactly and dispatches the density part to one of the two
quadrature routines.  Integrals over function densities use composite
16-point Gauss-Legendre panels on a geometrically graded mesh toward
``lo``; the reported ``truncation_bound`` adds the analytic stub and tail
bounds to the observed refinement difference, so ``converged`` is an
honest claim.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import _accel
from .errors import DivergentIntegral, InvalidMeasure

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# refinement levels double the panel count per octave
_MAX_LEVEL = 4
_MAX_PANELS = 8192


@dataclass(frozen=True)
class Envelope:
    """Tail bound ``rho(lam) <= coef * lam**power * exp(-decay*lam)`` for lam >= cutoff."""

    coef: float
    power: float = 0.0
    decay: float = 0.0
    cutoff: float = 1.0

    def tail(self, T, extra_power=0.0, extra_decay=0.0, extra_coef=1.0):
        """Upper bound for ``integral_T^inf lam**(power+extra_power) e^{-(decay+extra_decay)lam} rho_env``.

        Returns +inf when the combined integrand does not decay.
        """
        if T < self.cutoff:
            raise ValueError("tail bound only valid beyond the envelope cutoff")
        c = self.coef * extra_coef
        if c == 0.0:
            return 0.0
        p = self.power + extra_power
        s = self.decay + extra_decay
        a = p + 1.0
        if s > 0.0:
            if a > 0.0:
                # c * Gamma(a) * Q(a, s*T) / s**a
                return c * special.gamma(a) * special.gammaincc(a, s * T) / s**a
            # lam**(a-1) decreasing beyond T
            return c * T ** (a - 1.0) * math.exp(-s * T) / s
        if s == 0.0 and a < 0.0:
            return c * T**a / (-a)
        return math.inf


@dataclass(frozen=True)
class HeadBound:
    """Bound ``rho(lam) <= coef * (lam - lo)**power`` on ``(lo, lo + cutoff]``."""

    coef: float
    power: float = 0.0
    cutoff: float = 1.0


@dataclass(frozen=True)
class GriddedDensity:
    """Density sampled on a strictly increasing grid with nonnegative values."""

    grid: np.ndarray
    values: np.ndarray
    rule: str = "trapezoid"

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
        if g.ndim != 1 or v.shape != g.shape or g.size < 2:
            raise InvalidMeasure("density grid and values must be 1-d arrays of equal length >= 2")
        if not np.all(np.diff(g) > 0):
            raise InvalidMeasure("density grid must be strictly increasing")
        if not np.all(np.isfinite(g)) or not np.all(np.isfinite(v)):
            raise InvalidMeasure("density grid and values must be finite")
        if np.any(v < 0):
            raise InvalidMeasure("density values must be nonnegative")
        if self.rule not in ("trapezoid", "gauss-composite"):
            raise InvalidMeasure(f"unknown quadrature rule {self.rule!r}")

    @property
    def lo(self):
        return float(self.grid[0])

    @property
    def hi(self):
        return float(self.grid[-1])


@dataclass(frozen=True)
class FuncDensity:
    """Vectorized density callable on [lo, hi) with analytic endpoint control.

    ``head`` bounds the density just above ``lo`` and sizes the unresolved
    stub panel; ``tail_env`` is required when ``hi`` is infinite.  ``name``
    and ``params`` let catalog densities serialize by reference.

    ``head.power <= -1`` is allowed: such a density has infinite mass near
    ``lo`` but stays usable against integrands vanishing there (the Bernstein
    kernel ``1 - exp(-lam*t)`` is the motivating case).  Each integral checks
    its own combined endpoint exponent and raises ``DivergentIntegral`` when
    the pairing is genuinely non-integrable.
    """

    fn: object
    lo: float
    hi: float
    head: HeadBound
    tail_env: Envelope | None = None
    name: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.lo):
            raise InvalidMeasure("function densities need a finite lower endpoint; use atoms below it")
        if self.hi <= self.lo:
            raise InvalidMeasure("density support is empty")
        if math.isinf(self.hi) and self.tail_env is None:
            raise InvalidMeasure("unbounded function densities must carry a tail envelope")


@dataclass(frozen=True)
class Measure:
    """Nonnegative measure: weighted atoms plus an optional density part."""

    atoms: tuple = ()
    density: GriddedDensity | FuncDensity | None = None
    support: tuple = (-math.inf, math.inf)

    def __post_init__(self):
        cleaned = []
        for pair in self.atoms:
            lam, w = float(pair[0]), float(pair[1])
            if not (math.isfinite(lam) and math.isfinite(w)):
                raise InvalidMeasure("atom locations and weights must be finite")
            if w < 0:
                raise InvalidMeasure("atom weights must be nonnegative")
            cleaned.append((lam, w))
        object.__setattr__(self, "atoms", tuple(cleaned))
        object.__setattr__(self, "support", (float(self.support[0]), float(self.support[1])))

    def atom_arrays(self):
        if not self.atoms:
            return np.empty(0), np.empty(0)
        a = np.asarray(self.atoms, dtype=np.float64)
        return a[:, 0], a[:, 1]


@dataclass(frozen=True)
class LaplaceValue:
    """A transform value with an honest error bound."""

    value: float
    truncation_bound: float
    converged: bool


def point_mass(lam, weight=1.0):
    """Measure with a single atom."""
    return Measure(atoms=((lam, weight),), support=(lam, lam))


# ---------------------------------------------------------------------------
# quadrature engine


def _panel_nodes(edges):
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    wts = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, wts


def _graded_edges(lo, eps, span, level, breaks=()):
    """Geometric mesh lo+eps .. lo+span, panel count doubling with level.

    Interior ``breaks`` are forced onto panel edges so integrand kinks
    never sit inside a Gauss-Legendre panel.
    """
    n_oct = max(1, int(math.ceil(math.log2(span / eps))))
    m = min(n_oct * (2**level), _MAX_PANELS)
    ratio = (span / eps) ** (1.0 / m)
    edges = lo + eps * ratio ** np.arange(m + 1)
    cuts = [b for b in breaks if edges[0] < b < edges[-1]]
    if cuts:
        edges = np.union1d(edges, np.asarray(cuts, dtype=np.float64))
    return edges


def _stub_epsilon(head, g_coef, g_power, budget, span):
    """Largest eps whose unresolved stub [lo, lo+eps] is bounded by budget."""
    p = head.power + g_power
    if p <= -1.0:
        raise DivergentIntegral(
            f"integrand behaves like (lam-lo)**{p:g} at the lower endpoint; not integrable"
        )
    c = head.coef * g_coef
    if c <= 0.0:
        return min(head.cutoff, 0.5 * span), 0.0
    eps = (budget * (1.0 + p) / c) ** (1.0 / (1.0 + p))
    eps = min(eps, head.cutoff, 0.5 * span)
    eps = max(eps, span * 1e-280)
    bound = c * eps ** (1.0 + p) / (1.0 + p)
    return eps, bound


def _choose_truncation(env, g_power, g_decay, g_coef, lo, budget):
    """Smallest doubling point T with combined tail bound <= budget."""
    T = max(env.cutoff, abs(lo) + 1.0, 1.0)
    for _ in range(600):
        b = env.tail(T, extra_power=g_power, extra_decay=g_decay, extra_coef=g_coef)
        if b <= budget:
            return T, b
        if T > 1e300:
            break
        T *= 2.0
    raise DivergentIntegral("tail bound cannot be brought below tolerance; transform diverges")


def _integrate_func_density(dens, wsum, g_head, g_tail, tol, breaks=()):
    """Integrate wsum against the density with stub/tail/refinement bounds.

    wsum(nodes, weights) must return sum_i weights_i * g(nodes_i);
    g_head = (coef, power) bounds |g| near lo; g_tail = (coef, power, decay)
    bounds |g| for large lambda (only used when the support is unbounded).
    """
    budget = tol / 10.0
    if math.isinf(dens.hi):
        gc, gp, gd = g_tail
        T, tail_bound = _choose_truncation(dens.tail_env, gp, gd, gc, dens.lo, budget)
    else:
        T, tail_bound = dens.hi, 0.0
    span = T - dens.lo
    eps, stub_bound = _stub_epsilon(dens.head, g_head[0], g_head[1], budget, span)

    value = prev = None
    quad_err = math.inf
    for level in range(_MAX_LEVEL + 1):
        edges = _graded_edges(dens.lo, eps, span, level, breaks)
        nodes, wts = _panel_nodes(edges)
        rho = np.asarray(dens.fn(nodes), dtype=np.float64)
        if rho.shape != nodes.shape:
            raise InvalidMeasure("density callable must return an array matching its input")
        if not np.all(np.isfinite(rho)):
            raise InvalidMeasure("density callable produced non-finite values")
        if np.any(rho < 0):
            worst = float(rho.min())
            if worst < -1e-12 * max(1.0, float(np.abs(rho).max())):
                raise InvalidMeasure("density callable produced negative values")
            rho = np.maximum(rho, 0.0)
        value = wsum(nodes, rho * wts)
        if prev is not None:
            quad_err = abs(value - prev)
            if quad_err <= budget:
                break
        prev = value
    if not math.isfinite(value):
        raise DivergentIntegral("quadrature overflowed; transform diverges on this input")
    return value, stub_bound + tail_bound + quad_err


def _integrate_gridded(dens, wsum):
    """Integrate wsum against the piecewise-linear interpolant of ``dens``.

    Both rules feed nodes and weights to the same ``wsum``: the trapezoid
    rule as node weights on the grid, Gauss-Legendre as 16 nodes per cell
    (and per half cell, whose difference bounds the Gauss value).
    """
    grid, vals = dens.grid, dens.values

    def gauss(edges):
        nodes, wts = _panel_nodes(edges)
        return float(wsum(nodes, wts * np.interp(nodes, grid, vals)))

    val_gl = gauss(grid)
    val_gl2 = gauss(np.sort(np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:])])))
    if dens.rule == "trapezoid":
        half = 0.5 * np.diff(grid)
        val = float(wsum(grid, vals * (np.append(half, 0.0) + np.insert(half, 0, 0.0))))
        bound = abs(val - val_gl) + abs(val_gl - val_gl2)
    else:
        val, bound = val_gl2, abs(val_gl2 - val_gl) + 1e-15 * abs(val_gl2)
    if not math.isfinite(val + bound):
        raise DivergentIntegral("integrand not finite on the density grid")
    return val, bound


def integrate_against(mu, wsum, g_head=(1.0, 0.0), g_tail=(1.0, 0.0, 0.0), tol=1e-10, breaks=()):
    """integral g(lam) dmu, the one quadrature entry point of the package.

    The integrand is given as a weighted sum: ``wsum(x, w)`` returns
    ``sum_i w_i * g(x_i)`` for node and weight arrays.  Atoms are summed
    exactly through it.  For a function density, ``g_head = (coef, power)``
    bounds |g| near its lower endpoint, ``g_tail = (coef, power, decay)``
    bounds |g| for large lambda, and interior kinks of g listed in
    ``breaks`` stay on panel edges.  Returns ``(value, bound)``.
    """
    lam, w = mu.atom_arrays()
    total = float(wsum(lam, w)) if lam.size else 0.0
    bound = 0.0
    dens = mu.density
    if isinstance(dens, FuncDensity):
        part, bound = _integrate_func_density(dens, wsum, g_head, g_tail, tol, breaks)
        total += part
    elif dens is not None:
        part, bound = _integrate_gridded(dens, wsum)
        total += part
    return total, bound


# ---------------------------------------------------------------------------
# public transforms


def _laplace_g_head(dens, t, k):
    """(coef, power) bound for lam**k * exp(-lam*t) near dens.lo."""
    cut = dens.head.cutoff  # stub panel can reach the full head cutoff
    top = abs(dens.lo) + cut
    # sup of exp(-lam*t) over the stub (lo, lo+cut]
    grow = math.exp(-t * dens.lo) if t >= 0.0 else math.exp(-t * (dens.lo + cut))
    if dens.lo == 0.0:
        return grow, float(k)
    return (top**k if k else 1.0) * grow, 0.0


def laplace_deriv(mu, t, k, tol=1e-10):
    """k-th derivative of the Laplace transform of ``mu`` at ``t``.

    Returns ``LaplaceValue`` with ``value = (-1)**k * integral lam**k e^{-lam t} dmu``
    and a truncation bound combining analytic stub/tail envelopes with the
    observed quadrature refinement difference.  ``converged`` is True when
    that bound is at or below ``tol``.

    Raises ``DivergentIntegral`` when the transform provably diverges at
    ``t`` (non-decaying tail, non-integrable endpoint).
    """
    k = int(k)
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    tol = float(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    t = float(t)
    dens = mu.density
    g_head = _laplace_g_head(dens, t, k) if isinstance(dens, FuncDensity) else (1.0, 0.0)
    total, bound = integrate_against(
        mu, lambda x, w: _accel.exp_weighted_sum(x, w, t, k), g_head, (1.0, float(k), t), tol
    )
    value = (-1.0) ** k * total
    if not math.isfinite(value):
        raise DivergentIntegral("transform overflowed at t = %g" % t)
    return LaplaceValue(value, bound, bound <= tol)


def laplace(mu, t, tol=1e-10):
    """Laplace transform of ``mu`` at ``t``; identical path to ``laplace_deriv(mu, t, 0)``."""
    return laplace_deriv(mu, t, 0, tol)


def total_mass(mu, tol=1e-10):
    """Total mass of the measure; raises ``DivergentIntegral`` when infinite."""
    return integrate_against(mu, lambda x, w: float(w.sum()), tol=tol)[0]


def _tail_densities(dens, T):
    """The density pieces of tail_mass, with no Gauss node straddling |lam| = T."""
    if dens is None:
        return []
    if isinstance(dens, GriddedDensity):
        # knots at +-T put every Gauss cell of the interpolant on one side of the cut
        grid = np.union1d(dens.grid, [c for c in (-T, T) if dens.lo < c < dens.hi])
        return [GriddedDensity(grid, np.interp(grid, dens.grid, dens.values), "gauss-composite")]
    if T <= dens.lo:
        return [dens]
    pieces = []
    if dens.lo < -T:
        # [lo, -T) keeps lo, so the density's own head bound still holds
        pieces.append(FuncDensity(dens.fn, dens.lo, min(-T, dens.hi), dens.head))
    if dens.hi > T:
        # shifted window [T, hi): no endpoint singularity, sample a head bound
        probe = dens.fn(np.linspace(T, T + min(1.0, 0.1 * max(T, 1.0)), 9))
        head = HeadBound(coef=4.0 * float(np.max(probe)) + 1e-300, power=0.0, cutoff=1.0)
        pieces.append(FuncDensity(dens.fn, T, dens.hi, head, dens.tail_env))
    return pieces


def tail_mass(mu, T, tol=1e-8):
    """Mass of {|lam| > T}; raises ``DivergentIntegral`` when infinite."""
    if T < 0:
        raise ValueError("T must be nonnegative")
    pieces = [Measure(atoms=mu.atoms)] + [Measure(density=d) for d in _tail_densities(mu.density, T)]
    return sum(integrate_against(m, lambda x, w: float(w[np.abs(x) > T].sum()), tol=tol)[0]
               for m in pieces)


def one_wedge_integral(sigma, tol=1e-10):
    """integral of min(1, lam) d.sigma for a measure supported in (0, inf).

    A finite return certifies the integrability condition used by the
    Bernstein synthesis; raises ``DivergentIntegral`` otherwise and
    ``InvalidMeasure`` if any support lies at or below zero.
    """
    lam, _ = sigma.atom_arrays()
    dens = sigma.density
    if (lam.size and np.any(lam <= 0)) or (dens is not None and dens.lo < 0):
        raise InvalidMeasure("one-wedge integral needs support in (0, inf)")
    g_head = (1.0, 1.0) if dens is None or dens.lo == 0.0 else (min(1.0, dens.lo + 1.0), 0.0)
    # min(1, lam) kinks at 1; keep that point on a panel edge
    return integrate_against(
        sigma, lambda x, w: float(np.dot(w, np.minimum(1.0, x))), g_head, tol=tol, breaks=(1.0,)
    )[0]


# ---------------------------------------------------------------------------
# JSON interface


def _fmt(x):
    return format(float(x), ".17g")


def _render(obj):
    if isinstance(obj, float):
        if math.isinf(obj):
            # spellings the stdlib parser accepts back
            return "Infinity" if obj > 0 else "-Infinity"
        if math.isnan(obj):
            return "NaN"
        return _fmt(obj)
    if isinstance(obj, dict):
        items = (f'"{k}": {_render(v)}' for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in obj) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot render {type(obj)!r}")


def measure_doc(mu):
    """Plain-dict form of a measure, for embedding in larger documents.

    Function densities serialize by catalog name; anonymous callables are
    in-memory only and raise ``ValueError``.
    """
    doc = {"atoms": [{"lambda": lam, "weight": w} for lam, w in mu.atoms]}
    dens = mu.density
    if dens is None:
        doc["density"] = None
    elif isinstance(dens, GriddedDensity):
        doc["density"] = {
            "grid": [float(x) for x in dens.grid],
            "values": [float(v) for v in dens.values],
            "rule": dens.rule,
        }
    elif dens.name:
        doc["density"] = {"catalog": dens.name, "params": dict(dens.params)}
    else:
        raise ValueError("anonymous function densities cannot be serialized")
    doc["support"] = [mu.support[0], mu.support[1]]
    return doc


def measure_from_doc(doc):
    """Rebuild a measure from the dict form of ``measure_doc``."""
    if not isinstance(doc, dict):
        raise InvalidMeasure("measure JSON must be an object")
    atoms = tuple(
        (float(a["lambda"]), float(a["weight"])) for a in doc.get("atoms", [])
    )
    dens_doc = doc.get("density")
    density = None
    if dens_doc is not None:
        if "catalog" in dens_doc:
            from . import catalog

            density = catalog.density_from_spec(dens_doc["catalog"], dens_doc.get("params", {}))
        else:
            density = GriddedDensity(
                np.asarray(dens_doc["grid"], dtype=np.float64),
                np.asarray(dens_doc["values"], dtype=np.float64),
                dens_doc.get("rule", "trapezoid"),
            )
    support = doc.get("support")
    if support is None:
        support = (-math.inf, math.inf)
    return Measure(atoms=atoms, density=density, support=(float(support[0]), float(support[1])))


def measure_to_json(mu):
    """Serialize a measure; floats carry 17 significant digits."""
    return _render(measure_doc(mu))


def measure_from_json(text):
    """Parse the JSON form produced by ``measure_to_json``."""
    return measure_from_doc(json.loads(text))
