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
bounds and a rounding allowance to the observed refinement difference, so
``converged`` is an honest claim.

One call integrates a whole batch of t: the integrand family is given as
one weighted sum per t.  The batch shares one truncation point and one
stub, both sized for its worst-case integrand bounds, and one mesh per
refinement level, on which the density is evaluated once.  Refinement
continues until every t has converged, and each t gets its own bound.
The integrand is summed over blocks of nodes holding a fixed number
(``_BLOCK``) of node-by-t elements, so memory stays flat however large the
batch.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _accel
from .errors import DivergentIntegral, InvalidMeasure
from .jsonfmt import render

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# refinement levels double the panel count per octave
_MAX_LEVEL = 4
_MAX_PANELS = 8192
# every quadrature bound adds this share of the density part: a refinement
# difference below a few ulps of the value is summation noise, not accuracy
_ROUNDING = 16.0 * np.finfo(float).eps
# node-by-t elements per call of a batch's wsum: 64 KiB of float64
# temporaries, where a 64-point Gram batch at once took hundreds of MiB
_BLOCK = 8192


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
                from scipy import special

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
    """A transform value with an honest error bound.

    For an array of t, ``value`` and ``truncation_bound`` are arrays shaped
    like t and ``converged`` says whether every bound met the tolerance.
    """

    value: float
    truncation_bound: float
    converged: bool

    @classmethod
    def shaped(cls, t, values, bounds, converged):
        """From 1-d batch results: floats for a scalar t, arrays shaped like t otherwise."""
        if np.ndim(t) == 0:
            return cls(float(values[0]), float(bounds[0]), bool(converged))
        return cls(values.reshape(np.shape(t)), bounds.reshape(np.shape(t)), bool(converged))


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

    wsum(nodes, weights) must return sum_i weights_i * g_t(nodes_i) for each
    t of the batch; g_head = (coef, power) bounds every |g_t| near lo and
    g_tail = (coef, power, decay) bounds every |g_t| for large lambda (only
    used when the support is unbounded).  Returns one value and one bound
    per t.
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
            quad_err = np.abs(value - prev)
            if quad_err.max() <= budget:
                break
        prev = value
    if not np.all(np.isfinite(value)):
        raise DivergentIntegral("quadrature overflowed; transform diverges on this input")
    return value, stub_bound + tail_bound + quad_err


def _integrate_gridded(dens, wsum):
    """Integrate wsum against the piecewise-linear interpolant of ``dens``.

    Both rules feed nodes and weights to the same ``wsum``: the trapezoid
    rule as node weights on the grid, Gauss-Legendre as 16 nodes per cell
    (and per half cell, whose difference bounds the Gauss value).  Returns
    one value and one bound per t.
    """
    grid, vals = dens.grid, dens.values

    def gauss(edges):
        nodes, wts = _panel_nodes(edges)
        return wsum(nodes, wts * np.interp(nodes, grid, vals))

    val_gl = gauss(grid)
    val_gl2 = gauss(np.sort(np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:])])))
    if dens.rule == "trapezoid":
        half = 0.5 * np.diff(grid)
        val = wsum(grid, vals * (np.append(half, 0.0) + np.insert(half, 0, 0.0)))
        bound = np.abs(val - val_gl) + np.abs(val_gl - val_gl2)
    else:
        val, bound = val_gl2, np.abs(val_gl2 - val_gl) + 1e-15 * np.abs(val_gl2)
    if not np.all(np.isfinite(val + bound)):
        raise DivergentIntegral("integrand not finite on the density grid")
    return val, bound


def integrate_against(mu, wsum, g_head=(1.0, 0.0), g_tail=(1.0, 0.0, 0.0), tol=1e-10, breaks=()):
    """integral g_t(lam) dmu for a batch of t, the one quadrature entry point of the package.

    The integrands are given as weighted sums: ``wsum(x, w)`` returns
    ``sum_i w_i * g_t(x_i)`` for node and weight arrays, one sum per t (a
    scalar for a single integrand).  Atoms are summed exactly through it.
    For a function density, ``g_head = (coef, power)`` bounds every |g_t|
    near its lower endpoint, ``g_tail = (coef, power, decay)`` bounds every
    |g_t| for large lambda, and interior kinks listed in ``breaks`` stay on
    panel edges.  Returns ``(values, worst, bounds)``: one value and one
    bound per t, and the largest bound, which decides convergence.
    """
    lam, w = mu.atom_arrays()
    total = np.asarray(wsum(lam, w), dtype=np.float64)
    dens = mu.density
    if dens is None:
        return total, 0.0, np.zeros_like(total)
    step = max(1, _BLOCK // total.size)
    blocked = lambda x, w: sum(wsum(x[i:i + step], w[i:i + step]) for i in range(0, x.size, step))
    if isinstance(dens, FuncDensity):
        part, bound = _integrate_func_density(dens, blocked, g_head, g_tail, tol, breaks)
    else:
        part, bound = _integrate_gridded(dens, blocked)
    bound = bound + _ROUNDING * np.abs(part)
    return total + part, float(np.max(bound)), bound


# ---------------------------------------------------------------------------
# public transforms


def _laplace_g_head(dens, t, k):
    """(coef, power) bound for lam**k * exp(-lam*t) near dens.lo, for every t of the batch."""
    cut = dens.head.cutoff  # stub panel can reach the full head cutoff
    top = abs(dens.lo) + cut
    # sup of exp(-lam*t) over the stub (lo, lo+cut]; convex in t, so the batch's ends bound it
    grow = max(math.exp(-s * (dens.lo if s >= 0.0 else dens.lo + cut)) for s in (t.min(), t.max()))
    if dens.lo == 0.0:
        return grow, float(k)
    return (top**k if k else 1.0) * grow, 0.0


def laplace_deriv(mu, t, k, tol=1e-10):
    """k-th derivative of the Laplace transform of ``mu`` at ``t``.

    Returns ``LaplaceValue`` with ``value = (-1)**k * integral lam**k e^{-lam t} dmu``
    and a truncation bound combining analytic stub/tail envelopes with the
    observed quadrature refinement difference.  ``converged`` is True when
    that bound is at or below ``tol``.  An array of t is one batched
    integration with a value and a bound per t.

    Raises ``DivergentIntegral`` when the transform provably diverges at
    ``t`` (non-decaying tail, non-integrable endpoint).
    """
    k = int(k)
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    tol = float(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    ts = np.ravel(np.asarray(t, dtype=np.float64))
    dens = mu.density
    g_head = _laplace_g_head(dens, ts, k) if isinstance(dens, FuncDensity) else (1.0, 0.0)
    total, worst, bound = integrate_against(
        mu, lambda x, w: _accel.exp_weighted_sum(x, w, ts, k), g_head,
        (1.0, float(k), float(ts.min())), tol
    )
    value = (-1.0) ** k * total
    bad = ~np.isfinite(value)
    if bad.any():
        raise DivergentIntegral("transform overflowed at t = %g" % ts[bad][0])
    return LaplaceValue.shaped(t, value, bound, worst <= tol)


def laplace(mu, t, tol=1e-10):
    """Laplace transform of ``mu`` at ``t``; identical path to ``laplace_deriv(mu, t, 0)``."""
    return laplace_deriv(mu, t, 0, tol)


def total_mass(mu, tol=1e-10):
    """Total mass of the measure; raises ``DivergentIntegral`` when infinite."""
    return float(integrate_against(mu, lambda x, w: w.sum(), tol=tol)[0])


def tail_mass(mu, T, tol=1e-8):
    """Mass of {|lam| > T}; raises ``DivergentIntegral`` when infinite."""
    if T < 0:
        raise ValueError("T must be nonnegative")
    dens = mu.density
    g_head = (1.0, 0.0)
    if isinstance(dens, GriddedDensity):
        # knots at +-T put every Gauss cell of the interpolant on one side of the cut
        grid = np.union1d(dens.grid, [c for c in (-T, T) if dens.lo < c < dens.hi])
        dens = GriddedDensity(grid, np.interp(grid, dens.grid, dens.values), "gauss-composite")
    elif dens is not None and -T <= dens.lo < T:
        # the indicator is <= ((lam - lo)/(T - lo))**p for any p >= 0; p = 4
        # keeps the stub integrable against heads down to (lam - lo)**-4.9
        g_head = ((T - dens.lo) ** -4.0, 4.0)
    # the cuts at +-T stay on panel edges, so no Gauss panel straddles them
    return float(integrate_against(Measure(mu.atoms, dens), lambda x, w: w[np.abs(x) > T].sum(),
                                   g_head, tol=tol, breaks=(-T, T))[0])


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
    return float(integrate_against(
        sigma, lambda x, w: np.dot(w, np.minimum(1.0, x)), g_head, tol=tol, breaks=(1.0,)
    )[0])


# ---------------------------------------------------------------------------
# JSON interface


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
    return render(measure_doc(mu))


def measure_from_json(text):
    """Parse the JSON form produced by ``measure_to_json``."""
    return measure_from_doc(json.loads(text))
