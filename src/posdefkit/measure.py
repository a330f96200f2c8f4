"""Positive measures on the line and their Laplace transforms.

A :class:`Measure` is a finite list of weighted atoms plus an optional
density.  Only this module reads a density's bounds: the others build
densities by name (``density_from_spec``), weight them by lambda
(``lambda_weighted``) and finish integrals through ``integral_value``.  There
is one density type, :class:`FuncDensity`: a vectorized callable on an
interval ``[lo, hi)`` carrying an analytic bound near ``lo``
(:class:`HeadBound`) and, when ``hi`` is infinite, a tail :class:`Envelope`.
This covers densities with integrable endpoint singularities such as
``lambda**(-1-alpha)`` against ``1 - exp(-lambda*t)``, which no fixed grid
can represent at the tolerances used here.  A :class:`GriddedDensity`,
sampled values on a strictly increasing grid and the JSON round-trip form,
is the function density of their piecewise-linear interpolant, with the
grid as its ``knots``.

Every integral (transforms, masses, the one-wedge integral and the
syntheses in ``levykhin``) goes through :func:`integrate_against`, which
sums atoms exactly and integrates the density in one refinement loop with
one embedded rule, 21-point Kronrod and its 10-point Gauss rule (G10/K21):
one pass over a mesh gives a value and an error estimate.  The lattice of
panels of a density with knots is its knot cells, integrated whole.  Any
other has one fixed lattice uniform in log(lam - lo), graded: panel j spans
the offsets [_LATTICE[j], _LATTICE[j+1]] above lo, two octaves across a
band around the unit offset and twice as many octaves with each panel
outside it, where the integrands are plain powers of lam.  A quadrature
integrates the contiguous slice of panels from the widest stub on the
lattice whose head bound meets the budget to the nearest lattice point past
which the tail bound does.  The caller's ``breaks`` stay on panel edges.
The reported ``truncation_bound`` adds the analytic stub and tail bounds
and a rounding allowance to the Kronrod-Gauss difference, so ``converged``
is an honest claim.

Only the integrand depends on t, so each density memoizes its lattice: per
refinement level, the nodes of one contiguous run of panels and the weights
times the checked density values.  A slice inside the run evaluates
nothing; one reaching past it evaluates and checks only its new panels.
The memo lives and dies with its density, so ``fn`` must be pure.

One call integrates a whole batch of t: the integrand family is given as
one weighted sum per t and weight column.  The batch shares one truncation
point and one stub, both sized for its worst-case integrand bounds, and one
mesh per refinement level.  A batch not converged on the first mesh
refines it (level l splits every lattice panel into 2**l), and a refined
mesh must also agree with the one before.  The integrand is summed over
blocks of nodes holding a fixed number (``_BLOCK``) of node-by-t elements,
so memory stays flat however large the batch; a batch that fits one block
is one kernel call per level.
"""

import bisect
import json
import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import _accel
from .errors import DivergentIntegral, DomainError, InvalidMeasure, UnknownName
from .jsonfmt import number, pair, render, required
from .kernelcheck import _scale, resolve_tol

# QUADPACK's G10/K21 pair (Piessens et al., 1983) to 20 digits, from a 50-digit
# mpmath solve.  Rows: node >= 0, Kronrod weight, Gauss weight (0 at the 11
# Kronrod-only nodes); mirrored about 0, 21 ascending nodes and (21, 2) weights.
_KRONROD_HALF = np.array([
    (0.99565716302580808074, 0.011694638867371874278, 0.0),
    (0.97390652851717172008, 0.032558162307964727479, 0.066671344308688137594),
    (0.930157491355708226, 0.054755896574351996031, 0.0),
    (0.86506336668898451073, 0.075039674810919952767, 0.14945134915058059315),
    (0.78081772658641689706, 0.093125454583697605535, 0.0),
    (0.67940956829902440623, 0.1093871588022976419, 0.219086362515982044),
    (0.56275713466860468334, 0.12349197626206585108, 0.0),
    (0.4333953941292471908, 0.13470921731147332593, 0.26926671930999635509),
    (0.29439286270146019813, 0.1427759385770600808, 0.0),
    (0.14887433898163121088, 0.14773910490133849137, 0.29552422471475287017),
    (0.0, 0.14944555400291690566, 0.0),
])
_KRONROD_NODES = np.concatenate([-_KRONROD_HALF[:-1, 0], _KRONROD_HALF[::-1, 0]])
_KRONROD_WEIGHTS = np.concatenate([_KRONROD_HALF[:-1, 1:], _KRONROD_HALF[::-1, 1:]])

# support of the measures that the half-line representations integrate against
HALF_LINE = (0.0, math.inf)
# default tolerance of every quadrature: transforms, masses and syntheses
QUAD_TOL = 1e-10

# refinement level l cuts every lattice panel into 2**l, uniform in log
_MAX_LEVEL = 4
# every quadrature bound adds this share of the density part: a refinement
# difference below a few ulps of the value is summation noise, not accuracy
_ROUNDING = 16.0 * np.finfo(float).eps
# node-by-t elements per call of a batch's wsum: 64 KiB of float64
# temporaries, where a 64-point Gram batch at once took hundreds of MiB
_BLOCK = 8192


# log-space slack of every exponential tail bound, beside two ulps per unit
# of the terms of its log: the rounding of log, lgamma and the one exp
_TAIL_SLACK = 1e-13
_EPS = float(np.finfo(float).eps)
_SMALLEST_NORMAL = float(np.finfo(float).tiny)

# Panel j of the lattice spans the offsets [_LATTICE[j], _LATTICE[j+1]] above a
# density's lo, each point a power of 4: one step (two octaves) a panel across
# _UNIT_BAND, steps doubling outward, so a long stub or tail costs a few wide
# panels over integrands close to powers of lam.  Level 0 converges where the
# band holds lam*|t| from about 1 to where e**(-lam*|t|) dies out: for the
# catalog's synthesized forms, t from about 0.015 to 200.  The points run from
# 4**-511 = 2**-1022, the smallest normal double, to 4**499, the first past
# 1e300, then +inf, which the top panel of a bounded density clips to its hi.
_UNIT_BAND = (-4, 5)
_LATTICE = (*(math.ldexp(1.0, 2 * p) for p in sorted(
    {*range(_UNIT_BAND[0], _UNIT_BAND[1] + 1),
     *(max(_UNIT_BAND[0] + 2 - 2**k, -511) for k in range(2, 11)),
     *(min(_UNIT_BAND[1] - 2 + 2**k, 499) for k in range(2, 11))})), math.inf)
# index of the lattice point 1, where every truncation search starts
_UNIT = _LATTICE.index(1.0)


@dataclass(frozen=True)
class Envelope:
    """Tail bound ``rho(lam) <= coef * lam**power * exp(-decay*lam)`` for lam >= cutoff."""

    coef: float
    power: float = 0.0
    decay: float = 0.0
    cutoff: float = 1.0

    def tail(self, T, extra_power=0.0, extra_decay=0.0, extra_coef=1.0):
        """Upper bound for ``integral_T^inf lam**(power+extra_power) e^{-(decay+extra_decay)lam} rho_env``.

        With decay s > 0 this is c * Gamma(a, x) / s**a at x = s*T, and
        Gamma(a, x) <= x**(a-1) e**-x for a <= 1, where t**(a-1) is
        nonincreasing; <= x**a e**-x / (x - a + 1) for a > 1 and x > a - 1,
        from (x+u)**(a-1) <= x**(a-1) e**((a-1)u/x); and <= Gamma(a) otherwise.
        The bound is one log, raised by ``_TAIL_SLACK`` plus two ulps per unit
        of its terms and exponentiated once, so x**a, e**-x and Gamma(a) never
        overflow on their own; a result below the normal range steps up one
        subnormal, and one that overflows is inf.  Returns +inf when the
        combined integrand does not decay.
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
            x = s * T
            lx = math.log(x)
            try:  # an overflow of math.exp, or of math.lgamma past a = 2.5e305, is inf
                if p <= 0.0:
                    z, size = p * lx - x, abs(p * lx) + x
                elif x > p:
                    # log(x - p) magnifies the rounding of x and p by (x + p) / (x - p)
                    z = a * lx - x - math.log(x - p)
                    size = abs(a * lx) + x + abs(math.log(x - p)) + (x + p) / (x - p)
                else:  # math.lgamma to a few ulps of its value
                    z = math.lgamma(a)
                    size = 2.0 + 4.0 * abs(z)
                lc, ls = math.log(c), a * math.log(s)
                bound = math.exp(z + lc - ls + _TAIL_SLACK
                                 + 2.0 * _EPS * (size + abs(lc) + abs(ls)))
            except OverflowError:
                return math.inf
            return bound if bound >= _SMALLEST_NORMAL else math.nextafter(bound, math.inf)
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
class FuncDensity:
    """Vectorized density callable on [lo, hi) with analytic endpoint control.

    ``head`` bounds the density just above ``lo`` and sizes the unresolved
    stub panel; ``tail_env`` is required when ``hi`` is infinite.  ``name``
    and ``params`` let catalog densities serialize by reference.  A density
    with ``knots`` (lo, ..., hi) is smooth between them, and their cells are
    its lattice: no stub or tail, no bound read.

    ``head.power <= -1`` is allowed: such a density has infinite mass near
    ``lo`` but stays usable against integrands vanishing there (the Bernstein
    kernel ``1 - exp(-lam*t)`` is the motivating case).  Each integral checks
    its own combined endpoint exponent and raises ``DivergentIntegral`` when
    the pairing is genuinely non-integrable.

    ``fn`` must be pure: the density keeps its values on the lattice panels
    that its quadratures have reached, for as long as it lives.
    ``dataclasses.replace`` gives a density with a lattice of its own.
    """

    fn: object
    lo: float
    hi: float
    head: HeadBound
    tail_env: Envelope | None = None
    name: str = ""
    params: dict = field(default_factory=dict)
    knots: np.ndarray | None = None
    # level -> (j0, j1, nodes, weights times density) of lattice panels j0 .. j1-1;
    # outside __init__, so dataclasses.replace starts a new density with none
    _lattice: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not math.isfinite(self.lo):
            raise InvalidMeasure("function densities need a finite lower endpoint; use atoms below it")
        if self.hi <= self.lo:
            raise InvalidMeasure("density support is empty")
        if math.isinf(self.hi) and self.tail_env is None:
            raise InvalidMeasure("unbounded function densities must carry a tail envelope")


@dataclass(frozen=True, init=False)
class GriddedDensity(FuncDensity):
    """The function density of the piecewise-linear interpolant through
    nonnegative ``values`` on a strictly increasing ``grid``, its knots.
    Integrals report its Kronrod value (``"gauss-composite"``) or the
    trapezoid sum at the knots, whose bound adds |trapezoid - Kronrod|; no
    bound covers how well it models a continuous density.  Build a new one
    from grid and values: ``dataclasses.replace`` does not apply."""

    grid: np.ndarray = None
    values: np.ndarray = None
    rule: str = "trapezoid"

    def __init__(self, grid, values, rule="trapezoid"):
        try:
            g, v = (np.asarray(x, dtype=np.float64) for x in (grid, values))
        except (TypeError, ValueError):
            raise InvalidMeasure("density grid and values must be arrays of numbers") from None
        if g.ndim != 1 or v.shape != g.shape or g.size < 2:
            raise InvalidMeasure("density grid and values must be 1-d arrays of equal length >= 2")
        if not np.all(np.isfinite(g)) or not np.all(np.isfinite(v)):
            raise InvalidMeasure("density grid and values must be finite")
        if not np.all(np.diff(g) > 0):
            raise InvalidMeasure("density grid must be strictly increasing")
        if np.any(v < 0):
            raise InvalidMeasure("density values must be nonnegative")
        if rule not in ("trapezoid", "gauss-composite"):
            raise InvalidMeasure(f"unknown quadrature rule {rule!r}")
        self.__dict__.update(grid=g, values=v, rule=rule)
        super().__init__(partial(np.interp, xp=g, fp=v), float(g[0]), float(g[-1]),
                         HeadBound(float(v.max())), knots=g)


@dataclass(frozen=True)
class Measure:
    """Nonnegative measure: weighted atoms plus an optional density, inside ``support``."""

    atoms: tuple = ()
    density: FuncDensity | None = None
    support: tuple = (-math.inf, math.inf)

    def __post_init__(self):
        cleaned = []
        for atom in self.atoms:
            lam, w = float(atom[0]), float(atom[1])
            if not (math.isfinite(lam) and math.isfinite(w)):
                raise InvalidMeasure("atom locations and weights must be finite")
            if w < 0:
                raise InvalidMeasure("atom weights must be nonnegative")
            cleaned.append((lam, w))
        try:
            lo, hi = (float(x) for x in self.support)
        except (TypeError, ValueError):
            lo = hi = math.nan
        if not lo <= hi:
            raise InvalidMeasure("support must be two numbers lo <= hi")
        dens = self.density
        ends = [lam for lam, _ in cleaned] + ([] if dens is None else [dens.lo, dens.hi])
        if not all(lo <= x <= hi for x in ends):
            raise InvalidMeasure(f"atoms and density must lie inside the support [{lo:g}, {hi:g}]")
        object.__setattr__(self, "atoms", tuple(cleaned))
        object.__setattr__(self, "support", (lo, hi))

    def atom_arrays(self):
        a = np.asarray(self.atoms, dtype=np.float64).reshape(-1, 2)
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


def on_half_line(mu):
    """Whether every atom and the density of ``mu`` lie in [0, inf)."""
    lam, _ = mu.atom_arrays()
    return not np.any(lam < 0) and (mu.density is None or mu.density.lo >= 0)


def interpolated(mu):
    """``mu`` with a trapezoid gridded density switched to ``"gauss-composite"``, whose
    integrals take the Kronrod value, on the same knots and memo; others as they are."""
    dens = mu.density
    if not (isinstance(dens, GriddedDensity) and dens.rule == "trapezoid"):
        return mu
    twin = GriddedDensity(dens.grid, dens.values, "gauss-composite")
    object.__setattr__(twin, "_lattice", dens._lattice)
    return replace(mu, density=twin)


def lambda_weighted(mu):
    """The measure lam * mu(dlam) of a measure on [0, inf): atoms (lam, lam*w) and
    the density times lam on the same knots, whose head and tail bounds rise
    one power; a gridded density's rule is dropped, so it takes the Kronrod value."""
    if not on_half_line(mu):
        raise InvalidMeasure("lam-weighting needs a measure on [0, inf)")
    dens = mu.density
    if dens is not None:
        h, env, base = dens.head, dens.tail_env, dens.fn
        # lam <= stub_reach over a head that does not start at 0
        head = (replace(h, power=h.power + 1.0) if dens.lo == 0.0
                else replace(h, coef=h.coef * stub_reach(dens)))
        env = None if env is None else replace(env, power=env.power + 1.0)
        dens = FuncDensity(lambda x: x * np.asarray(base(x), dtype=np.float64), dens.lo, dens.hi,
                           head, env, knots=dens.knots)
    return Measure(tuple((lam, lam * w) for lam, w in mu.atoms), dens, mu.support)


def scaled_exp(scale, x):
    """``scale * e**x`` for a coefficient bound (scale >= 0): 0 when scale is
    0, +inf where it overflows, so an unbounded integrand bound is no bound."""
    try:
        return scale * math.exp(x) if scale else 0.0
    except OverflowError:
        return math.inf


def stub_reach(dens):
    """Largest |lam| the unresolved stub of a density reaches (unread on knots); 0 for None."""
    return 0.0 if dens is None else abs(dens.lo) + dens.head.cutoff


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
        with np.errstate(over="ignore", invalid="ignore"):
            rho = np.asarray(coef * np.power(lam, power) * np.exp(-decay * lam))
            bad = ~np.isfinite(rho)  # where lam**power overflows: the product through its log
            rho[bad] = np.exp(math.log(coef) + power * np.log(lam[bad]) - decay * lam[bad])
        return rho

    return FuncDensity(
        fn=fn,
        lo=0.0,
        hi=math.inf,
        head=HeadBound(coef=coef, power=power),
        tail_env=Envelope(coef=coef, power=power, decay=decay),
        name=name,
        params=params,
    )


def _stable_sigma(alpha=0.5):
    # (alpha / Gamma(1-alpha)) lam^(-1-alpha) dlam, the alpha-stable jump density
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise InvalidMeasure("stable_sigma needs 0 < alpha < 1")
    coef = alpha / math.gamma(1.0 - alpha)
    return _power_decay_density(coef, -1.0 - alpha, 0.0, "stable_sigma", {"alpha": alpha})


def _gamma_density(alpha=1.0):
    alpha = float(alpha)
    if alpha <= 0:
        raise InvalidMeasure("gamma density needs alpha > 0")
    try:
        coef = 1.0 / math.gamma(alpha)
    except OverflowError:  # past alpha = 171.6, where 1/Gamma underflows
        coef = 0.0
    return _power_decay_density(coef, alpha - 1.0, 1.0, "gamma", {"alpha": alpha})


def _raw_power_decay(coef=1.0, power=0.0, decay=0.0):
    return _power_decay_density(
        coef, power, decay, "power_decay",
        {"coef": float(coef), "power": float(power), "decay": float(decay)},
    )


_DENSITY_SPECS = {
    # dlam, exp(-lam) dlam and exp(-lam)/lam dlam
    "lebesgue": partial(_power_decay_density, 1.0, 0.0, 0.0, "lebesgue", {}),
    "exp": partial(_power_decay_density, 1.0, 0.0, 1.0, "exp", {}),
    "log_sigma": partial(_power_decay_density, 1.0, -1.0, 1.0, "log_sigma", {}),
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
    params = dict(params or {})
    UnknownName.check_params(builder, f"density {name!r}", params)
    return builder(**params)


# ---------------------------------------------------------------------------
# quadrature engine


def _lattice_end(dens, j):
    """Edge j of a density's lattice: knot j, else offset ``_LATTICE[j]`` above lo up to hi - lo."""
    return dens.knots[j] if dens.knots is not None else min(_LATTICE[j], dens.hi - dens.lo)


def _lattice_edges(dens, j0, j1, level):
    """Edges of the lattice panels j0 .. j1-1, each cut into 2**level equal
    panels: a knot cell in lam, at np.interp's points of its fractional knot
    indices bit for bit, else a panel of ``_LATTICE`` in log(lam - lo), its
    edges offsets above lo.  Every panel's edges depend on j and level
    alone, so slices of one lattice nest."""
    ends = np.array([_lattice_end(dens, j) for j in range(j0, j1 + 1)])
    steps = np.arange(2**level) / 2**level
    a, b = ends[:-1, None], ends[1:, None]
    edges = (b - a) * steps + a if dens.knots is not None else a * (b / a) ** steps
    return np.append(edges.ravel(), ends[-1])


def _weighted_nodes(dens, edges, lo):
    """G10/K21 nodes on every panel and their (N, 2) weights, Kronrod and
    Gauss, times the density, which is checked to be finite and nonnegative
    at every node.

    With ``lo`` None the panels are linear in lam.  Otherwise ``edges`` are
    offsets above lo and the panels are uniform in u = log(lam - lo), where
    (lam - lo)**p is the entire e**((p+1)u): the nodes are lo + e**u and both
    weight columns carry the Jacobian lam - lo.
    """
    u = edges if lo is None else np.log(edges)
    mid = 0.5 * (u[:-1] + u[1:])
    half = 0.5 * np.diff(u)
    nodes = (mid[:, None] + half[:, None] * _KRONROD_NODES).ravel()
    wts = (half[:, None, None] * _KRONROD_WEIGHTS).reshape(-1, 2)
    if lo is not None:
        off = np.exp(nodes)
        nodes, wts = lo + off, wts * off[:, None]
    rho = np.asarray(dens.fn(nodes), dtype=np.float64)
    if rho.shape != nodes.shape:
        raise InvalidMeasure("density callable must return an array matching its input")
    if not np.all(np.isfinite(rho)):
        raise InvalidMeasure("density callable produced non-finite values")
    if np.any(rho < 0):
        worst = float(rho.min())
        if worst < -1e-12 * _scale(rho):
            raise InvalidMeasure("density callable produced negative values")
        rho = np.maximum(rho, 0.0)
    return nodes, rho[:, None] * wts


def _lattice_slice(dens, ja, jb, breaks, level):
    """Nodes and density-weighted (Kronrod, Gauss) weights of the lattice
    panels ja .. jb-1 at ``level`` (knot cells where the density has knots),
    as read-only views of the density's memo.

    The memo keeps one contiguous run of panels per level and grows by the
    panels of the slice it lacks, so only those are evaluated and checked; a
    slice apart from the run replaces it.  Each entry is replaced whole, so
    threads sharing a density may build a panel twice but always slice one
    consistent entry.  A cut in ``breaks`` strictly inside a panel gets a
    union mesh of its own, which is not kept.
    """
    lo = None if dens.knots is not None else dens.lo  # knot edges are points, lattice ones offsets
    if breaks:
        edges = _lattice_edges(dens, ja, jb, level)
        cuts = [b - (lo or 0.0) for b in breaks if edges[0] < b - (lo or 0.0) < edges[-1]]
        if not np.isin(cuts, edges).all():
            return _weighted_nodes(dens, np.union1d(edges, cuts), lo)
    memo = dens._lattice.get(level)
    if memo is None or ja > memo[1] or jb < memo[0]:
        memo = (ja, ja, np.empty(0), np.empty((0, 2)))
    j0, j1, nodes, wr = memo
    parts = [(nodes, wr)]
    if ja < j0:
        parts.insert(0, _weighted_nodes(dens, _lattice_edges(dens, ja, j0, level), lo))
    if jb > j1:
        parts.append(_weighted_nodes(dens, _lattice_edges(dens, j1, jb, level), lo))
    if len(parts) > 1:
        nodes, wr = (np.concatenate(column) for column in zip(*parts))
        j0, j1 = min(ja, j0), max(jb, j1)
        nodes.flags.writeable = wr.flags.writeable = False
        dens._lattice[level] = (j0, j1, nodes, wr)
    per = _KRONROD_NODES.size * 2**level
    return nodes[(ja - j0) * per:(jb - j0) * per], wr[(ja - j0) * per:(jb - j0) * per]


def _stub_panel(head, g_coef, g_power, budget, jb):
    """Lattice index ja < jb of the widest stub [lo, lo + _LATTICE[ja]] whose
    bound meets the budget, and that bound.  The stub reaches down to 2**-1022 =
    4**-511, the smallest normal double, at most."""
    p = head.power + g_power
    if p <= -1.0:
        raise DivergentIntegral(
            f"integrand behaves like (lam-lo)**{p:g} at the lower endpoint; not integrable"
        )
    # an overflowed g_coef is +inf: a stub bound of inf, never inf * 0
    c = head.coef * g_coef if head.coef > 0.0 else 0.0
    try:
        eps = (budget * (1.0 + p) / c) ** (1.0 / (1.0 + p)) if c > 0.0 else head.cutoff
    except OverflowError:  # a coefficient so small that any stub meets the budget
        eps = head.cutoff
    eps = max(min(eps, head.cutoff), _SMALLEST_NORMAL)
    ja = min(bisect.bisect_right(_LATTICE, eps) - 1, jb - 1)  # the lattice point at or below eps
    bound = c * _LATTICE[ja] ** (1.0 + p) / (1.0 + p) if c < math.inf else math.inf
    return ja, bound


def _tail_panel(env, g_tail, lo, budget):
    """Smallest lattice index jb >= ``_UNIT`` with lo + _LATTICE[jb] at or
    past the cutoff whose tail bound past that point meets the budget, and
    that bound.

    The search steps up one lattice point at a time and gives up past 1e300.
    A pure power-law tail, c * T**a / (-a) with a < 0, starts it at the first
    lattice point past the T of its closed form instead, stepped down while
    the point below also meets the budget, so both find the same jb.
    """
    gc, gp, gd = g_tail
    end = lambda j: lo + _LATTICE[j]
    tail = lambda j: env.tail(end(j), extra_power=gp, extra_decay=gd, extra_coef=gc)
    top = len(_LATTICE) - 2  # the last finite point, past 1e300
    j0 = _UNIT
    while j0 < top and end(j0) < env.cutoff:
        j0 += 1
    j, c, a = j0, env.coef * gc, env.power + gp + 1.0
    if env.decay + gd == 0.0 and a < 0.0 and c > 0.0 and budget > 0.0:
        # c * T**a / (-a) <= budget  <=>  log2 T >= log2((-a) * budget / c) / a
        need = (math.log2(-a) + math.log2(budget) - math.log2(c)) / a
        if math.isfinite(need):
            j = max(min(bisect.bisect_left(_LATTICE, need, key=math.log2), top), j0)
            # the search stops at the first point above 1e300
            while j > j0 and (end(j - 1) > 1e300 or tail(j - 1) <= budget):
                j -= 1
    for j in range(j, top + 1):
        b = tail(j)
        if b <= budget:
            return j, b
        if end(j) > 1e300:
            break
    raise DivergentIntegral("tail bound cannot be brought below tolerance; transform diverges")


def _integrate_func_density(dens, wsum, g_head, g_tail, tol, breaks=()):
    """Integrate wsum against the density with stub/tail/refinement bounds.

    wsum(nodes, W) must return sum_i W_ij * g_t(nodes_i) for each t of the
    batch and column j of W; g_head = (coef, power) bounds every |g_t| near
    lo and g_tail = (coef, power, decay) bounds every |g_t| for large lambda
    (only used when the support is unbounded).  Returns one value and one
    bound per t.
    """
    budget = tol / 10.0
    if dens.knots is not None:
        ja, jb, bound = 0, dens.knots.size - 1, 0.0
    else:
        # the slice spans lo + [_LATTICE[ja], _LATTICE[jb]]; stub and tail bounds cover the rest
        if math.isinf(dens.hi):
            jb, tail_bound = _tail_panel(dens.tail_env, g_tail, dens.lo, budget)
        else:
            # the first lattice point at or past hi, panel 0 at least
            jb, tail_bound = max(bisect.bisect_left(_LATTICE, dens.hi - dens.lo), 1), 0.0
        ja, stub_bound = _stub_panel(dens.head, g_head[0], g_head[1], budget, jb)
        bound = stub_bound + tail_bound

    value = None
    for level in range(_MAX_LEVEL + 1):
        sums = wsum(*_lattice_slice(dens, ja, jb, breaks, level))
        kron, gauss = sums[..., 0], sums[..., 1]
        quad_err = np.abs(kron - gauss)
        if value is not None:
            # a refined mesh must also agree with the one that failed
            quad_err = np.maximum(quad_err, np.abs(kron - value))
        value = kron
        if quad_err.max() <= budget:
            break
    if not np.isfinite(value).all():
        raise DivergentIntegral("quadrature overflowed; transform diverges on this input")
    return value, bound + quad_err


def integrate_against(mu, wsum, g_head=(1.0, 0.0), g_tail=(1.0, 0.0, 0.0), tol=QUAD_TOL, breaks=()):
    """integral g_t(lam) dmu for a batch of t, the one quadrature entry point of the package.

    The integrands are given as weighted sums: ``wsum(x, W)`` returns
    ``sum_i W_i * g_t(x_i)`` for nodes x and weights W of shape (N,) or
    (N, m), one sum per t and per column of W (a scalar or an (m,) array for
    a single integrand).  Atoms are summed exactly through it, with 1-d W.
    For a density without knots, ``g_head = (coef, power)`` bounds every
    |g_t| near its lower endpoint and ``g_tail = (coef, power, decay)``
    bounds every |g_t| for large lambda.  Interior kinks listed in ``breaks``
    stay on panel edges.  Returns ``(values, worst, bounds)``: one value and one
    bound per t, and the largest bound, which decides convergence.  ``tol``
    must be finite and > 0, as in ``resolve_tol`` (``ValueError``).
    """
    tol = resolve_tol(float(tol), 1)
    lam, w = mu.atom_arrays()
    total = np.asarray(wsum(lam, w), dtype=np.float64)
    dens = mu.density
    if dens is None:
        return total, 0.0, np.zeros_like(total)
    step = max(1, _BLOCK // total.size)
    # one kernel call when one block holds the batch (+ 0.0 turns -0.0 to 0.0, as a sum from 0 does)
    blocked = lambda x, w: (wsum(x, w) + 0.0 if x.size <= step else
                            sum(wsum(x[i:i + step], w[i:i + step]) for i in range(0, x.size, step)))
    part, bound = _integrate_func_density(dens, blocked, g_head, g_tail, tol, breaks)
    if isinstance(dens, GriddedDensity) and dens.rule == "trapezoid":
        # the trapezoid sum at the knots, within |trap - K| of the Kronrod value K
        half = 0.5 * np.diff(dens.grid)
        trap = blocked(dens.grid, dens.values * (np.append(half, 0.0) + np.insert(half, 0, 0.0)))
        part, bound = trap, bound + np.abs(trap - part)
    bound = bound + _ROUNDING * np.abs(part)
    return total + part, float(bound.max()), bound


def integral_value(mu, wsum, g_head, g_tail, t, tol, what, offset=None):
    """``offset`` (if given) plus ``integrate_against(mu, wsum, g_head, g_tail,
    tol)`` for the batch of t, as a ``LaplaceValue`` shaped like t that is
    converged when the largest bound meets tol.  A non-finite value raises
    ``DivergentIntegral`` naming ``what`` and the first such t."""
    part, worst, bounds = integrate_against(mu, wsum, g_head, g_tail, tol)
    value = part if offset is None else offset + part
    if not np.isfinite(value).all():
        raise DivergentIntegral(f"{what} overflowed at t = {np.ravel(t)[~np.isfinite(value)][0]:g}")
    return LaplaceValue.shaped(t, value, bounds, worst <= tol)


# ---------------------------------------------------------------------------
# public transforms


def _batch(t, what, message="", lo=-math.inf, hi=math.inf):
    """t as a 1-d float array; a DomainError names an empty t, else the first t
    not finite (``what`` needs a finite t), else the first outside (lo, hi)."""
    ts = np.asarray(t, dtype=np.float64).ravel()
    if not ts.size:
        raise DomainError(f"{what} needs at least one t")
    # a NaN makes both ends NaN and +-inf is outside any (lo, hi): a good batch passes at once
    if lo < ts.min() and ts.max() < hi:
        return ts
    for bad, text in ((~np.isfinite(ts), what + " needs a finite t, got {:g}"),
                      ((ts <= lo) | (ts >= hi), message)):
        if bad.any():
            raise DomainError(text.format(ts[bad][0]))
    return ts


def _laplace_g_head(dens, t, k):
    """(coef, power) bound for lam**k * exp(-lam*t) near dens.lo, for every t of the batch."""
    cut = dens.head.cutoff  # stub panel can reach the full head cutoff
    # log-sup of exp(-lam*t) over the stub (lo, lo+cut]; convex in t, so the batch's ends bound it
    grow = max(-s * (dens.lo if s >= 0.0 else dens.lo + cut) for s in (t.min(), t.max()))
    if dens.lo == 0.0:
        return scaled_exp(1.0, grow), float(k)
    return scaled_exp(stub_reach(dens)**k if k else 1.0, grow), 0.0


def laplace_deriv(mu, t, k, tol=QUAD_TOL):
    """k-th derivative of the Laplace transform of ``mu`` at ``t``.

    Returns ``LaplaceValue`` with ``value = (-1)**k * integral lam**k e^{-lam t} dmu``
    and a truncation bound combining analytic stub/tail envelopes with the
    observed Kronrod-Gauss difference.  ``converged`` is True when
    that bound is at or below ``tol``.  An array of t is one batched
    integration with a value and a bound per t.

    Raises ``DivergentIntegral`` when the transform provably diverges at
    ``t`` (non-decaying tail, non-integrable endpoint), ``DomainError`` for
    a t that is not finite and ``ValueError`` for a k that is not an integer
    >= 0.
    """
    if not (float(k).is_integer() and k >= 0):
        raise ValueError(f"derivative order must be an integer >= 0, got {k}")
    k, ts = int(k), _batch(t, "transform")
    dens = mu.density
    g_head = (1.0, 0.0) if dens is None else _laplace_g_head(dens, ts, k)
    sign = (-1.0) ** k  # exact, so it changes no bit of the sums or their bounds
    return integral_value(mu, lambda x, w: sign * _accel.exp_weighted_sum(x, w, ts, k), g_head,
                          (1.0, float(k), float(ts.min())), t, tol, "transform")


def laplace(mu, t, tol=QUAD_TOL):
    """Laplace transform of ``mu`` at ``t``; identical path to ``laplace_deriv(mu, t, 0)``."""
    return laplace_deriv(mu, t, 0, tol)


def _finite_integral(mu, wsum, what, g_head=(1.0, 0.0), tol=QUAD_TOL, breaks=()):
    """``integrate_against`` of one integrand as a float; a non-finite value
    raises ``DivergentIntegral`` naming ``what``."""
    value = float(integrate_against(mu, wsum, g_head, tol=tol, breaks=breaks)[0])
    if not math.isfinite(value):
        raise DivergentIntegral(f"{what} overflowed")
    return value


def total_mass(mu, tol=QUAD_TOL):
    """Total mass of the measure; raises ``DivergentIntegral`` when infinite."""
    return _finite_integral(mu, lambda x, w: w.sum(0), "total mass", tol=tol)


def tail_mass(mu, T, tol=QUAD_TOL):
    """Mass of {|lam| > T}; raises ``DivergentIntegral`` when infinite."""
    if not T >= 0:
        raise ValueError(f"T must be nonnegative, got {T}")
    # the trapezoid sum has no knot at the cut: a gridded density gives its Kronrod value
    mu = interpolated(mu)
    dens = mu.density
    g_head = (1.0, 0.0)
    if dens is not None and -T <= dens.lo < T:
        # the indicator is <= ((lam - lo)/(T - lo))**p for any p >= 0; p = 4
        # keeps the stub integrable against heads down to (lam - lo)**-4.9
        g_head = ((T - dens.lo) ** -4.0, 4.0)
    # the cuts at +-T stay on panel edges, so no Gauss panel straddles them
    return _finite_integral(mu, lambda x, w: w[np.abs(x) > T].sum(0), "tail mass",
                            g_head, tol, (-T, T))


def one_wedge_integral(sigma, tol=QUAD_TOL):
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
    return _finite_integral(sigma, lambda x, w: np.minimum(1.0, x) @ w, "one-wedge integral",
                            g_head, tol, (1.0,))


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
    """Rebuild a measure from the dict form of ``measure_doc``; a missing key
    or a malformed value raises ``InvalidMeasure``."""
    if not isinstance(doc, dict):
        raise InvalidMeasure("measure JSON must be an object")
    atoms = doc.get("atoms", [])
    if not (isinstance(atoms, list) and all(isinstance(a, dict) for a in atoms)):
        raise InvalidMeasure("measure JSON atoms must be a list of objects")
    atoms = tuple((number(a, "lambda", InvalidMeasure), number(a, "weight", InvalidMeasure))
                  for a in atoms)
    dens_doc, density = doc.get("density"), None
    if not isinstance(dens_doc, (dict, type(None))):
        raise InvalidMeasure("measure JSON density must be an object or null")
    if dens_doc and "catalog" in dens_doc:
        name, params = dens_doc["catalog"], dens_doc.get("params", {})
        if not (isinstance(name, str) and isinstance(params, dict)):
            raise InvalidMeasure("a catalog density needs a name and an object of params")
        density = density_from_spec(name, {k: number(params, k, InvalidMeasure) for k in params})
    elif dens_doc is not None:
        density = GriddedDensity(required(dens_doc, "grid", InvalidMeasure),
                                 required(dens_doc, "values", InvalidMeasure),
                                 dens_doc.get("rule", "trapezoid"))
    support = doc.get("support")
    return Measure(atoms, density, (-math.inf, math.inf) if support is None
                   else pair(support, "support", InvalidMeasure))


def measure_to_json(mu):
    """Serialize a measure; floats carry 17 significant digits."""
    return render(measure_doc(mu))


def measure_from_json(text):
    """Parse the JSON form produced by ``measure_to_json``."""
    return measure_from_doc(json.loads(text))
