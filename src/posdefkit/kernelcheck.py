"""Gram matrices and eigenvalue-based positivity verdicts.

Two kernel constructions recur everywhere: the plus kernel ``f((x+y)/2)``
(positive definiteness in the Laplace-transform sense) and the minus kernel
``f((x-y)/2)`` (the group sense on symmetric intervals).  Every PASS or FAIL
in the package comes from one rule, ``_decide``: PASS when the statistic is
within ``tol*scale`` of the admissible side (a tie passes), else FAIL.  A
check decides once and carries that verdict; a witness means FAIL.  Verdicts
come from the eigenvalues alone (``eigvalsh``); only a FAIL runs ``eigh`` for
its witness and reports the verdict on eigh's eigenvalue, so a FAIL keeps the
bits of a full eigendecomposition and a PASS eigenvalue moves by rounding.
INCONCLUSIVE comes from two places today: ``schoenberg_scan`` on a Gram with
non-finite entries, and the reflection module's ``boundary_derivative_check``,
when its Grams' entry bounds (``KernelGram.bounds``, read as
``ReflectionReport.bound``) exceed the quadrature tolerance.  Weighing every
verdict against those bounds is still open.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteEntry, NotReflectionPositive

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


def default_tol(n):
    """Default verdict tolerance for an n-point grid."""
    return 1e-9 * max(int(n), 1)


def resolve_tol(tol, n):
    """The verdict tolerance of a check on n points: ``default_tol(n)`` for
    None, else ``tol``, which must be finite and > 0 (``ValueError``)."""
    if tol is None:
        return default_tol(n)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    return tol


@dataclass(frozen=True)
class KernelGram:
    """A symmetric Gram matrix tagged with the points and kernel kind, and
    the error bound of each entry (zeros when none is given)."""

    points: np.ndarray
    entries: np.ndarray
    kind: str  # plus | minus | custom
    bounds: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=np.float64))
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=np.float64))
        bounds = np.zeros_like(self.entries) if self.bounds is None else self.bounds
        object.__setattr__(self, "bounds", np.asarray(bounds, dtype=np.float64))

    @property
    def n(self):
        return self.entries.shape[0]


@dataclass(frozen=True)
class PositivityVerdict:
    """Outcome of an eigenvalue test.

    ``extremal_eig`` is the eigenvalue (or difference statistic) that decides
    the verdict; ``witness``, set on a FAIL only, is a vector that realizes
    the violation, or the (t, delta, k) triple for difference-based tests;
    ``h`` is set by Schoenberg scans to the first exponent that does not pass.
    """

    verdict: str
    extremal_eig: float
    tol_used: float
    scale: float
    witness: np.ndarray | None = None
    grid: np.ndarray | None = None
    h: float | None = None

    @property
    def passed(self):
        return self.verdict == PASS

    def to_dict(self):
        doc = {
            "verdict": self.verdict,
            "extremal_eig": self.extremal_eig,
            "tol": self.tol_used,
            "scale": self.scale,
            "witness": None if self.witness is None else [float(x) for x in np.atleast_1d(self.witness)],
            "grid": None if self.grid is None else [float(x) for x in np.atleast_1d(self.grid)],
        }
        if self.h is not None:
            doc["h"] = self.h
        return doc


@dataclass(frozen=True)
class QuotientSpace:
    """Quotient of the RKHS by the reflected-kernel null space."""

    gram_tau: np.ndarray
    rank: int
    null_dim: int
    q_gram_eigvals: np.ndarray


def _check_points(points, sort=True):
    """The points as a nonempty 1-d array of finite floats, sorted and
    distinct unless ``sort`` is False, which keeps the caller's order."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 1 or pts.size == 0:
        raise ValueError("points must be a nonempty 1-d array")
    if not np.all(np.isfinite(pts)):
        raise NonFiniteEntry("grid points must be finite")
    if sort and not np.all(np.diff(pts) > 0):
        pts = np.sort(pts)
        if np.any(np.diff(pts) == 0):
            raise ValueError("grid points must be distinct")
    return pts


def _kernel_gram(f, pts, args, kind):
    """The Gram of f at args, with the entry bounds of a handle's ``bounds_at``
    (served from the batch just evaluated) or zeros for a plain callable."""
    return KernelGram(pts, f(args), kind, getattr(f, "bounds_at", np.zeros_like)(args))


def gram_plus(f, points):
    """Gram of the kernel f((x+y)/2) on the given points."""
    pts = _check_points(points)
    return _kernel_gram(f, pts, 0.5 * (pts[:, None] + pts[None, :]), "plus")


def gram_minus(f, points):
    """Gram of the kernel f(|x-y|/2); symmetric by construction.

    Evenness of ``f`` is a separate check (the reflection module does it);
    building from |x-y| keeps the matrix symmetric for any input.
    """
    pts = _check_points(points)
    return _kernel_gram(f, pts, 0.5 * np.abs(pts[:, None] - pts[None, :]), "minus")


def window_gram(f, points):
    """Gram of the kernel that fits the window of the points.

    Points reaching below 0 get the difference kernel (``gram_minus``, the group sense on
    symmetric windows), others the sum kernel (``gram_plus``, the transform sense; {0} gets
    f(0) from either); ``kind`` records which, and that builder alone validates the points.
    """
    below = np.min(np.asarray(points, dtype=np.float64), initial=0.0) < 0
    return (gram_minus if below else gram_plus)(f, points)


def gram_custom(k2, points):
    """Gram of a general two-variable kernel k2(x, y)."""
    pts = _check_points(points)
    entries = np.asarray(k2(pts[:, None], pts[None, :]), dtype=np.float64)
    return KernelGram(pts, entries, "custom")


def _as_matrix(G):
    """The entries of a square Gram and its points (None for a plain matrix)."""
    if isinstance(G, KernelGram):
        M, pts = G.entries, G.points
    else:
        M, pts = np.asarray(G, dtype=np.float64), None
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("Gram must be square")
    return M, pts


def _decide(stat, tol, scale=1.0, upper=False):
    """The one verdict rule: PASS when ``stat`` >= -tol*scale (<= tol*scale
    when ``upper``), else FAIL.  A tie passes and a NaN fails."""
    return PASS if (stat <= tol * scale if upper else stat >= -tol * scale) else FAIL


def _extremal(M, tol, scale, pick, lam=None):
    """Values first, vectors on FAIL: (verdict, value, witness) of eigenvalue ``pick`` of
    symmetric M (0 smallest, a lower limit; -1 largest, an upper one), or of ``lam`` from
    ``eigvalsh``; a FAIL is decided again on eigh's, with its eigenvector if it fails too."""
    upper = pick == -1
    lam = float(np.linalg.eigvalsh(M)[pick] if lam is None else lam)
    verdict = _decide(lam, tol, scale, upper)
    if verdict != FAIL:
        return verdict, lam, None
    vals, vecs = np.linalg.eigh(M)
    lam = float(vals[pick])
    verdict = _decide(lam, tol, scale, upper)
    return verdict, lam, vecs[:, pick].copy() if verdict == FAIL else None


def _scale(M):
    return max(1.0, float(np.abs(M).max())) if M.size else 1.0


def combine(verdicts):
    """FAIL if any verdict (a string or an object with ``.verdict``) failed,
    else INCONCLUSIVE if any was, else PASS."""
    seen = {getattr(v, "verdict", v) for v in verdicts}
    if FAIL in seen:
        return FAIL
    if INCONCLUSIVE in seen:
        return INCONCLUSIVE
    return PASS


def _symmetrize(M):
    """(M + M^T)/2 of a square M, or of each matrix of a stack: the halved sum,
    halved first only where the sum overflows (which, used always, would
    flush subnormals); a finite M gives a finite result."""
    T = M.swapaxes(-1, -2)
    with np.errstate(over="ignore"):
        S = M + T
        S *= 0.5
    return S if np.isfinite(S).all() else np.where(np.isfinite(S), S, 0.5 * M + 0.5 * T)


def _symmetric(G, tol):
    """The symmetrized matrix of a square finite Gram, its points and the tol."""
    M, pts = _as_matrix(G)
    if not np.all(np.isfinite(M)):
        raise NonFiniteEntry("Gram matrix contains non-finite entries")
    return _symmetrize(M), pts, resolve_tol(tol, M.shape[0])


def psd_check(G, tol=None):
    """PASS iff the smallest eigenvalue is >= -tol*scale.

    FAIL carries the minimizing eigenvector as witness; entries must be
    finite (``NonFiniteEntry`` otherwise).  scale = max(1, max|G_ij|).
    """
    M, pts, tol = _symmetric(G, tol)
    scale = _scale(M)
    verdict, lam_min, w = _extremal(M, tol, scale, 0)
    return PositivityVerdict(verdict, lam_min, tol, scale, w, pts)


def cnd_check(G, tol=None):
    """Conditional negative definiteness: lambda_max(P G P) <= tol*scale.

    P is the centering projector I - (1/n) 11^T, so only vectors with zero
    coordinate sum are probed.  FAIL carries the centered maximizing
    eigenvector as witness.
    """
    M, pts, tol = _symmetric(G, tol)
    n = M.shape[0]
    P = np.eye(n) - np.full((n, n), 1.0 / n)
    scale = _scale(M)
    verdict, lam_max, w = _extremal(_symmetrize(P @ M @ P), tol, scale, -1)
    if w is not None:
        w = P @ w
        w /= np.linalg.norm(w)
    return PositivityVerdict(verdict, lam_max, tol, scale, w, pts)


def schoenberg_scan(gram, hs=None, tol=None):
    """Check that exp(-h*G) is PSD for every h in hs, on a Gram G of psi
    (a KernelGram, or a plain matrix with grid None).

    PASS requires every h to pass; otherwise the verdict of the first h that
    does not pass is reported with that h (and, on FAIL, its witness).
    Non-finite base entries give INCONCLUSIVE; an overflowing exp(-h*G)
    raises ``NonFiniteEntry`` unless an earlier h did not pass.  One
    ``eigvalsh`` call decides the stack of h before the first overflow.
    ``hs`` (default 2**-k, k = 0..10) must be a nonempty list of finite h > 0.
    """
    if hs is None:
        hs = [2.0**-k for k in range(11)]
    hs = [float(h) for h in hs]
    if not hs or not all(math.isfinite(h) and h > 0 for h in hs):
        raise ValueError("Schoenberg exponents must be a nonempty list of finite h > 0")
    base, pts = _as_matrix(gram)
    tol = resolve_tol(tol, base.shape[0])
    if not np.all(np.isfinite(base)):
        return PositivityVerdict(INCONCLUSIVE, math.nan, tol, math.nan, None, pts)
    with np.errstate(over="ignore"):
        E = np.multiply(-np.array(hs)[:, None, None], base)
        np.exp(E, out=E)
    E = _symmetrize(E)
    finite = np.isfinite(E).all(axis=(1, 2))
    k = len(hs) if finite.all() else int(np.argmin(finite))
    lams = np.linalg.eigvalsh(E[:k])[:, 0]
    scales = np.max(E[:k], axis=(1, 2), initial=1.0)  # entries are >= 0
    for i in range(k):
        scale = float(scales[i])
        verdict, lam, w = _extremal(E[i], tol, scale, 0, lams[i])
        if verdict != PASS:
            return PositivityVerdict(verdict, lam, tol, scale, w, pts, h=hs[i])
    if k < len(hs):
        raise NonFiniteEntry("Gram matrix contains non-finite entries")
    return PositivityVerdict(PASS, min((lams / scales).tolist()), tol, 1.0, None, pts)


def schoenberg_check(psi, points, hs=None, tol=None):
    """``schoenberg_scan`` on the Gram of ``psi`` that fits the window of the
    points (``window_gram``)."""
    return schoenberg_scan(window_gram(psi, points), hs, tol)


def quotient_space(K, tau_pairing, plus_indices, tol=None):
    """Quotient construction for a reflection tau acting on the sample points.

    ``tau_pairing[i]`` is the index of the reflected point tau(x_i); the
    reflected kernel K^tau(x, y) = K(tau x, y) restricted to ``plus_indices``
    is the Gram of the quotient map q, since <q(K_x), q(K_y)> = K^tau(x, y).
    Requires K PSD and K tau-invariant (K^tau symmetric); a negative
    direction raises ``NotReflectionPositive`` with the witness.  Eigenvalues
    of the quotient Gram split its dimension into rank + null_dim.
    """
    M, _ = _as_matrix(K)
    n = M.shape[0]
    tau = np.asarray(tau_pairing, dtype=np.int64)
    if tau.shape != (n,):
        raise IndexError("tau_pairing must map every sample index")
    if np.any(tau < 0) or np.any(tau >= n):
        raise IndexError("tau_pairing index out of range")
    idx = np.asarray(plus_indices, dtype=np.int64)
    if idx.size == 0 or np.any(idx < 0) or np.any(idx >= n):
        raise IndexError("plus_indices out of range")
    tol = resolve_tol(tol, idx.size)
    base = psd_check(M, tol)
    if not base.passed:
        raise ValueError("base kernel Gram is not positive semidefinite")
    gram_tau = M[np.ix_(tau[idx], idx)]
    asym = float(np.abs(gram_tau - gram_tau.T).max()) if gram_tau.size else 0.0
    if _decide(asym, tol, _scale(gram_tau), upper=True) == FAIL:
        raise ValueError("kernel is not invariant under the reflection pairing")
    gram_tau = _symmetrize(gram_tau)
    vals = np.linalg.eigvalsh(gram_tau)
    scale = _scale(gram_tau)
    verdict, lam, w = _extremal(gram_tau, tol, scale, 0, vals[0])
    if verdict == FAIL:
        raise NotReflectionPositive(
            "reflected kernel has a negative direction", witness=w, extremal_eig=lam)
    rank = int(np.sum(vals > tol * scale))
    return QuotientSpace(gram_tau, rank, int(vals.size - rank), vals)
