"""Gram construction and definiteness verdicts on hand-checkable matrices."""
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import posdefkit as pk
from posdefkit import cli
from posdefkit import diffcalc as dc
from posdefkit import funcs as fns
from posdefkit import kernelcheck as kc
from posdefkit import levykhin as lk


def laplace_closure(lams, ws):
    lams = np.asarray(lams, dtype=np.float64)
    ws = np.asarray(ws, dtype=np.float64)

    def f(s):
        s = np.asarray(s, dtype=np.float64)
        flat = s.ravel()
        out = (ws[None, :] * np.exp(-np.outer(flat, lams))).sum(axis=1)
        return out.reshape(s.shape)

    return fns.from_callable(f)


def test_psd_small_oracles():
    good = np.array([[2.0, 1.0], [1.0, 2.0]])
    v = kc.psd_check(good)
    assert v.verdict == kc.PASS
    assert v.extremal_eig == pytest.approx(1.0)

    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    v = kc.psd_check(bad)
    assert v.verdict == kc.FAIL
    assert v.witness is not None
    c = np.asarray(v.witness)
    # witness certifies the violation beyond tolerance
    assert c @ bad @ c < -v.tol_used * v.scale


def test_psd_scale_invariance():
    G = np.array([[1.0, 0.999999], [0.999999, 1.0]])
    verdicts = {kc.psd_check(s * G).verdict for s in (1e-8, 1.0, 1e8)}
    assert verdicts == {kc.PASS}
    # violation must clear the absolute floor in scale = max(1, max|G|)
    H = np.array([[1.0, 2.0], [2.0, 1.0]])
    verdicts = {kc.psd_check(s * H).verdict for s in (1e-8, 1.0, 1e8)}
    assert verdicts == {kc.FAIL}


def test_cnd_oracles():
    pts = np.array([-1.0, 0.0, 2.0, 3.5])
    D = np.abs(pts[:, None] - pts[None, :])
    assert kc.cnd_check(D).verdict == kc.PASS
    # identity is not cnd: centering leaves a positive direction
    v = kc.cnd_check(np.eye(4))
    assert v.verdict == kc.FAIL
    c = np.asarray(v.witness)
    assert abs(c.sum()) <= 1e-8
    assert c @ np.eye(4) @ c > v.tol_used * v.scale


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_neg_psd_is_cnd(seed):
    # -G is conditionally negative definite whenever G is psd
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(6, 6))
    G = A @ A.T
    assert kc.psd_check(G).verdict == kc.PASS
    assert kc.cnd_check(-G).verdict == kc.PASS


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_transform_plus_kernel_psd(seed):
    # f = L(mu) has f((x+y)/2) psd on any window where it converges
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    f = laplace_closure(rng.uniform(-2.0, 3.0, m), rng.uniform(0.1, 2.0, m))
    pts = fns.chebyshev_grid(0.1, 3.0, 10)
    G = kc.gram_plus(f, pts)
    assert G.entries.shape == (10, 10)
    np.testing.assert_array_equal(G.entries, G.entries.T)
    assert kc.psd_check(G).verdict == kc.PASS


def test_gram_minus_matches_direct():
    f = fns.from_callable(lambda s: np.exp(-np.abs(s)))
    pts = np.array([-1.0, 0.5, 2.0])
    G = kc.gram_minus(f, pts)
    want = np.exp(-np.abs(pts[:, None] - pts[None, :]) / 2.0)
    np.testing.assert_allclose(G.entries, want, rtol=1e-15)


def test_window_gram_picks_kernel_by_sign():
    f = lambda t: np.exp(-np.abs(t))
    sym = kc.window_gram(f, [-1.0, 0.5, 2.0])
    assert sym.kind == "minus"
    np.testing.assert_array_equal(sym.entries, kc.gram_minus(f, [-1.0, 0.5, 2.0]).entries)
    half = kc.window_gram(f, [0.0, 0.5, 2.0])
    assert half.kind == "plus"
    np.testing.assert_array_equal(half.entries, kc.gram_plus(f, [0.0, 0.5, 2.0]).entries)


@pytest.mark.parametrize("points", [[2.0, -1.0, 0.5], [0.0, 2.0, 0.5]], ids=["minus", "plus"])
def test_window_gram_validates_its_points_once(monkeypatch, points):
    seen = []
    check = kc._check_points
    monkeypatch.setattr(kc, "_check_points", lambda p, sort=True: seen.append(p) or check(p, sort))
    G = kc.window_gram(lambda t: np.exp(-np.abs(t)), points)
    assert len(seen) == 1
    np.testing.assert_array_equal(G.points, np.sort(points))


@pytest.mark.parametrize("points, error", [
    ([], ValueError), ([[-1.0, 1.0]], ValueError), ([-1.0, -1.0], ValueError),
    ([-1.0, math.nan], pk.NonFiniteEntry), ([math.nan, 1.0], pk.NonFiniteEntry),
], ids=["empty", "2d", "repeated", "nan_minus", "nan_plus"])
def test_window_gram_rejects_what_its_builders_reject(points, error):
    with pytest.raises(error):
        kc.window_gram(lambda t: np.exp(-np.abs(t)), points)


def test_gram_custom():
    pts = np.array([0.5, 1.0, 2.0])
    G = kc.gram_custom(lambda x, y: np.minimum(x, y), pts)
    assert kc.psd_check(G).verdict == kc.PASS
    with pytest.raises(ValueError):
        kc.psd_check(np.ones((2, 3)))


def test_grams_carry_the_entry_bounds_of_a_handle():
    pts = fns.chebyshev_grid(0.1, 3.0, 6)
    h = lk.bernstein_handle(pk.get("log1p").lk_data)
    plus = kc.gram_plus(h, pts)
    assert plus.bounds.tobytes() == h.bounds_at(0.5 * np.add.outer(pts, pts)).tobytes()
    assert np.all(plus.bounds > 0.0)
    even = lk.reflection_negative_handle(pk.get("abs_power", alpha=0.5).lk_data)
    minus = kc.gram_minus(even, pts)
    args = 0.5 * np.abs(np.subtract.outer(pts, pts))
    assert minus.bounds.tobytes() == even.bounds_at(args).tobytes()
    for f in (pk.get("log1p").func, lambda t: np.log1p(t)):
        for gram in (kc.gram_plus(f, pts), kc.gram_minus(f, pts)):
            assert gram.bounds.tobytes() == np.zeros((6, 6)).tobytes()
    custom = kc.gram_custom(lambda x, y: np.minimum(x, y), pts)
    assert custom.bounds.tobytes() == np.zeros((6, 6)).tobytes()


@pytest.mark.parametrize(
    "alpha,want",
    [(1.0, kc.PASS), (2.0, kc.PASS), (2.5, kc.FAIL)],
)
def test_schoenberg_minus_power(alpha, want):
    # |t|^alpha is cnd on R exactly for alpha <= 2
    f = fns.from_callable(lambda s, a=alpha: np.abs(s) ** a)
    grid = fns.chebyshev_grid(-2.0, 2.0, 12)
    v = kc.schoenberg_check(f, grid)
    assert v.verdict == want
    if want == kc.FAIL:
        assert v.h is not None and v.witness is not None


def test_schoenberg_plus_linear():
    # exp(-h t) is a rank-one plus kernel, psd for every h
    f = fns.from_callable(lambda s: np.asarray(s, dtype=np.float64))
    v = kc.schoenberg_check(f, fns.chebyshev_grid(0.1, 4.0, 10))
    assert v.verdict == kc.PASS


def test_schoenberg_cnd_consistency():
    # psi cnd on the plus kernel gives exp(-h psi) psd for each h in the scan
    f = laplace_closure([0.5, 1.5], [1.0, 0.7])
    pts = fns.chebyshev_grid(0.2, 3.0, 8)
    G = kc.gram_plus(fns.from_callable(lambda s: -f.fn(s)), pts)
    assert kc.cnd_check(G.entries).verdict == kc.PASS
    v = kc.schoenberg_check(fns.from_callable(lambda s: -f.fn(s)), pts)
    assert v.verdict == kc.PASS


@pytest.mark.parametrize("hs", [[], [-1.0], [0.0], [float("nan")], [float("inf")], [0.5, -0.5]])
def test_schoenberg_rejects_bad_exponents(hs):
    f = fns.from_callable(lambda s: np.asarray(s, dtype=np.float64))
    with pytest.raises(ValueError):
        kc.schoenberg_check(f, fns.chebyshev_grid(0.1, 4.0, 6), hs=hs)


@pytest.mark.parametrize(
    "verdicts,want",
    [
        ((), kc.PASS),
        ((kc.PASS,), kc.PASS),
        ((kc.PASS, kc.PASS), kc.PASS),
        ((kc.INCONCLUSIVE,), kc.INCONCLUSIVE),
        ((kc.PASS, kc.INCONCLUSIVE), kc.INCONCLUSIVE),
        ((kc.FAIL,), kc.FAIL),
        ((kc.PASS, kc.FAIL), kc.FAIL),
        ((kc.INCONCLUSIVE, kc.FAIL), kc.FAIL),
        ((kc.FAIL, kc.INCONCLUSIVE, kc.PASS), kc.FAIL),
    ],
)
def test_combine_truth_table(verdicts, want):
    assert kc.combine(verdicts) == want
    # objects carrying .verdict combine the same way as the strings
    objs = [kc.PositivityVerdict(v, 0.0, 1e-9, 1.0) for v in verdicts]
    assert kc.combine(iter(objs)) == want


def test_default_tol_scales_with_n():
    assert kc.default_tol(1) == pytest.approx(1e-9)
    assert kc.default_tol(64) == pytest.approx(64e-9)


def test_verdict_serialization():
    v = kc.psd_check(np.array([[1.0, 2.0], [2.0, 1.0]]))
    d = v.to_dict()
    assert d["verdict"] == "FAIL"
    assert isinstance(d["witness"], list)
    assert d["scale"] >= 1.0


def test_quotient_space_exponential():
    # os quotient of e^{-|x-y|}: K^tau(x,y) = e^{-(x+y)} has rank one
    pts = np.array([-1.5, -0.5, 0.5, 1.5])
    K = np.exp(-np.abs(pts[:, None] - pts[None, :]))
    tau = np.array([3, 2, 1, 0])
    qs = kc.quotient_space(K, tau, plus_indices=np.array([2, 3]))
    assert qs.rank == 1
    assert qs.null_dim == 1
    assert qs.rank + qs.null_dim == 2
    assert np.min(qs.q_gram_eigvals) >= -kc.default_tol(2)


def test_quotient_space_rejects_gaussian():
    # e^{-(x+y)^2} is not a psd pairing on the half line
    pts = np.array([-1.5, -0.5, 0.5, 1.5])
    K = np.exp(-((pts[:, None] - pts[None, :]) ** 2))
    tau = np.array([3, 2, 1, 0])
    with pytest.raises(pk.NotReflectionPositive):
        kc.quotient_space(K, tau, plus_indices=np.array([2, 3]))


EPS = np.finfo(np.float64).eps


def _test_matrix(kind, n, seed):
    """A symmetric PSD, CND or indefinite matrix, or an asymmetric one."""
    rng = np.random.default_rng(seed)
    size = 10.0 ** rng.uniform(-2.0, 1.5)
    if kind == "psd":
        A = rng.normal(size=(n, n))
        return size * (A @ A.T) / n
    if kind == "cnd":
        x = rng.uniform(-3.0, 3.0, n)
        return size * np.abs(x[:, None] - x[None, :]) ** rng.uniform(0.2, 2.0)
    A = size * rng.normal(size=(n, n))
    return A if kind == "asym" else 0.5 * (A + A.T)


def _reference_scan(G, hs, tol):
    """Per-h full eigendecomposition of the symmetrized exp(-h*G), the rule
    the stacked scan must reproduce; also reports whether any decided
    eigenvalue lay within rounding of the threshold."""
    n, worst, near = G.shape[0], math.inf, False
    for h in hs:
        E = np.exp(-h * G)
        if not np.all(np.isfinite(E)):
            return "raise", None, None, None, None, near
        M = 0.5 * (E + E.T)
        vals, vecs = np.linalg.eigh(M)
        lam, scale = float(vals[0]), max(1.0, float(np.abs(M).max()))
        near |= abs(lam + tol * scale) <= 4 * n * EPS * scale
        worst = min(worst, lam / scale)
        if lam < -tol * scale:
            return kc.FAIL, lam, vecs[:, 0], h, scale, near
    return kc.PASS, worst, None, None, 1.0, near


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 16),
    kind=st.sampled_from(["psd", "cnd", "indefinite", "asym"]),
    seed=st.integers(0, 2**32 - 1),
    hs=st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=8),
)
def test_schoenberg_scan_matches_per_h_eigh(n, kind, seed, hs):
    G = _test_matrix(kind, n, seed)
    tol = kc.default_tol(n)
    with np.errstate(over="ignore"):
        verdict, lam, witness, h, scale, near = _reference_scan(G, hs, tol)
    assume(not near)
    if verdict == "raise":
        with pytest.raises(pk.NonFiniteEntry):
            kc.schoenberg_scan(G, hs)
        return
    v = kc.schoenberg_scan(G, hs)
    assert (v.verdict, v.h, v.scale) == (verdict, h, scale)
    assert v.grid is None
    if verdict == kc.FAIL:
        assert v.extremal_eig == lam
        np.testing.assert_array_equal(v.witness, witness)
    else:
        assert abs(v.extremal_eig - lam) <= n * EPS
        assert v.witness is None


@pytest.mark.parametrize("seed", range(6))
def test_fail_witness_is_eigh_bit_for_bit(seed):
    G = _test_matrix("asym", 7, seed)
    M = 0.5 * (G + G.T)
    vals, vecs = np.linalg.eigh(M)
    v = kc.psd_check(G)
    assert v.verdict == kc.FAIL and v.extremal_eig == vals[0]
    np.testing.assert_array_equal(v.witness, vecs[:, 0])

    P = np.eye(7) - np.full((7, 7), 1.0 / 7)
    C = P @ M @ P
    vals, vecs = np.linalg.eigh(0.5 * (C + C.T))
    w = P @ vecs[:, -1]
    w /= np.linalg.norm(w)
    v = kc.cnd_check(G)
    assert v.verdict == kc.FAIL and v.extremal_eig == vals[-1]
    np.testing.assert_array_equal(v.witness, w)


def test_schoenberg_scan_reads_a_plain_matrix():
    # the identity is not cnd, so exp(-h I) fails at the first h
    v = kc.schoenberg_scan(np.eye(3))
    assert v.verdict == kc.FAIL and v.h == 1.0 and v.grid is None
    # exp(h I) is diagonally dominant; all-ones is rank one
    assert kc.schoenberg_scan(-np.eye(3), [0.5]).verdict == kc.PASS
    assert kc.schoenberg_scan(np.zeros((2, 2))).verdict == kc.PASS
    with pytest.raises(ValueError, match="square"):
        kc.schoenberg_scan(np.ones((2, 3)))


def test_schoenberg_overflow_order():
    x = np.linspace(0.0, 1.0, 4)
    D = np.abs(x[:, None] - x[None, :])
    # D - 1000 is cnd; exp(-h*(D - 1000)) passes until it overflows at h = 1
    with pytest.raises(pk.NonFiniteEntry, match="non-finite"):
        kc.schoenberg_scan(D - 1000.0, [0.01, 0.1, 1.0, 0.02])
    # -D - 1000 fails at h = 0.5, before the overflow at h = 1 is reached
    v = kc.schoenberg_scan(-D - 1000.0, [0.5, 1.0])
    assert v.verdict == kc.FAIL and v.h == 0.5
    with pytest.raises(pk.NonFiniteEntry):
        kc.schoenberg_scan(-D - 1000.0, [1.0, 0.5])


def test_passing_checks_compute_no_eigenvectors(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(M):
        calls.append(np.shape(M))
        return eigvalsh(M)

    def no_eigh(M):
        raise AssertionError("eigh called on a PASS")

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    pts = np.array([-1.5, -0.5, 0.5, 1.5])
    D = np.abs(pts[:, None] - pts[None, :])
    assert kc.psd_check(np.exp(-D)).verdict == kc.PASS
    assert kc.cnd_check(D).verdict == kc.PASS
    calls.clear()
    assert kc.schoenberg_scan(kc.gram_minus(np.abs, pts)).verdict == kc.PASS
    assert calls == [(11, 4, 4)]
    qs = kc.quotient_space(np.exp(-D), np.array([3, 2, 1, 0]), plus_indices=np.array([2, 3]))
    assert qs.rank == 1


def test_huge_finite_gram_gets_a_finite_verdict():
    # M + M.T overflows here; the halves do not
    M = np.array([[1e308, 0.0], [0.0, 1.0]])
    v = kc.psd_check(M)
    assert v.verdict == kc.PASS
    assert (v.extremal_eig, v.scale) == (1.0, 1e308)
    v = kc.cnd_check(M)
    assert v.verdict == kc.FAIL
    assert math.isfinite(v.extremal_eig) and v.scale == 1e308
    np.testing.assert_allclose(np.abs(v.witness), [2**-0.5, 2**-0.5], rtol=1e-15)
    # a centered rank-one Gram whose centered matrix C also has C + C.T overflow
    w = np.full(10, -0.1)
    w[0] = 0.9
    M = (1.5e308 / 0.9) * np.outer(w, w)
    assert M[0, 0] > 0.5 * np.finfo(float).max
    assert kc.psd_check(M).verdict == kc.PASS
    v = kc.cnd_check(M)
    assert v.verdict == kc.FAIL
    assert v.extremal_eig == pytest.approx(1.5e308, rel=1e-12)
    np.testing.assert_allclose(np.abs(v.witness), np.abs(w) / np.linalg.norm(w), rtol=1e-12)


def test_symmetrize_keeps_the_bits_of_the_plain_mean():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(5, 5))
    M[0, 1] = M[1, 0] = 5e-324
    M[2, 3] = 1e300
    S = kc._symmetrize(M)
    np.testing.assert_array_equal(S, 0.5 * (M + M.T))
    # halving first would flush the subnormal: 0.5 * 5e-324 == 0
    assert S[0, 1] == S[1, 0] == 5e-324


def test_symmetrize_halves_first_only_where_the_sum_overflows():
    M = np.array([[1.5e308, 5e-324], [5e-324, 1.0]])
    S = kc._symmetrize(np.stack([M, M.T]))
    np.testing.assert_array_equal(S, [M, M])


def test_schoenberg_scan_takes_a_finite_exp_above_half_the_largest_double():
    # exp(709.5) = 1.35e308 is finite, yet the sum of E and E.T overflows there
    G = np.array([[-709.5, 0.0], [0.0, 0.0]])
    assert kc.psd_check(np.exp(-G)).verdict == kc.PASS
    assert kc.schoenberg_scan(G, [1.0]).verdict == kc.PASS


_F = pk.get("exp_decay").func
_GRID = fns.chebyshev_grid(0.2, 2.0, 6)
_PUBLIC_CHECKS = {
    "psd_check": lambda tol: pk.psd_check(np.eye(2), tol),
    "cnd_check": lambda tol: pk.cnd_check(np.eye(2), tol),
    "schoenberg_scan": lambda tol: kc.schoenberg_scan(np.eye(2), None, tol),
    "schoenberg_check": lambda tol: pk.schoenberg_check(_F, _GRID, tol=tol),
    "quotient_space": lambda tol: pk.quotient_space(np.eye(2), [1, 0], [0], tol),
    "completely_monotone_check": lambda tol: pk.completely_monotone_check(_F, _GRID, tol=tol),
    "bernstein_check": lambda tol: pk.bernstein_check(_F, _GRID, tol=tol),
    "hankel_check": lambda tol: pk.hankel_check(_F, 1.0, 2, tol=tol),
    "convex_decreasing_check": lambda tol: pk.convex_decreasing_check(_F, _GRID, tol),
    "polya_check": lambda tol: pk.polya_check(_F, _GRID, tol),
    "reflection_positive_check":
        lambda tol: pk.reflection_positive_check(pk.get("green").func, 1.0, 6, tol),
    "reflection_negative_check":
        lambda tol: pk.reflection_negative_check(pk.get("abs_power").func, 1.0, 6, None, tol),
    "extendable_check": lambda tol: pk.extendable_check(pk.get("power", alpha=2.0).func, 1.0, tol),
    "boundary_derivative_check":
        lambda tol: pk.boundary_derivative_check(pk.Measure(atoms=((1.0, 1.0),)), 1.0, 6, tol),
    "check_flag": lambda tol: pk.catalog.check_flag(pk.get("log1p"), "negative_definite", tol=tol),
}


@pytest.mark.parametrize("check", list(_PUBLIC_CHECKS))
@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_every_check_rejects_a_bad_tol(check, tol):
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        _PUBLIC_CHECKS[check](tol)


@pytest.mark.parametrize("check", list(_PUBLIC_CHECKS))
def test_every_check_takes_a_good_tol_and_the_default(check):
    _PUBLIC_CHECKS[check](1e-8)
    _PUBLIC_CHECKS[check](None)


# a power of two, so each limit below and the statistic the check computes
# at it are exact
TIE_TOL = 2.0**-10


def _psd_at(stat):
    """psd_check of a Gram with smallest eigenvalue ``stat``, on scale 4."""
    return kc.psd_check(np.diag([4.0, stat]), TIE_TOL)


def _cnd_at(stat):
    """cnd_check of a Gram with centered largest eigenvalue ``stat``, on scale 1."""
    return kc.cnd_check(np.array([[0.0, -stat], [-stat, 0.0]]), TIE_TOL)


def _convex_at(stat):
    """convex_decreasing_check of a function that rises by -``stat``, on scale 1."""
    f = fns.from_callable(lambda t: np.interp(t, [0.0, 1.0, 2.0], [0.0, -stat, -stat]))
    return dc.convex_decreasing_check(f, [0.0, 1.0, 2.0], TIE_TOL)


@pytest.mark.parametrize("check, limit", [
    (_psd_at, -4.0 * TIE_TOL), (_cnd_at, TIE_TOL), (_convex_at, -TIE_TOL)])
def test_a_statistic_at_its_limit_passes_and_one_ulp_beyond_fails(check, limit):
    at = check(limit)
    assert (at.extremal_eig, at.verdict) == (limit, kc.PASS)
    beyond = float(np.nextafter(limit, math.copysign(math.inf, limit)))
    out = check(beyond)
    assert (out.extremal_eig, out.verdict) == (beyond, kc.FAIL)
    assert out.witness is not None


# One verdict channel: a check reports the verdict ``_decide`` returned, and
# only a FAIL carries a witness.  Each input below fails under the real rule.
_SQUARE = fns.from_callable(lambda t: np.asarray(t) ** 2, domain=(0.0, math.inf))
_GRID = fns.chebyshev_grid(0.1, 3.0, 10)
_WINDOW = fns.chebyshev_grid(0.2, 3.0, 12)
_FAILING_CHECKS = {
    "psd_check": lambda: kc.psd_check(kc.window_gram(pk.get("ratio").func, _WINDOW)),
    "cnd_check": lambda: kc.cnd_check(kc.window_gram(pk.get("cosh").func, _WINDOW)),
    "schoenberg_scan": lambda: kc.schoenberg_scan(kc.window_gram(pk.get("cosh").func, _WINDOW)),
    "bernstein_check": lambda: dc.bernstein_check(_SQUARE, _GRID),
    "hankel_check": lambda: dc.hankel_check(_SQUARE, 1.0, 2),
    "completely_monotone_check": lambda: dc.completely_monotone_check(_SQUARE, _GRID),
    "convex_decreasing_check": lambda: dc.convex_decreasing_check(_SQUARE, _GRID),
    "polya_check": lambda: pk.polya_check(_SQUARE, _GRID),
    "reflection_positive_check": lambda: pk.reflection_positive_check(pk.get("cosh").func, 1.0),
    "reflection_negative_check": lambda: pk.reflection_negative_check(
        pk.get("abs_power", alpha=1.5).func, math.inf),
}


def _routes(v):
    """A verdict, or every route verdict of a reflection report."""
    if not hasattr(v, "minus_verdict"):
        return [v]
    routes = (v.minus_verdict, v.plus_verdict, v.schoenberg_minus, v.schoenberg_plus,
              v.bernstein_verdict)
    return [r for r in routes if r is not None]


def _undecide(monkeypatch):
    """Every module's ``_decide`` binding answers INCONCLUSIVE."""
    for module in (kc, dc, pk.reflection, lk):
        monkeypatch.setattr(module, "_decide", lambda *args, **kwargs: kc.INCONCLUSIVE)


@pytest.mark.parametrize("name", sorted(_FAILING_CHECKS))
def test_an_undecided_check_is_inconclusive_without_a_witness(monkeypatch, name):
    v = _FAILING_CHECKS[name]()
    assert v.verdict == kc.FAIL and any(r.witness is not None for r in _routes(v))
    _undecide(monkeypatch)
    v = _FAILING_CHECKS[name]()
    assert v.verdict == kc.INCONCLUSIVE
    assert all(r.verdict == kc.INCONCLUSIVE and r.witness is None for r in _routes(v))


def _witnesses(doc):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from [value] if key == "witness" else _witnesses(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _witnesses(value)


@pytest.mark.parametrize("argv", [
    ["check-pd", "--function", "catalog:ratio"],
    ["check-nd", "--function", "catalog:cosh"],
    ["check-rp", "--function", "catalog:cosh", "--a", "1"],
    ["check-rn", "--function", "catalog:abs_power", "--alpha", "1.5", "--a", "2", "--points", "6"],
    ["check-cm", "--function", "catalog:log1p"],
    ["check-bernstein", "--function", "catalog:cosh"],
    ["hankel", "--function", "catalog:cosh", "--shifted"],
    ["polya", "--function", "catalog:cosh"],
], ids=lambda argv: argv[0])
def test_an_undecided_subcommand_exits_inconclusive(monkeypatch, capsys, argv):
    assert cli.main([*argv, "--json"]) == 1
    assert any(w is not None for w in _witnesses(json.loads(capsys.readouterr().out)))
    _undecide(monkeypatch)
    assert cli.main([*argv, "--json"]) == 3
    witnesses = list(_witnesses(json.loads(capsys.readouterr().out)))
    assert witnesses and all(w is None for w in witnesses)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 8),
    kind=st.sampled_from(["psd", "cnd", "indefinite"]),
    seed=st.integers(0, 2**32 - 1),
    tol=st.one_of(st.none(), st.floats(1e-12, 10.0)),
)
def test_a_witness_comes_with_a_fail_and_the_verdict_with_its_eigenvalue(n, kind, seed, tol):
    G = _test_matrix(kind, n, seed)
    checks = [(kc.psd_check(G, tol), False), (kc.cnd_check(G, tol), True)]
    with np.errstate(over="ignore"):
        E = np.exp(-G)
    if np.isfinite(E).all():
        checks.append((kc.schoenberg_scan(G, [1.0, 0.25], tol), False))
    for v, upper in checks:
        assert (v.witness is not None) == (v.verdict == kc.FAIL)
        assert v.verdict == kc._decide(v.extremal_eig, v.tol_used, v.scale, upper)
