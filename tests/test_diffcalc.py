"""Finite differences, Richardson derivatives, and monotonicity checks."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posdefkit as pk
from posdefkit import diffcalc as dc
from posdefkit import funcs as fns
from posdefkit import levykhin as lk
from posdefkit import measure as msr


def handle(fn, domain=(-np.inf, np.inf)):
    return fns.from_callable(fn, domain=domain)


def test_delta_k_kills_low_degree():
    # alternating difference of order k annihilates polynomials below degree k
    f = handle(lambda t: 3.0 * t**2 - t + 2.0)
    assert abs(dc.delta_k(f, 0.5, 0.2, 3)) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_delta_k_leading_term(k):
    # sum_j (-1)^j C(k,j) f(t+j d) applied to t^k gives (-1)^k k! d^k
    f = handle(lambda t: t**k)
    d = 0.1
    want = (-1.0) ** k * math.factorial(k) * d**k
    assert dc.delta_k(f, 0.7, d, k) == pytest.approx(want, rel=1e-9, abs=0.0)


def test_delta_k_cm_sign():
    # for a completely monotone f every order comes out nonnegative
    f = handle(lambda t: np.exp(-t))
    for k in range(5):
        assert dc.delta_k(f, 1.0, 0.25, k) >= 0.0


@pytest.mark.parametrize("k,budget", [(1, 1e-9), (2, 1e-8), (3, 1e-6), (4, 1e-5)])
def test_derivative_richardson(k, budget):
    f = handle(lambda t: np.exp(-t))
    got = dc.derivative(f, 1.0, k)
    assert abs(got - (-1.0) ** k * math.exp(-1.0)) <= budget


def test_derivative_prefers_analytic():
    entry = pk.get("exp_decay")
    got = dc.derivative(entry.func, 2.0, 6)
    assert got == pytest.approx(math.exp(-2.0), rel=1e-14, abs=0.0)


def test_order_too_high():
    f = handle(lambda t: np.exp(-t))
    with pytest.raises(pk.OrderTooHigh):
        dc.derivative(f, 1.0, 99)
    with pytest.raises(pk.OrderTooHigh):
        dc.delta_k(f, 1.0, 0.1, 50)
    with pytest.raises(pk.OrderTooHigh):
        dc.completely_monotone_check(f, np.array([0.5, 1.0, 2.0]), k_max=40)


def test_completely_monotone_verdicts():
    grid = fns.chebyshev_grid(0.1, 4.0, 8)
    assert dc.completely_monotone_check(pk.get("exp_decay").func, grid).verdict == "PASS"
    recip = handle(lambda t: 1.0 / (1.0 + t), domain=(0.0, np.inf))
    assert dc.completely_monotone_check(recip, grid).verdict == "PASS"
    # increasing functions fail at the first difference
    v = dc.completely_monotone_check(pk.get("log1p").func, grid)
    assert v.verdict == "FAIL"
    assert v.witness is not None


def test_bernstein_verdicts():
    grid = fns.chebyshev_grid(0.1, 4.0, 8)
    assert dc.bernstein_check(pk.get("log1p").func, grid).verdict == "PASS"
    assert dc.bernstein_check(pk.get("power", alpha=0.5).func, grid).verdict == "PASS"
    square = handle(lambda t: t**2, domain=(0.0, np.inf))
    assert dc.bernstein_check(square, grid).verdict == "FAIL"
    assert dc.bernstein_check(pk.get("cosh").func, grid).verdict == "FAIL"


def test_hankel_exp():
    f = pk.get("exp_decay").func
    assert dc.hankel_check(f, 1.0, 3).verdict == "PASS"
    assert dc.hankel_check(f, 1.0, 3, shifted=True).verdict == "PASS"


def test_hankel_cosh_split():
    # two-sided transform: moment matrix fine, shifted moment matrix not
    f = pk.get("cosh").func
    assert dc.hankel_check(f, 1.0, 3).verdict == "PASS"
    v = dc.hankel_check(f, 1.0, 3, shifted=True)
    assert v.verdict == "FAIL"


def test_convex_decreasing_verdicts():
    sg = np.linspace(0.05, 2.0, 9)
    assert dc.convex_decreasing_check(pk.get("triangle").func, sg).verdict == "PASS"
    assert dc.convex_decreasing_check(pk.get("exp_decay").func, sg).verdict == "PASS"
    v = dc.convex_decreasing_check(pk.get("cosh").func, sg)
    assert v.verdict == "FAIL"
    assert v.witness is not None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_difference_tracks_derivative(seed):
    # delta_k / d^k approaches |f^(k)| as d shrinks
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(0.5, 2.0))
    f = handle(lambda t, a=a: np.exp(-a * t))
    t0 = float(rng.uniform(0.5, 1.5))
    for k in (1, 2, 3):
        vals = [dc.delta_k(f, t0, d, k) / d**k for d in (0.1, 0.05, 0.025)]
        want = a**k * math.exp(-a * t0)
        errs = [abs(v - want) for v in vals]
        assert errs[-1] < errs[0]
        assert errs[-1] <= 0.1 * abs(want)


def counting(fn, domain=(-np.inf, np.inf)):
    """A handle that records the argument of every call."""
    calls = []

    def counted(t):
        calls.append(np.array(t))
        return fn(t)

    return handle(counted, domain), calls


def three_call_derivative(f, t, k):
    """Richardson derivative with one call of f per step h0, 2h0, 4h0."""
    t = np.asarray(t, dtype=np.float64)
    h0 = dc._EPS ** (1.0 / (k + 6)) * np.maximum(1.0, np.abs(t))
    lo, hi = f.domain
    h0 = np.minimum(h0, 0.9 * np.minimum(t - lo, hi - t) / ((k / 2.0 + 0.01) * 4.0))
    coeff = np.array([(-1.0) ** j * math.comb(k, j) for j in range(k + 1)])

    def central(h):
        return np.asarray(f(t[..., None] + (k / 2.0 - np.arange(k + 1)) * h[..., None])) @ coeff / h**k

    d1, d2, d4 = central(h0), central(2 * h0), central(4 * h0)
    r1 = (4.0 * d1 - d2) / 3.0
    r2 = (4.0 * d2 - d4) / 3.0
    return (16.0 * r1 - r2) / 15.0


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("t", [0.03, 1.7, np.array([0.01, 0.4, 2.5, 40.0])])
def test_numeric_derivative_makes_one_call(k, t):
    f, calls = counting(np.log1p, domain=(0.0, np.inf))
    got = dc.derivative(f, t, k)
    assert len(calls) == 1
    want = three_call_derivative(f, t, k)
    assert np.array_equal(got, want)
    assert np.shape(got) == np.shape(t)


def reference_scan(f, grid, k_range, deltas, sign):
    """The per-stencil loop: one delta_k call per (t, delta, k), in that order."""
    margins = {}
    for t in grid:
        t = float(t)
        local = max(1.0, abs(f(t)))
        for d in deltas:
            d_eff = float(d) * max(1.0, abs(t))
            for k in k_range:
                margins.setdefault((t, d_eff, k), (sign * dc.delta_k(f, t, d_eff, k)) / local)
    return margins


def assert_scan_matches_reference(f, grid, k_range, deltas, tol, sign):
    worst, witness, failed = dc._difference_scan(f, grid, k_range, deltas, tol, sign)
    ref = reference_scan(f, grid, k_range, deltas, sign)
    ref_witness = min(ref, key=ref.get)  # first of the smallest, as a strict < scan keeps
    ref_worst = ref[ref_witness]
    # only the summation order of each difference may differ:
    # |error| <= (k+1) eps sum_j C(k,j) |f_j| <= (k+1) 2^k eps max |f|
    k_top = max(k_range)
    top = max(float(np.max(np.abs(f(t + d * max(1.0, abs(t)) * np.arange(k_top + 1)))))
              for t in grid for d in deltas)
    bound = 2.0 * (k_top + 1) * 2.0**k_top * dc._EPS * top
    assert abs(worst - ref_worst) <= bound
    if abs(ref_worst + tol) > bound:
        assert failed == (ref_worst < -tol)
    if failed:
        near = [key for key, m in ref.items() if m <= ref_worst + 2.0 * bound]
        assert witness == ref_witness if len(near) == 1 else witness in near
    else:
        assert witness is None
    return failed


CLOSED_FORMS = ["exp_decay", "neg_power", "log1p", "log", "power", "ratio",
                "one_minus_cexp", "neg_tlogt", "signed_power", "cosh"]


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(CLOSED_FORMS),
    grid=st.lists(st.floats(0.05, 6.0), min_size=1, max_size=10),
    deltas=st.lists(st.floats(1e-3, 0.3), min_size=1, max_size=3),
    k_max=st.integers(0, 6),
    sign=st.sampled_from([1.0, -1.0]),
    k_lo=st.integers(0, 1),
)
def test_batched_scan_matches_per_stencil_loop(name, grid, deltas, k_max, sign, k_lo):
    f = pk.get(name).func
    assert_scan_matches_reference(f, np.array(grid), range(k_lo, k_lo + k_max + 1), deltas, 1e-10, sign)


@pytest.mark.parametrize("name,sign,k_range,fails", [
    ("ratio", 1.0, range(5), True),       # Bernstein, so not completely monotone
    ("log1p", 1.0, range(5), True),
    ("cosh", 1.0, range(5), True),
    ("cosh", -1.0, range(1, 5), True),    # cosh' is not completely monotone
    ("exp_decay", 1.0, range(5), False),
    ("ratio", -1.0, range(1, 5), False),
])
def test_scan_refutations_match_per_stencil_loop(name, sign, k_range, fails):
    f = pk.get(name).func
    grid = fns.chebyshev_grid(-1.5 if name == "cosh" else 0.1, 4.0, 12)
    assert assert_scan_matches_reference(f, grid, k_range, dc.DEFAULT_DELTAS, 1e-10, sign) == fails


def test_stencil_leaving_the_domain_is_a_domain_error():
    f, calls = counting(lambda t: np.exp(-t), domain=(0.0, 1.0))
    with pytest.raises(pk.DomainError, match="^difference stencil leaves the function domain$"):
        dc.completely_monotone_check(f, np.array([0.2, 0.5, 0.95]), k_max=4)
    assert calls == []  # checked before any evaluation
    # a grid point outside the domain gets the handle's own message, as before
    with pytest.raises(pk.DomainError, match="evaluated outside its domain"):
        dc.completely_monotone_check(f, np.array([1.5, 0.2]), k_max=1)
    with pytest.raises(pk.DomainError, match="^difference stencil leaves the function domain$"):
        dc.bernstein_check(f, np.array([0.2, 0.9]), k_max=2)


def test_scan_on_a_synthesized_handle_is_one_quadrature(monkeypatch):
    psi = lk.bernstein_handle(pk.get("log1p").lk_data)
    calls = []
    integrate = msr.integrate_against

    def counted(*args, **kwargs):
        calls.append(1)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(msr, "integrate_against", counted)
    grid = fns.chebyshev_grid(0.1, 4.0, 6)
    v = dc.completely_monotone_check(psi, grid)
    assert len(calls) == 1
    assert v.verdict == "FAIL"  # log1p increases
    calls.clear()
    assert dc.bernstein_check(psi, grid).verdict == "PASS"
    assert len(calls) == 2  # psi on the grid, then the scan


def test_scan_ties_keep_the_first_stencil():
    # every k = 0 margin of f = -2 reads -1: the first (t, delta, k) is reported
    f = handle(lambda t: np.full_like(t, -2.0))
    grid = np.array([3.0, 0.5, 2.0])
    v = dc.completely_monotone_check(f, grid)
    assert v.verdict == "FAIL"
    assert v.extremal_eig == -1.0
    assert v.witness.tolist() == [3.0, 0.1 * 3.0, 0.0]
