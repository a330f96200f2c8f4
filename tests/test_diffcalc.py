"""Finite differences, Richardson derivatives, and monotonicity checks."""
import math

import numpy as np
import pytest

import posdefkit as pk
from posdefkit import diffcalc as dc
from posdefkit import funcs as fns


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
