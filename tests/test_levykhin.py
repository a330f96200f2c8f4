"""Elementary integrand kernels, representation fitting, and synthesis."""
import json
import math

import mpmath as mp
import numpy as np
import pytest

import posdefkit as pk
from posdefkit import _accel
from posdefkit import funcs as fns
from posdefkit import levykhin as lk
from posdefkit import measure as msr

mp.mp.dps = 40


def e_ref(lam, t, t0=0.0):
    u = mp.mpf(t) - mp.mpf(t0)
    lam = mp.mpf(lam)
    if lam == 0:
        return float(-(u**2) / 2)
    return float((1 - lam * u - mp.e ** (-lam * u)) / lam**2)


def f_ref(lam, t):
    lam = mp.mpf(lam)
    if lam == 0:
        return float(mp.mpf(t) - 1)
    return float((mp.e ** (-lam) - mp.e ** (-lam * mp.mpf(t))) / lam)


def test_e_lambda_closed_forms():
    assert lk.e_lambda(0.0, 3.0) == -4.5
    assert lk.e_lambda(1.0, 1.0) == pytest.approx(-math.exp(-1.0), rel=1e-15)
    # shift just translates the argument
    assert lk.e_lambda(0.7, 2.5, t0=1.0) == pytest.approx(lk.e_lambda(0.7, 1.5), rel=1e-15)


def test_f_lambda_closed_forms():
    assert lk.f_lambda(0.0, 4.0) == 3.0
    assert lk.f_lambda(2.0, 3.0) == pytest.approx((math.exp(-2.0) - math.exp(-6.0)) / 2.0, rel=1e-15)
    assert lk.f_lambda(1.0, 1.0) == 0.0


@pytest.mark.parametrize("lam", [1e-3, -1e-3, 1e-4, 5e-5, -5e-5, 1e-6, 1e-9])
@pytest.mark.parametrize("t", [0.3, 1.7, 3.0])
def test_series_switch_matches_reference(lam, t):
    # both kernels stay accurate straight through the small-lambda switch
    assert lk.e_lambda(lam, t) == pytest.approx(e_ref(lam, t), rel=1e-12)
    assert lk.f_lambda(lam, t) == pytest.approx(f_ref(lam, t), rel=1e-12)


def straddle_grid(u):
    # lambdas on both sides of |lam*u| = 1e-2 (Taylor switch) and 1 (form switch)
    scales = np.array([0.5, 0.9, 0.999, 1.001, 1.1, 2.0])
    mags = np.concatenate([s * scales for s in (1e-2, 1.0)]) / abs(u)
    return np.concatenate(([0.0], mags, -mags))


def e_damped_ref(lam, u, t0):
    lam, u, t0 = mp.mpf(lam), mp.mpf(u), mp.mpf(t0)
    if lam == 0:
        return float(-(u**2) / 2)
    return float((1 - lam * u - mp.e ** (-lam * u)) / lam**2 * mp.e ** (-lam * t0))


def e_dt_damped_ref(lam, u, t0):
    lam, u, t0 = mp.mpf(lam), mp.mpf(u), mp.mpf(t0)
    if lam == 0:
        return float(-u)
    return float((mp.e ** (-lam * u) - 1) / lam * mp.e ** (-lam * t0))


@pytest.mark.parametrize("u", [-0.3, 0.7, 2.5])
@pytest.mark.parametrize("t0", [0.0, 0.5, 3.0])
def test_damped_kernels_match_reference(u, t0):
    # a difference of exponentials below |lam*u| = 1 cancels to ~2e-12
    lams = straddle_grid(u)
    got = _accel.e_lambda_damped_vals(lams, u, t0)
    want = [e_damped_ref(lam, u, t0) for lam in lams]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    got = _accel.e_lambda_dt_damped_vals(lams, u, t0)
    want = [e_dt_damped_ref(lam, u, t0) for lam in lams]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("t", [1e-6, 0.3, 2.0, 40.0])
def test_one_minus_exp_matches_reference(t):
    lams = np.array([1e-9, 5e-5, 2e-3, 0.3, 4.0, 250.0, -1e-7, -0.7, -2.0])
    got = _accel.one_minus_exp_vals(lams, t)
    want = [float(1 - mp.e ** (-mp.mpf(lam) * mp.mpf(t))) for lam in lams]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_default_lambda_grid():
    # leading zero carries the drift term; the rest is a geometric ladder
    g = lk.default_lambda_grid()
    assert g[0] == 0.0
    assert np.all(np.diff(g) > 0)
    assert np.all(g[1:] > 0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_interval_roundtrip(seed):
    # atoms drawn from the fitting dictionary so recovery can be exact
    rng = np.random.default_rng(seed)
    lams = lk.default_lambda_grid()
    m = int(rng.integers(1, 4))
    picks = rng.choice(np.arange(1, lams.size), size=m, replace=False)
    atoms = tuple(zip(lams[picks].tolist(), rng.uniform(0.2, 1.5, m).tolist()))
    truth = lk.LKIntervalRep(
        t0=1.0,
        c=float(rng.normal()),
        d=float(rng.normal()),
        mu=pk.Measure(atoms=atoms),
        interval=(0.25, 4.0),
    )
    psi = lk.interval_handle(truth)
    fit_grid = fns.chebyshev_grid(0.25, 4.0, 24)
    rep, residual = lk.analyze_interval(psi, 1.0, fit_grid)
    assert rep.c == pytest.approx(truth.c, abs=1e-8)
    assert rep.d == pytest.approx(truth.d, abs=1e-8)
    assert residual <= 1e-6
    # second derivative recovered through the fitted measure
    for t in fit_grid[::6]:
        want = -msr.laplace(truth.mu, float(t)).value
        got = -msr.laplace(rep.mu, float(t)).value
        assert got == pytest.approx(want, abs=1e-6)


def test_analyze_interval_rejects_convex():
    psi = fns.from_callable(lambda t: t**2)
    with pytest.raises(pk.NotNegativeDefinite):
        lk.analyze_interval(psi, 1.0, fns.chebyshev_grid(0.5, 2.0, 16))


def test_analyze_increasing_log():
    psi = fns.from_callable(lambda t: np.log(t), domain=(0.0, np.inf))
    rep, residual = lk.analyze_increasing(psi, fns.chebyshev_grid(0.25, 4.0, 24))
    assert rep.c == pytest.approx(0.0, abs=1e-8)
    assert residual <= 1e-6
    for t in (0.5, 1.0, 2.0):
        assert lk.synth_increasing(rep, t) == pytest.approx(math.log(t), abs=1e-5)


def test_analyze_increasing_rejects_decreasing():
    psi = fns.from_callable(lambda t: np.exp(-t), domain=(0.0, np.inf))
    with pytest.raises(pk.NotIncreasing):
        lk.analyze_increasing(psi, fns.chebyshev_grid(0.25, 4.0, 16))


def test_bernstein_rep_requires_integrable_sigma():
    leb = pk.Measure(density=pk.density_from_spec("lebesgue"), support=(0, np.inf))
    with pytest.raises(pk.InvalidRep):
        lk.BernsteinRep(a=0.0, b=0.0, sigma=leb)


def test_bernstein_to_increasing_agrees():
    rep = pk.get("log1p").lk_data
    inc = lk.bernstein_to_increasing(rep)
    assert inc.c == pytest.approx(math.log(2.0), abs=1e-9)
    for t in (0.5, 1.0, 3.0):
        assert lk.synth_increasing(inc, t) == pytest.approx(lk.synth_bernstein(rep, t), abs=1e-9)


def test_synth_full_reports_convergence():
    rep = pk.get("log1p").lk_data
    lv = lk.synth_bernstein(rep, 1.0, full=True)
    assert isinstance(lv, msr.LaplaceValue)
    assert lv.converged
    assert lv.truncation_bound <= 1e-10


def test_reflection_negative_synth_even():
    rep = pk.get("abs_power", alpha=1.0).lk_data
    assert lk.synth_reflection_negative(rep, -2.0) == lk.synth_reflection_negative(rep, 2.0)
    assert lk.synth_reflection_negative(rep, 1.5) == pytest.approx(1.5, abs=1e-9)


@pytest.mark.parametrize("name", ["log1p", "neg_tlogt", "log", "abs_power"])
def test_rep_json_roundtrip(name):
    rep = pk.get(name).lk_data
    text = lk.rep_to_json(rep)
    back = lk.rep_from_json(text)
    assert type(back) is type(rep)
    assert lk.rep_to_json(back) == text
    synth = {
        "interval": lk.synth_interval,
        "increasing": lk.synth_increasing,
        "bernstein": lk.synth_bernstein,
        "reflection_negative": lk.synth_reflection_negative,
    }[pk.get(name).lk_form]
    for t in (0.5, 1.25):
        assert synth(back, t) == synth(rep, t)


def test_rep_from_json_rejects_garbage():
    with pytest.raises((pk.PosdefkitError, ValueError)):
        lk.rep_from_json(json.dumps({"form": "nonsense"}))


def test_interval_handle_respects_interval():
    rep = pk.get("neg_tlogt").lk_data
    psi = lk.interval_handle(rep)
    lo, hi = rep.interval
    with pytest.raises(pk.DomainError):
        psi(lo - 1.0 if np.isfinite(lo) else -1.0)
