"""Elementary integrand kernels, representation fitting, and synthesis."""
import dataclasses
import json
import math
import sys
import threading
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    assert lk.e_lambda(1.0, 1.0) == pytest.approx(-math.exp(-1.0), rel=1e-15, abs=0.0)
    # shift just translates the argument
    assert lk.e_lambda(0.7, 2.5, t0=1.0) == pytest.approx(lk.e_lambda(0.7, 1.5), rel=1e-15, abs=0.0)


def test_f_lambda_closed_forms():
    assert lk.f_lambda(0.0, 4.0) == 3.0
    assert lk.f_lambda(2.0, 3.0) == pytest.approx((math.exp(-2.0) - math.exp(-6.0)) / 2.0, rel=1e-15, abs=0.0)
    assert lk.f_lambda(1.0, 1.0) == 0.0


@pytest.mark.parametrize("lam", [1e-3, -1e-3, 1e-4, 5e-5, -5e-5, 1e-6, 1e-9])
@pytest.mark.parametrize("t", [0.3, 1.7, 3.0])
def test_series_switch_matches_reference(lam, t):
    # both kernels stay accurate straight through the small-lambda switch
    assert lk.e_lambda(lam, t) == pytest.approx(e_ref(lam, t), rel=1e-12, abs=0.0)
    assert lk.f_lambda(lam, t) == pytest.approx(f_ref(lam, t), rel=1e-12, abs=0.0)


def test_f_lambda_keeps_its_digits_where_a_plain_difference_cancels():
    # on 1e-2 <= |lam*(t-1)| < 1 the plain difference e^-lam - e^-(lam t)
    # cancels: it lost up to 7.1e3 ulps on these draws
    rng = np.random.default_rng(7)
    lam = 10.0 ** rng.uniform(0.0, 2.5, 200)
    x = rng.choice([-1.0, 1.0], 200) * 10.0 ** rng.uniform(-2.0, 0.0, 200)
    for lam_i, t in zip(lam, 1.0 + x / lam):
        want = f_ref(lam_i, t)
        assert abs(lk.f_lambda(lam_i, t) - want) <= 4.0 * math.ulp(want), (lam_i, t)


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


def e_dt_damped_ref(lam, t, t0):
    lam, u, t0 = mp.mpf(lam), mp.mpf(t) - mp.mpf(t0), mp.mpf(t0)
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
    got = _accel.e_lambda_dt_damped_vals(lams, u + t0, t0)
    want = [e_dt_damped_ref(lam, u + t0, t0) for lam in lams]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def e_damped_where(lam, u, t0):
    """Every branch of the damped kernel over the whole block, then np.where."""
    lam = np.asarray(lam, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    x = lam * u
    ax = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        damp = np.exp(-lam * t0)
        prod = -(np.expm1(-x) + x) * damp
        diff = damp * (1.0 - x) - np.exp(-lam * t0 - x)
        direct = np.where(ax < 1.0, prod, diff) / (lam * lam)
    x2 = x * x
    poly = (
        0.5 - x / 6.0 + x2 / 24.0 - x2 * x / 120.0 + x2 * x2 / 720.0 - x2 * x2 * x / 5040.0
    )
    series = -u * u * poly * damp
    out = np.where(ax < _accel.SERIES_SWITCH, series, direct)
    return np.where(lam == 0.0, -0.5 * u * u, out)


_U = np.array([-0.3, 0.7, 2.5])
_DAMPED_BLOCKS = {
    "series": np.concatenate([np.geomspace(1e-9, 3e-3, 20), -np.geomspace(1e-9, 3e-3, 20)]),
    "straddle": np.concatenate([straddle_grid(u)[1:] for u in _U]),
    "direct": np.concatenate([np.geomspace(5.0, 500.0, 20), -np.geomspace(5.0, 50.0, 10)]),
    "zero": np.array([0.0, 1e-6, -2e-4, 3e-3, 0.0]),
    "zero_and_direct": np.array([0.0, 0.05, 1.3, 40.0]),
}


@pytest.mark.parametrize("block", list(_DAMPED_BLOCKS))
@pytest.mark.parametrize("t0", [0.0, 0.5, 3.0])
def test_damped_kernel_is_bit_equal_to_all_branches(block, t0):
    # a block evaluates only the branches it uses; the values keep every bit
    lams = _DAMPED_BLOCKS[block]
    for u in (_U[:, None], 0.7, -0.3):
        got = _accel.e_lambda_damped_vals(lams, u, t0)
        want = e_damped_where(lams, u, t0)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_saturation_threshold_gives_exactly_one():
    assert _accel.SATURATION == 40.0
    assert -np.expm1(-40.0) == 1.0
    # the array loop too, from the threshold up
    assert np.all(-np.expm1(-np.geomspace(40.0, 1e300, 257)) == 1.0)


_OME_LAMS = np.array([1e-9, 5e-5, 2e-3, 0.3, 4.0, 25.0, 250.0, 3e4, 1e8, -1e-7, -0.7, -2.0])


def one_minus_exp_ref(lams, w, t):
    t = mp.mpf(t)
    return float(mp.fsum(mp.mpf(wi) * (1 - mp.e ** (-mp.mpf(lam) * t)) for lam, wi in zip(lams, w)))


@pytest.mark.parametrize("ts", [
    np.geomspace(1e-6, 40.0, 7),  # saturates lam >= 4e7 only
    np.array([2.0, 6.0, 40.0]),  # saturates lam >= 20
    np.array([0.0, 1e-6, 0.3, 2.0, 40.0]),  # t = 0: nothing saturates
    np.array(40.0),
], ids=["1e-06_to_40", "2_to_40", "with_zero", "scalar_40"])
def test_one_minus_exp_sum_matches_reference(ts):
    pos = _OME_LAMS > 0
    w = np.random.default_rng(0).uniform(0.1, 2.0, _OME_LAMS.size)
    got = _accel.one_minus_exp_sum(_OME_LAMS[pos], w[pos], ts)
    assert got.shape == ts.shape
    want = [one_minus_exp_ref(_OME_LAMS[pos], w[pos], t) for t in ts.ravel()]
    np.testing.assert_allclose(got.ravel(), want, rtol=1e-12, atol=0.0)
    # each node alone, negative lambdas included
    for i, lam in enumerate(_OME_LAMS):
        got = _accel.one_minus_exp_sum(_OME_LAMS, np.eye(_OME_LAMS.size)[i], ts)
        want = [one_minus_exp_ref([lam], [1.0], t) for t in ts.ravel()]
        np.testing.assert_allclose(got.ravel(), want, rtol=1e-12, atol=0.0)


def test_one_minus_exp_sum_saturates_nothing_below_zero():
    # lam * |t| >= 40 at every t, but at t < 0 the value is far from 1
    lams, w, ts = np.array([0.3, 25.0, 250.0]), np.array([0.5, 1.0, 2.0]), np.array([-0.5, 3.0])
    want = [one_minus_exp_ref(lams, w, t) for t in ts]
    np.testing.assert_allclose(_accel.one_minus_exp_sum(lams, w, ts), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("t", [np.array(2.0), np.array([0.0, 1.5, 40.0]), np.ones((2, 3))],
                         ids=["scalar", "array", "matrix"])
def test_kernels_return_zeros_for_no_nodes(monkeypatch, t):
    def no_block(*args, **kwargs):
        raise AssertionError("a node block was built")

    for name in ("exp", "expm1", "log"):
        monkeypatch.setattr(_accel.np, name, no_block)
    empty = np.array([])
    # no nodes at all, only zero weights, and only lam = 0 with k > 0
    for got in (_accel.one_minus_exp_sum(empty, empty, t),
                _accel.exp_weighted_sum(empty, empty, t, 0),
                _accel.exp_weighted_sum([0.5, 2.0], [0.0, 0.0], t, 1),
                _accel.exp_weighted_sum([0.0], [3.0], t, 2)):
        assert got.shape == t.shape and got.dtype == np.float64
        np.testing.assert_array_equal(got, np.zeros(t.shape))
    # lam = 0 adds its weight exactly for k = 0
    np.testing.assert_array_equal(_accel.exp_weighted_sum([0.0, 0.0], [3.0, 0.25], t, 0),
                                  np.full(t.shape, 3.25))


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_fit_dictionary_needs_finite_lambdas(bad):
    psi = fns.from_callable(lambda t: np.log(t), domain=(0.0, np.inf))
    with pytest.raises(ValueError, match=f"lambda grid must be finite, got {bad:g}"):
        lk.analyze_increasing(psi, fns.chebyshev_grid(0.25, 4.0, 24), [1.0, bad, 2.0])


def test_a_saturated_bernstein_atom_past_the_overflow_of_lam_t_is_one():
    # lam * min(t) overflows to inf at lam = 1e308: saturated, with no warning
    sigma = pk.Measure(atoms=((1e308, 1.0),), support=msr.HALF_LINE)
    assert lk.synth_bernstein(lk.BernsteinRep(a=0.0, b=0.0, sigma=sigma), 10.0) == 1.0


def test_analyze_increasing_rejects_decreasing():
    psi = fns.from_callable(lambda t: np.exp(-t), domain=(0.0, np.inf))
    with pytest.raises(pk.NotIncreasing):
        lk.analyze_increasing(psi, fns.chebyshev_grid(0.25, 4.0, 16))


def test_bernstein_rep_requires_integrable_sigma():
    leb = pk.Measure(density=pk.density_from_spec("lebesgue"), support=(0, np.inf))
    with pytest.raises(pk.InvalidRep):
        lk.BernsteinRep(a=0.0, b=0.0, sigma=leb)


def test_bernstein_rep_rejects_a_sigma_whose_wedge_overflows():
    # finite atoms whose min(1, lam) integral is not a finite float
    huge = pk.Measure(atoms=((1.0, 1e308), (2.0, 1e308)))
    with np.errstate(over="ignore"), pytest.raises(pk.InvalidRep, match="integrability") as info:
        lk.BernsteinRep(a=0.0, b=0.0, sigma=huge)
    assert isinstance(info.value.__cause__, pk.DivergentIntegral)


def test_bernstein_to_increasing_agrees():
    rep = pk.get("log1p").lk_data
    inc = lk.bernstein_to_increasing(rep)
    assert inc.c == pytest.approx(math.log(2.0), abs=1e-9)
    for t in (0.5, 1.0, 3.0):
        assert lk.synth_increasing(inc, t) == pytest.approx(lk.synth_bernstein(rep, t), abs=1e-9)


@st.composite
def bernstein_reps(draw):
    """a, b >= 0, up to four atoms in (0, 50] and an optional sigma density."""
    atoms = draw(st.lists(st.tuples(st.floats(0.0, 50.0, exclude_min=True), st.floats(0.01, 2.0)),
                          max_size=4))
    spec = draw(st.sampled_from([None, "exp", "log_sigma", "stable_sigma"]))
    params = {"alpha": draw(st.floats(0.1, 0.9))} if spec == "stable_sigma" else None
    dens = None if spec is None else pk.density_from_spec(spec, params)
    sigma = pk.Measure(atoms=tuple(atoms), density=dens, support=(0.0, math.inf))
    return lk.BernsteinRep(a=draw(st.floats(0.0, 3.0)), b=draw(st.floats(0.0, 3.0)), sigma=sigma)


def assert_forms_agree(rep, ts):
    # the Bernstein handle and the increasing handle of the same psi agree
    # within their summed bounds, plus rounding (atom-only reps carry bounds of 0);
    # the increasing form's c = psi(1) carries that quadrature's error too
    ts = np.asarray(ts, dtype=np.float64)
    bern = lk.bernstein_handle(rep)
    inc = lk.increasing_handle(lk.bernstein_to_increasing(rep))
    got, want = bern(ts), inc(ts)
    slack = (bern.bounds_at(ts) + inc.bounds_at(ts) + bern.bounds_at(1.0)
             + 8.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(got)))
    assert np.all(np.abs(got - want) <= slack), (got - want, slack)


@settings(max_examples=30, deadline=None)
@given(rep=bernstein_reps(), t=st.floats(0.05, 6.0))
def test_bernstein_and_increasing_forms_agree_within_their_bounds(rep, t):
    assert_forms_agree(rep, [t])


@pytest.mark.parametrize("rule", ["gauss-composite", "trapezoid"])
def test_gridded_sigma_forms_agree_within_their_bounds(rule):
    # both forms integrate the interpolant; the trapezoid bound covers its distance from it
    grid = np.linspace(0.5, 6.0, 8)
    dens = msr.GriddedDensity(grid, np.exp(-grid), rule)
    rep = lk.BernsteinRep(a=0.0, b=0.3, sigma=pk.Measure(density=dens, support=(0.0, math.inf)))
    assert_forms_agree(rep, [0.2, 0.7, 2.0, 4.0])


def test_synth_full_reports_convergence():
    rep = pk.get("log1p").lk_data
    lv = lk.synth_bernstein(rep, 1.0, full=True)
    assert isinstance(lv, msr.LaplaceValue)
    assert lv.converged
    assert lv.truncation_bound <= 1e-10


def test_synthesis_with_an_overflowing_head_bound_reports_an_infinite_bound():
    # stub_reach * |t - t0| past 709 overflows e**(...): the value stays right, unconverged
    interval = pk.get("neg_tlogt").lk_data
    for lv, want in [(lk.synth_interval(interval, 800.0, full=True), -800.0 * math.log(800.0)),
                     (lk.synth_increasing(pk.get("log").lk_data, 800.0, full=True),
                      math.log(800.0))]:
        assert not lv.converged and lv.truncation_bound == math.inf
        assert lv.value == pytest.approx(want, rel=1e-13)
    psi = lk.interval_handle(interval)
    assert psi.deriv_at(800.0, 1) == pytest.approx(-math.log(800.0) - 1.0, rel=1e-13)
    assert psi.bounds_at(800.0, 1) == math.inf


def test_gridded_increasing_synthesis():
    # int f_lam(t) e^{-lam} dlam = log((1 + t) / 2), here on a gridded model of e^{-lam}
    g = np.linspace(0.0, 40.0, 4001)
    mu = pk.Measure(density=msr.GriddedDensity(g, np.exp(-g)), support=(0.0, 40.0))
    rep = lk.LKIncreasingRep(c=0.0, mu=mu)
    for t in (0.5, 2.0, 4.0):
        lv = lk.synth_increasing(rep, t, tol=1e-10, full=True)
        assert abs(lv.value - math.log((1.0 + t) / 2.0)) <= 1e-4
        assert not lv.converged


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
    form = pk.get(name).lk_form
    for t in (0.5, 1.25):
        assert lk.synth(back, t, form=form) == lk.synth(rep, t, form=form)


def test_rep_from_json_rejects_garbage():
    # an unknown or unhashable form, scalars that are not numbers, and intervals
    # that are not lists of two numbers ("05" and {"0": 1, "5": 2} iterate as 0, 5)
    interval = {"form": "interval", "t0": 1.0, "c": 0.0, "d": 0.0, "mu": {"atoms": []}}
    for doc in ({"form": "nonsense"}, {"form": ["x"]},
                {"form": "bernstein", "a": "x", "b": 0.0, "sigma": {"atoms": []}},
                {"form": "bernstein", "a": None, "b": 0.0, "sigma": {"atoms": []}},
                {"form": "increasing", "c": [1], "mu": {"atoms": []}},
                {**interval, "interval": "05"}, {**interval, "interval": {"0": 1, "5": 2}},
                {**interval, "interval": [0, 5, 9]}, {**interval, "interval": [0, "x"]}):
        with pytest.raises(pk.InvalidRep):
            lk.rep_from_json(json.dumps(doc))


def test_interval_handle_respects_interval():
    rep = pk.get("neg_tlogt").lk_data
    psi = lk.interval_handle(rep)
    lo, hi = rep.interval
    with pytest.raises(pk.DomainError):
        psi(lo - 1.0 if np.isfinite(lo) else -1.0)


# batched synthesis: one adaptive integration per batch of distinct t

_BATCH = np.array([0.02, 0.4, 1.0, 2.7, 6.0])
_CLOSED_FORMS = [
    ("log1p", {}, "bernstein", np.log1p),
    ("power", {"alpha": 0.5}, "bernstein", np.sqrt),
    ("signed_power", {"alpha": 1.5}, "interval", lambda t: -t**1.5),
]


@pytest.mark.parametrize("name, params, form, closed", _CLOSED_FORMS)
def test_batched_synthesis_matches_batch_of_one_and_closed_form(name, params, form, closed):
    rep = pk.get(name, **params).lk_data
    lv = lk.synth(rep, _BATCH, full=True)
    assert lv.converged and lv.value.shape == _BATCH.shape
    for t, value, bound in zip(_BATCH, lv.value, lv.truncation_bound):
        one = lk.synth(rep, float(t), full=True)
        assert abs(value - one.value) <= bound + one.truncation_bound
        assert abs(value - closed(t)) <= 1e-10


def test_batch_with_far_apart_t_shares_truncation_and_converges(monkeypatch):
    # log t = integral f_lam(t) e^0 dlam: the tail decays like e^{-0.02 lam} at t = 0.02
    rep = pk.get("log").lk_data
    calls = []
    panel = msr._tail_panel
    monkeypatch.setattr(msr, "_tail_panel", lambda *a: calls.append(a) or panel(*a))
    lv = lk.synth_increasing(rep, np.array([0.02, 6.0]), full=True)
    assert len(calls) == 1 and calls[0][1][2] == 0.02
    assert lv.converged and np.all(lv.truncation_bound <= 1e-10)
    assert np.all(np.abs(lv.value - np.log([0.02, 6.0])) <= 1e-10)


def test_gram_evaluates_the_density_once():
    dens = pk.density_from_spec("log_sigma")
    calls = []
    counted = dataclasses.replace(dens, fn=lambda lam: calls.append(1) or dens.fn(lam))
    rep = lk.BernsteinRep(a=0.0, b=0.0, sigma=pk.Measure(density=counted, support=(0, np.inf)))
    calls.clear()  # the representation's own integrability check, and the panels it reached
    counted._lattice.clear()
    g = pk.gram_plus(lk.bernstein_handle(rep), fns.chebyshev_grid(0.1, 3.0, 12))
    # 78 distinct entries, one batch, converged on the first mesh: one density call
    assert len(calls) == 1
    assert np.abs(g.entries - np.log1p(0.5 * np.add.outer(g.points, g.points))).max() <= 1e-10


def test_the_stable_half_gram_takes_few_density_nodes():
    # sigma ~ lam**-1.5 has its stub and truncation points about 4**±37 apart: wide
    # panels outside the unit band cover them (74 two-octave panels took 1,554 nodes)
    rep = pk.get("power", alpha=0.5).lk_data
    dens, sizes = rep.sigma.density, []
    counted = dataclasses.replace(dens, fn=lambda lam: sizes.append(lam.size) or dens.fn(lam))
    rep = dataclasses.replace(rep, sigma=dataclasses.replace(rep.sigma, density=counted))
    sizes.clear()  # the representation's own integrability check, and the panels it reached
    counted._lattice.clear()
    g = pk.gram_plus(lk.bernstein_handle(rep), fns.chebyshev_grid(0.1, 3.0, 12))
    assert len(sizes) == 1 and sizes[0] <= 600
    exact = np.sqrt(0.5 * np.add.outer(g.points, g.points))
    assert np.all(np.abs(g.entries - exact) <= g.bounds + 8.0 * np.finfo(float).eps * exact)


# the seven catalog representations and forms that the benchmark synthesizes
_SYNTHESIZED = [("neg_tlogt", {}), ("signed_power", {"alpha": 1.5}), ("log", {}), ("log1p", {}),
                ("power", {"alpha": 0.5}), ("ratio", {}), ("abs_power", {"alpha": 0.5})]


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(_SYNTHESIZED), log_t=st.floats(-6.0, 2.0), negative=st.booleans())
@example(case=("log", {}), log_t=-6.0, negative=False)
def test_synthesized_forms_meet_their_bounds_from_1e_6_to_1e2(case, log_t, negative):
    # the increasing form at t = 1e-6 took exp(-lam*t) from an exponent that
    # cancels for lam near 1/t, and missed its bound by 1.6 times
    name, params = case
    entry = pk.get(name, **params)
    t = -(10.0**log_t) if negative and entry.func.domain[0] < 0.0 else 10.0**log_t
    lv = lk.synth(entry.lk_data, t, full=True, form=entry.lk_form)
    want = entry.func(t)
    assert lv.converged
    assert abs(lv.value - want) <= lv.truncation_bound + 8.0 * math.ulp(want)


@pytest.mark.parametrize("fn, name, bad", [
    (lk.synth_interval, "neg_tlogt", -0.5),
    (lk.synth_interval, "neg_tlogt", math.nan),
    (lk.synth_increasing, "log", 0.0),
    (lk.synth_increasing, "log", math.inf),
    (lk.synth_bernstein, "log1p", -1.0),
    (lk.synth_bernstein, "log1p", -5e-324),
    (lk.synth_reflection_negative, "abs_power", math.nan),
])
def test_batch_rejects_a_bad_t_like_the_scalar_call(fn, name, bad):
    rep = pk.get(name).lk_data
    with pytest.raises(pk.DomainError) as scalar:
        fn(rep, bad)
    with pytest.raises(pk.DomainError) as batch:
        fn(rep, np.array([1.5, bad, 2.0]))
    assert str(batch.value) == str(scalar.value)


_SYNTHESIZERS = [(lk.synth_interval, "neg_tlogt"), (lk.synth_increasing, "log"),
                 (lk.synth_bernstein, "log1p"), (lk.synth_reflection_negative, "abs_power")]


@pytest.mark.parametrize("t", [np.array([]), []])
@pytest.mark.parametrize("fn, name", _SYNTHESIZERS)
def test_an_empty_t_is_a_domain_error(fn, name, t):
    with pytest.raises(pk.DomainError, match="^synthesis needs at least one t$"):
        fn(pk.get(name).lk_data, t)


@pytest.mark.parametrize("fn, name, outside, message", [
    (lk.synth_interval, "neg_tlogt", -1.0, "t = -1 outside the open interval (0, inf)"),
    (lk.synth_increasing, "log", -1.0, "increasing synthesis is defined for t > 0"),
    (lk.synth_bernstein, "log1p", -1.0, "Bernstein synthesis is defined for t >= 0"),
    (lk.synth_reflection_negative, "abs_power", None, None),
])
def test_a_t_that_is_not_finite_is_named_before_one_outside_the_window(fn, name, outside,
                                                                       message):
    rep = pk.get(name).lk_data
    # -inf is outside the window of every form that has one, yet the error names
    # it as not finite; the even form names the t it was given, not |t|
    bads = [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
            ([1.0, outside or 1.0, math.nan], "nan")]
    for bad, got in bads:
        with pytest.raises(pk.DomainError, match=f"^synthesis needs a finite t, got {got}$"):
            fn(rep, bad)
    if outside is not None:
        for bad in (outside, [2.0, outside, 3.0]):
            with pytest.raises(pk.DomainError) as info:
                fn(rep, bad)
            assert str(info.value) == message


@pytest.mark.parametrize("name, params", [("log1p", {}), ("power", {"alpha": 0.5}), ("ratio", {})])
def test_bernstein_handle_reaches_t_zero(name, params):
    entry = pk.get(name, **params)
    h = lk.bernstein_handle(entry.lk_data)
    assert h(0.0) == entry.lk_data.a
    # gram_minus puts t = 0 on the diagonal
    g = pk.gram_minus(h, fns.chebyshev_grid(0.1, 3.0, 8))
    exact = entry.func(0.5 * np.abs(g.points[:, None] - g.points[None, :]))
    slack = 8.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(exact))
    assert np.all(np.abs(g.entries - exact) <= g.bounds + slack)


def test_large_gram_memory_stays_flat():
    # 2,080 distinct t in one batch: the node-by-t products are formed in blocks
    h = lk.interval_handle(pk.get("signed_power", alpha=1.5).lk_data)
    grid = fns.chebyshev_grid(0.1, 4.0, 64)
    tracemalloc.start()
    try:
        g = pk.gram_plus(h, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert np.abs(g.entries + (0.5 * np.add.outer(grid, grid)) ** 1.5).max() <= 1e-10


# a synthesized handle keeps its last batch

_REPS = {
    "interval": pk.get("signed_power", alpha=1.5).lk_data,
    "increasing": pk.get("log").lk_data,
    "bernstein": pk.get("power", alpha=0.5).lk_data,
    "reflection_negative": pk.get("abs_power", alpha=0.5).lk_data,
}
_MAKERS = {"interval": lk.interval_handle, "increasing": lk.increasing_handle,
           "bernstein": lk.bernstein_handle, "reflection_negative": lk.reflection_negative_handle}
_HANDLES = {form: (lambda form=form: _MAKERS[form](_REPS[form])) for form in _REPS}


def count_integrations(monkeypatch):
    calls = []
    integrate = msr.integrate_against
    monkeypatch.setattr(msr, "integrate_against",
                        lambda *a, **k: calls.append(1) or integrate(*a, **k))
    return calls


@pytest.mark.parametrize("form", list(_HANDLES))
def test_repeated_gram_costs_no_quadrature(monkeypatch, form):
    make = _HANDLES[form]
    h, fresh = make(), make()
    grid = fns.chebyshev_grid(0.1, 3.0, 8)
    first = pk.gram_plus(h, grid).entries
    calls = count_integrations(monkeypatch)
    second = pk.gram_plus(h, grid).entries
    assert calls == []
    assert second.tobytes() == first.tobytes()
    # the same distinct arguments in another order and multiplicity also hit
    args = 0.5 * np.add.outer(grid, grid)
    assert h(args[::-1].T).tobytes() == first[::-1].T.tobytes()
    assert calls == []
    # another grid of the same size integrates again and becomes the kept batch
    moved = pk.gram_plus(h, grid + 0.05).entries
    assert len(calls) == 1
    assert moved.tobytes() == pk.gram_plus(fresh, grid + 0.05).entries.tobytes()
    pk.gram_plus(h, grid + 0.05)
    assert len(calls) == 2


@pytest.mark.parametrize("args", [[0.4, 1.1, 2.5], [0.4, 1.1, 0.4, 2.5]])
@pytest.mark.parametrize("form", list(_HANDLES))
def test_changing_a_returned_array_leaves_the_next_result(form, args):
    h = _HANDLES[form]()
    args = np.array(args)
    out = h(args)
    keep = out.copy()
    out[:] = -1.0
    assert h(args).tobytes() == keep.tobytes()


@pytest.mark.parametrize("form", list(_HANDLES))
def test_fresh_handle_gives_the_bits_of_a_reused_one(form):
    make = _HANDLES[form]
    reused = make()
    args = np.array([0.3, 0.9, 2.0])
    reused(args)
    reused(np.array([1.5]))
    again = reused(args)
    assert make()(args).tobytes() == again.tobytes()


def test_threads_sharing_a_handle_never_mix_batches():
    # each call reads the kept (arguments, values) pair once; a lost update
    # only costs a quadrature, a mixed pair would return another batch's values
    rep = lk.BernsteinRep(a=0.0, b=0.5, sigma=pk.Measure(atoms=((0.7, 1.0), (3.0, 0.5))))
    h = lk.bernstein_handle(rep)
    batches = [np.array([0.2, 1.0, 2.5]), np.array([0.3, 1.5, 4.0]), np.array([0.2, 4.0, 9.0])]
    want = [lk.synth_bernstein(rep, b) for b in batches]
    wrong = []

    def work(i):
        for j in range(60):
            k = (i + j) % len(batches)
            if h(batches[k]).tobytes() != want[k].tobytes():
                wrong.append(k)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []


# values, derivatives and bounds: one kept batch per order

# every (form, order) a handle defines up to order 2; the reflection-negative
# handle has no derivatives
_ORDERS = [(form, k) for form in _HANDLES for k in range(1 if form == "reflection_negative" else 3)]


def _direct(form, k, ts):
    """The LaplaceValue that order k of ``_HANDLES[form]`` serves at sorted ts."""
    rep = _REPS[form]
    if k == 0:
        return lk.synth(rep, ts, full=True, form=form)
    if form == "increasing":
        return msr.laplace_deriv(rep.mu, ts, k - 1)
    if form == "interval":  # k == 2
        lv = msr.laplace_deriv(rep.mu, ts, 0)
        return dataclasses.replace(lv, value=-lv.value)
    lv = msr.laplace_deriv(rep.sigma, ts, k)
    return dataclasses.replace(lv, value=rep.b - lv.value if k == 1 else -lv.value)


@pytest.mark.parametrize("form, k", _ORDERS)
def test_handle_orders_serve_the_bits_of_the_direct_call(form, k):
    h = _HANDLES[form]()
    ts = np.array([0.4, 1.1, 2.5])
    values, bounds = h.deriv_at(ts, k), h.bounds_at(ts, k)
    if (form, k) == ("interval", 1):
        # no public call integrates the first-derivative kernel: differences instead
        want = pk.derivative(fns.from_callable(h.fn, h.domain), ts, 1)
        np.testing.assert_allclose(values, want, rtol=1e-6, atol=1e-7)
        assert np.all((bounds >= 0.0) & (bounds <= lk.SYNTH_TOL))
        return
    lv = _direct(form, k, ts)
    assert values.tobytes() == lv.value.tobytes()
    assert bounds.tobytes() == lv.truncation_bound.tobytes()


@pytest.mark.parametrize("form, k", _ORDERS)
def test_a_permuted_repeat_of_an_order_costs_no_quadrature(monkeypatch, form, k):
    h = _HANDLES[form]()
    ts = np.array([0.4, 1.1, 2.5])
    values = h.deriv_at(ts, k)
    calls = count_integrations(monkeypatch)
    bounds = h.bounds_at(ts, k)
    again, idx = np.array([2.5, 0.4, 2.5, 1.1, 0.4]), [2, 0, 2, 1, 0]
    assert h.deriv_at(again, k).tobytes() == values[idx].tobytes()
    assert h.bounds_at(again, k).tobytes() == bounds[idx].tobytes()
    assert calls == []


def test_derivative_handle_carries_the_bounds_one_order_up():
    h = lk.increasing_handle(_REPS["increasing"])  # log t
    d = lk._derivative_handle(h)
    t = np.array([0.5, 1.0, 2.0])
    assert d(t).tobytes() == h.deriv_at(t, 1).tobytes()
    assert d.bounds_at(t).tobytes() == h.bounds_at(t, 1).tobytes()
    assert d.bounds_at(t, 1).tobytes() == h.bounds_at(t, 2).tobytes()
    assert np.all(np.abs(d(t) - 1.0 / t) <= d.bounds_at(t))


@pytest.mark.parametrize("make, entry", [
    (lk.increasing_handle, ("log", {})),
    (lk.bernstein_handle, ("log1p", {})),
    (lk.bernstein_handle, ("power", {"alpha": 1.0})),
    (lk.bernstein_handle, ("one_minus_cexp", {"c": 0.5, "lam": 2.0})),
])
@pytest.mark.parametrize("k", [1, 2])
def test_synthesized_handle_derivatives_match_numeric_ones(make, entry, k):
    h = make(pk.get(entry[0], **entry[1]).lk_data)
    t = np.array([0.5, 1.3, 2.7])
    want = pk.derivative(fns.from_callable(h.fn, h.domain), t, k)
    np.testing.assert_allclose(h.deriv_at(t, k), want, rtol=1e-6, atol=1e-7)


_FIT_GRID = fns.chebyshev_grid(0.5, 2.0, 8)
_TOL_CALLS = {
    "synth": lambda tol: lk.synth(pk.get("log1p").lk_data, 1.0, tol),
    "synth_atoms": lambda tol: lk.synth(lk.BernsteinRep(0.0, 0.0, msr.Measure(atoms=((1.0, 1.0),))),
                                        1.0, tol),
    "laplace_deriv": lambda tol: msr.laplace_deriv(pk.get("log1p").lk_data.sigma, 1.0, 1, tol),
    "analyze_interval": lambda tol: lk.analyze_interval(pk.get("neg_tlogt").func, 1.0, _FIT_GRID,
                                                        tol=tol),
    "analyze_increasing": lambda tol: lk.analyze_increasing(pk.get("log").func, _FIT_GRID, tol=tol),
}


@pytest.mark.parametrize("call", list(_TOL_CALLS))
@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_quadrature_and_fits_reject_a_bad_tol(call, tol):
    # inf used to return log1p(1) = 0.1699 as converged, and NaN let a convex fit through
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        _TOL_CALLS[call](tol)


@pytest.mark.parametrize("call", list(_TOL_CALLS))
def test_quadrature_and_fits_take_a_good_tol(call):
    _TOL_CALLS[call](1e-6)
