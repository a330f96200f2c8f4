"""Laplace transform quadrature against closed-form oracles."""
import ast
import bisect
import dataclasses
import itertools
import math
import pathlib
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import posdefkit as pk
from posdefkit import _accel
from posdefkit import levykhin as lk
from posdefkit import measure as msr

TOL = 1e-10
mp.mp.dps = 40


def exp_measure():
    return pk.Measure(density=pk.density_from_spec("exp"), support=(0, np.inf))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_atom_laplace_exact(seed):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-2.0, 3.0, 4)
    w = rng.uniform(0.1, 2.0, 4)
    mu = pk.Measure(atoms=tuple(zip(lam.tolist(), w.tolist())))
    for t in (0.0, 0.5, 1.7):
        lv = msr.laplace(mu, t)
        want = float(np.dot(w, np.exp(-lam * t)))
        assert lv.value == pytest.approx(want, rel=1e-14, abs=0.0)
        assert lv.converged


@pytest.mark.parametrize("k", [1, 3])
def test_exp_weighted_sum_odd_k_negative_lambda(k):
    # odd k flips the sign of every negative-lambda term; lambda = 0 drops out
    lam = np.array([-2.0, -0.7, -0.05, -1e-6, 0.0])
    w = np.array([0.4, 1.3, 2.0, 0.9, 5.0])
    ts = np.array([0.1, 1.0, 4.0])
    batched = _accel.exp_weighted_sum(lam, w, ts, k)
    for t, got_b in zip(ts, batched):
        want = mp.fsum(
            mp.mpf(wi) * mp.mpf(li) ** k * mp.e ** (-mp.mpf(li) * t) for li, wi in zip(lam, w)
        )
        got = _accel.exp_weighted_sum(lam, w, t, k)
        assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)
        assert got_b == pytest.approx(float(want), rel=1e-12, abs=0.0)


def test_exp_weighted_sum_log_space_survives_huge_terms():
    # individually overflowing factors must combine in log space
    lam = np.array([-800.0])
    w = np.array([1e-300])
    got = _accel.exp_weighted_sum(lam, w, 1.0, 0)
    assert got == pytest.approx(np.exp(np.log(1e-300) + 800.0), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("t", [0.25, 1.0, 3.0])
def test_exp_density_laplace(t):
    # L(e^{-lam} dlam)(t) = 1/(1+t)
    lv = msr.laplace(exp_measure(), t)
    assert abs(lv.value - 1.0 / (1.0 + t)) <= 5e-11
    assert lv.converged
    assert lv.truncation_bound <= TOL


@pytest.mark.parametrize("name, params, message", [
    ("nope", {}, "unknown density 'nope'"),
    ("exp", {"alpha": 1.0}, "density 'exp' accepts no parameters, not alpha"),
    ("gamma", {"alpha": 1.0, "beta": 2.0}, "density 'gamma' accepts alpha, not beta"),
])
def test_density_from_spec_names_what_it_accepts(name, params, message):
    with pytest.raises(pk.UnknownName) as info:
        pk.density_from_spec(name, params)
    assert str(info.value) == message


@pytest.mark.parametrize("alpha", [0.5, 1.5, 3.0])
def test_gamma_density_laplace(alpha):
    # normalized gamma density integrates to (1+t)^{-alpha}
    mu = pk.Measure(density=pk.density_from_spec("gamma", {"alpha": alpha}), support=(0, np.inf))
    for t in (0.5, 2.0):
        lv = msr.laplace(mu, t)
        assert abs(lv.value - (1.0 + t) ** -alpha) <= 5e-11


def test_singular_head_laplace():
    # L(lam^{-1/2} dlam)(t) = Gamma(1/2) t^{-1/2}
    dens = msr.FuncDensity(
        fn=lambda lam: lam**-0.5,
        lo=0.0,
        hi=np.inf,
        head=msr.HeadBound(1.0, -0.5),
        tail_env=msr.Envelope(1.0, -0.5, 0.0),
    )
    mu = pk.Measure(density=dens, support=(0, np.inf))
    for t in (0.5, 2.0, 9.0):
        lv = msr.laplace(mu, t)
        assert abs(lv.value - math.sqrt(math.pi / t)) <= 5e-11


@pytest.mark.parametrize("k", [0, 1, 2])
def test_batched_transform_matches_batch_of_one_and_closed_form(k):
    # one shared mesh for the batch; each value keeps its own bound
    mu = exp_measure()
    ts = np.array([0.02, 0.3, 1.0, 2.5, 6.0])
    lv = msr.laplace_deriv(mu, ts, k)
    assert lv.value.shape == lv.truncation_bound.shape == ts.shape
    assert lv.converged and np.all(lv.truncation_bound <= TOL)
    for t, value, bound in zip(ts, lv.value, lv.truncation_bound):
        one = msr.laplace_deriv(mu, t, k)
        assert isinstance(one.value, float)
        assert abs(value - one.value) <= bound + one.truncation_bound
        want = (-1.0) ** k * math.factorial(k) / (1.0 + t) ** (k + 1)
        assert abs(value - want) <= TOL


def test_batch_shares_one_truncation_point(monkeypatch):
    # t = 0.02 decays far slower than t = 6; the batch truncates once, for 0.02
    calls = []
    panel = msr._tail_panel
    monkeypatch.setattr(msr, "_tail_panel", lambda *a: calls.append(a) or panel(*a))
    mu = pk.Measure(density=pk.density_from_spec("gamma", {"alpha": 1.5}), support=(0, np.inf))
    lv = msr.laplace(mu, np.array([6.0, 0.02]))
    assert len(calls) == 1 and calls[0][1][2] == 0.02
    assert lv.converged and np.all(lv.truncation_bound <= TOL)
    assert np.all(np.abs(lv.value - (1.0 + np.array([6.0, 0.02])) ** -1.5) <= TOL)


def _count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or original(*a))


_BATCH = np.array([0.02, 0.3, 1.0, 2.5, 6.0])


def batched(name):
    """A batched transform or synthesis, at a tol that refines the transform, and its kernel."""
    if name == "laplace_deriv":
        mu = exp_measure()
        return lambda: msr.laplace_deriv(mu, _BATCH, 1, 1e-13), "exp_weighted_sum"
    rep = pk.get("log1p").lk_data
    return lambda: lk.synth_bernstein(rep, _BATCH, 1e-13, full=True), "one_minus_exp_sum"


@pytest.mark.parametrize("name", ["laplace_deriv", "synth_bernstein"])
def test_a_batch_that_fits_one_block_is_one_kernel_call_per_level(monkeypatch, name):
    run, kernel = batched(name)
    levels, kernels = [], []
    _count_calls(monkeypatch, msr, "_lattice_slice", levels)
    _count_calls(monkeypatch, _accel, kernel, kernels)
    lv = run()
    assert lv.converged
    # besides the one call on the empty atom list; laplace_deriv refines once
    on_nodes = [args for args in kernels if args[0].size]
    assert len(kernels) == len(on_nodes) + 1
    assert len(on_nodes) == len(levels) == (2 if name == "laplace_deriv" else 1)
    nodes, _ = msr._lattice_slice(*levels[-1])
    assert nodes.size * _BATCH.size <= msr._BLOCK


@pytest.mark.parametrize("name", ["laplace_deriv", "synth_bernstein"])
def test_a_batch_over_many_blocks_agrees_with_one_block(monkeypatch, name):
    run, kernel = batched(name)
    one = run()
    kernels = []
    _count_calls(monkeypatch, _accel, kernel, kernels)
    monkeypatch.setattr(msr, "_BLOCK", 64)
    many = run()
    assert len(kernels) > 10
    # the blocks' sums are added in another order: equal to rounding
    assert many.converged == one.converged
    np.testing.assert_allclose(many.value, one.value, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("t", [np.array([]), [], np.zeros((0, 3))])
@pytest.mark.parametrize("k", [0, 2])
def test_an_empty_t_is_a_domain_error(t, k):
    with pytest.raises(pk.DomainError, match="^transform needs at least one t$"):
        msr.laplace_deriv(exp_measure(), t, k)
    with pytest.raises(pk.DomainError, match="^transform needs at least one t$"):
        msr.laplace(exp_measure(), t)


@pytest.mark.parametrize("bad, got", [
    (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), ([1.0, math.nan, -math.inf], "nan"),
])
def test_a_transform_names_the_first_t_that_is_not_finite(bad, got):
    with pytest.raises(pk.DomainError, match=f"^transform needs a finite t, got {got}$"):
        msr.laplace_deriv(exp_measure(), bad, 1)


def lattice_search(env, g_tail, lo, budget):
    """The step-by-step search over the finite lattice points lo + _LATTICE[j]
    from the unit offset up, the reference for the truncation point."""
    gc, gp, gd = g_tail
    for j in range(msr._UNIT, len(msr._LATTICE) - 1):
        T = lo + msr._LATTICE[j]
        if T < env.cutoff:
            continue
        b = env.tail(T, extra_power=gp, extra_decay=gd, extra_coef=gc)
        if b <= budget:
            return j, b
        if T > 1e300:
            break
    return None


@settings(max_examples=300, deadline=None)
@given(
    coef=st.floats(1e-30, 1e30),
    power=st.floats(-6.0, 2.0),
    decay=st.sampled_from([0.0, 0.0, 0.0, 1e-3, 0.5]),
    cutoff=st.floats(1e-3, 1e6),
    g_power=st.sampled_from([0.0, 0.0, 1.0, -0.5, 2.0, 3.0]),
    g_decay=st.sampled_from([0.0, 0.0, 0.02, 1.0]),
    g_coef=st.floats(1e-10, 1e10),
    lo=st.one_of(st.floats(-1e3, 1e3), st.floats(1e200, 1e305)),
    budget=st.floats(1e-300, 1.0),
)
def test_tail_panel_matches_the_lattice_search(coef, power, decay, cutoff, g_power, g_decay,
                                               g_coef, lo, budget):
    # pure power-law tails (decay 0, power + g_power < -1) take the closed form
    env = msr.Envelope(coef, power, decay, cutoff)
    g_tail = (g_coef, g_power, g_decay)
    want = lattice_search(env, g_tail, lo, budget)
    if want is None:
        with pytest.raises(pk.DivergentIntegral):
            msr._tail_panel(env, g_tail, lo, budget)
    else:
        assert msr._tail_panel(env, g_tail, lo, budget) == want


def test_power_law_truncation_takes_few_tail_bounds(monkeypatch):
    # the alpha = 1/2 stable sigma against the Bernstein kernel needs T = 4**36:
    # the first lattice point past it is 4**67, and 4**35 below it misses the budget
    calls = []
    tail = msr.Envelope.tail
    monkeypatch.setattr(msr.Envelope, "tail", lambda *a, **k: calls.append(1) or tail(*a, **k))
    env = pk.density_from_spec("stable_sigma", {"alpha": 0.5}).tail_env
    jb, b = msr._tail_panel(env, (1.0, 0.0, 0.0), 0.0, 1e-11)
    assert msr._LATTICE[jb - 1:jb + 1] == (4.0**35, 4.0**67) and len(calls) == 2
    calls.clear()
    assert lattice_search(env, (1.0, 0.0, 0.0), 0.0, 1e-11) == (jb, b)
    assert len(calls) == jb - msr._UNIT + 1


def exact_tail(env, T, g_power=0.0, g_decay=0.0):
    """c * Gamma(a, s*T) / s**a in mpmath: the integral that Envelope.tail bounds."""
    a = mp.mpf(env.power + g_power) + 1
    s = mp.mpf(env.decay + g_decay)
    return mp.mpf(env.coef) * mp.gammainc(a, s * mp.mpf(T)) / s**a


# a from 1e-3 to 60 and x from 1e-2 to 1e4, plus x on both sides of a - 1 and
# a + 1, and the (coef, s) scales that turn one Gamma(a, x) into one tail
GAMMA_A = sorted({*np.geomspace(1e-3, 60.0, 19).tolist(), 0.2499, 0.25, 0.5, 1.0, 2.0, 2.7374})
GAMMA_X = np.geomspace(1e-2, 1e4, 23).tolist()
TAIL_SCALES = [(1.0, 1.0), (1e-30, 0.5), (3e20, 1e-3), (0.7, 40.0)]


@pytest.mark.parametrize("a", GAMMA_A)
def test_upper_gamma_bounds_the_40_digit_value(a):
    edges = [a - 1.0, math.nextafter(a - 1.0, math.inf), a + 1.0, 0.999 * (a + 1.0)]
    for x in GAMMA_X + edges:
        if not 1e-2 <= x <= 1e4:
            continue
        for coef, s in TAIL_SCALES:
            env = msr.Envelope(coef, a - 1.0, s, cutoff=x / s)
            got = env.tail(x / s)
            assert math.isfinite(got) and mp.mpf(got) >= exact_tail(env, x / s), (a, x, coef, s)


@pytest.mark.parametrize("a, x, log_scale", [
    (0.5, 0.376, 3.0), (1.0, 32.0, -40.0), (2.7374, 1.0, 2.5), (181.0, 2000.0, 0.0),
    (46.233819302566715, 979.9467141688467, 0.0),
    (1e-3, 0.5, 700.0), (3.0, 1e-300, -750.0), (0.5, 1e305, 0.0), (200.0, 150.0, -800.0),
])
def test_upper_gamma_scaled_and_extreme(a, x, log_scale):
    # exp(log_scale) * Gamma(a, x) as the tail of an envelope with
    # log(coef) - a*log(s) = log_scale, the decay s taking what coef cannot
    s = math.exp((min(max(log_scale, -700.0), 700.0) - log_scale) / a)
    env = msr.Envelope(math.exp(log_scale + a * math.log(s)), a - 1.0, s, cutoff=x / s)
    got, want = env.tail(x / s), exact_tail(env, x / s)
    assert math.isfinite(got) and mp.mpf(got) >= want
    if want <= mp.mpf(np.finfo(float).tiny):  # it underflows: one subnormal up
        assert got == math.nextafter(0.0, 1.0)


def test_upper_gamma_overflow_is_inf():
    assert msr.Envelope(1.0, 199.0, 1.0).tail(100.0) == math.inf
    assert msr.Envelope(1e300, 1.0, 1e-10).tail(1.0) == math.inf
    # below x = power the bound is Gamma(1e308 + 1), whose log overflows a double
    assert msr.Envelope(1.0, 1e308, 1.0).tail(4.0) == math.inf


def test_tail_bound_stays_finite_where_gamma_overflows():
    # Gamma(181) overflows a double and Q(181, 2000) underflows; their product
    # does not; x**a e**-x / (x - a + 1) is 5.4e-5 above it
    env = msr.Envelope(1.0, 180.0, 1.0)
    b = env.tail(2000.0)
    want = exact_tail(env, 2000.0)
    assert mp.mpf(b) >= want and float(mp.mpf(b) / want - 1) <= 1e-4
    assert 1e-275 < b < 1e-274


# the package's decaying densities: exp, log_sigma and gamma
DECAYING = [pk.density_from_spec("exp").tail_env, pk.density_from_spec("log_sigma").tail_env,
            *(pk.density_from_spec("gamma", {"alpha": al}).tail_env for al in (0.5, 1.5, 3.0))]


@pytest.mark.parametrize("env", DECAYING, ids=["exp", "log_sigma", "gamma0.5", "gamma1.5", "gamma3"])
def test_truncation_point_matches_the_exact_tail_search(env):
    # the lattice search on the exact tail picks j_exact; the bound may only
    # lose a lattice point where a = power + g_power + 1 <= 0
    with mp.workdps(30):
        for g_power, g_decay, budget in itertools.product((-1.0, 0.0, 1.5, 3.0), (0.0, 0.5, 6.0),
                                                          (1e-12, 1e-7)):
            j_exact = msr._UNIT
            while exact_tail(env, msr._LATTICE[j_exact], g_power, g_decay) > budget:
                j_exact += 1
            jb, _ = msr._tail_panel(env, (1.0, g_power, g_decay), 0.0, budget)
            assert j_exact <= jb <= j_exact + 1, (g_power, g_decay, budget)
            if env.power + g_power + 1.0 > 0.0:
                assert jb == j_exact, (g_power, g_decay, budget)


@pytest.mark.parametrize("spec, alphas, want", [
    ("stable_sigma", (0.25, 0.5, 0.75), lambda al: al / mp.gamma(1 - al)),
    ("gamma", (0.5, 1.5, 3.0), lambda al: 1 / mp.gamma(al)),
    ("signed_power", (1.25, 1.5, 1.75), lambda al: al * (al - 1) / mp.gamma(2 - al)),
])
def test_catalog_gamma_coefficients(spec, alphas, want):
    for alpha in alphas:
        if spec == "signed_power":
            coef = pk.get(spec, alpha=alpha).lk_data.mu.density.head.coef
        else:
            coef = pk.density_from_spec(spec, {"alpha": alpha}).head.coef
        ref = want(mp.mpf(alpha))
        assert abs(float((mp.mpf(coef) - ref) / ref)) <= 1e-15, alpha


def test_laplace_deriv_matches_analytic():
    # (d/dt)^k 1/(1+t) = (-1)^k k! (1+t)^{-k-1}
    mu = exp_measure()
    for k in (1, 2, 3):
        for t in (0.5, 1.0):
            lv = msr.laplace_deriv(mu, t, k)
            want = (-1.0) ** k * math.factorial(k) * (1.0 + t) ** (-k - 1)
            assert abs(lv.value - want) <= 1e-9


def test_laplace_deriv_atoms_exact():
    mu = pk.Measure(atoms=((0.7, 1.3), (2.0, 0.4)))
    want = 1.3 * (-0.7) ** 2 * math.exp(-0.7) + 0.4 * (-2.0) ** 2 * math.exp(-2.0)
    assert msr.laplace_deriv(mu, 1.0, 2).value == pytest.approx(want, rel=1e-14, abs=0.0)


def test_a_power_decay_density_past_the_overflow_of_its_power_keeps_its_mass():
    # lam**150 overflows past lam = 1.1e2, where e**-lam still holds it finite
    mu = pk.Measure(density=pk.density_from_spec("power_decay", {"power": 150.0, "decay": 1.0}),
                    support=msr.HALF_LINE)
    assert msr.total_mass(mu) == pytest.approx(math.gamma(151.0), rel=1e-13, abs=0.0)


def test_masses():
    mu = exp_measure()
    assert msr.total_mass(mu) == pytest.approx(1.0, abs=1e-9)
    assert msr.tail_mass(mu, 2.0) == pytest.approx(math.exp(-2.0), abs=1e-7)
    atoms = pk.Measure(atoms=((0.5, 1.0), (3.0, 2.0)))
    assert msr.total_mass(atoms) == 3.0
    assert msr.tail_mass(atoms, 1.0) == 2.0


@pytest.mark.parametrize("integral, what", [
    (msr.total_mass, "total mass"),
    (lambda mu: msr.tail_mass(mu, 0.5), "tail mass"),
    (msr.one_wedge_integral, "one-wedge integral"),
])
def test_a_mass_that_overflows_is_divergent(integral, what):
    # two finite atoms whose weights sum past the largest float, as laplace(mu, 0) finds
    mu = pk.Measure(atoms=((1.0, 1e308), (2.0, 1e308)))
    with np.errstate(over="ignore"):
        with pytest.raises(pk.DivergentIntegral, match="^transform overflowed at t = 0$"):
            msr.laplace(mu, 0.0)
        with pytest.raises(pk.DivergentIntegral, match=f"^{what} overflowed$"):
            integral(mu)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_transform_needs_a_finite_t(t):
    # NaN read as a divergent transform
    with pytest.raises(pk.DomainError, match=f"transform needs a finite t, got {t}"):
        msr.laplace(exp_measure(), np.array([1.0, t]))


@pytest.mark.parametrize("k", [1.5, -1, math.nan, math.inf])
def test_laplace_deriv_needs_an_integer_order(k):
    # k = 1.5 was taken as k = 1
    with pytest.raises(ValueError, match="derivative order must be an integer >= 0"):
        msr.laplace_deriv(exp_measure(), 1.0, k)


def test_tail_mass_rejects_a_nan_cut():
    # NaN passed T < 0 and gave a mass of 0
    with pytest.raises(ValueError, match="T must be nonnegative"):
        msr.tail_mass(exp_measure(), math.nan)


def test_gridded_tail_mass_cuts_the_interpolant():
    g = np.linspace(0.0, 5.0, 11)
    v = np.exp(-g)
    mu = pk.Measure(density=msr.GriddedDensity(g, v), support=(0.0, 5.0))
    assert msr.tail_mass(mu, 0.0) == pytest.approx(np.trapezoid(v, g), rel=0.0, abs=1e-12)
    # the cut cell [2.25, 2.5] starts at the interpolated value
    want = 0.125 * (np.interp(2.25, g, v) + v[5]) + np.trapezoid(v[5:], g[5:])
    assert msr.tail_mass(mu, 2.25) == pytest.approx(want, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("T", [0.5, 1.0, 4.0])
def test_singular_head_tail_mass(T):
    # (alpha / Gamma(1 - alpha)) int_T^inf lam^(-3/2) dlam = 1/sqrt(pi T) at alpha = 1/2
    sig = pk.Measure(
        density=pk.density_from_spec("stable_sigma", {"alpha": 0.5}), support=(0, np.inf)
    )
    assert abs(msr.tail_mass(sig, T) - 1.0 / math.sqrt(math.pi * T)) <= 1e-10


@pytest.mark.parametrize("T", [0.5, 1.0, 3.0])
def test_two_sided_tail_mass(T):
    # e^-|lam| on [-2, inf) plus atoms at -1.5 and 0.5; the [-2, -T) piece is
    # empty at T = 3 and the atom at 0.5 is not beyond T = 0.5
    dens = msr.FuncDensity(lambda x: np.exp(-np.abs(x)), -2.0, math.inf,
                           msr.HeadBound(1.0, 0.0, 1.0), msr.Envelope(1.0, 0.0, 1.0))
    mu = pk.Measure(atoms=((-1.5, 0.25), (0.5, 1.0)), density=dens)
    lower = max(math.exp(-T) - math.exp(-2.0), 0.0)
    atoms = 0.25 * (T < 1.5) + 1.0 * (T < 0.5)
    assert abs(msr.tail_mass(mu, T) - (lower + math.exp(-T) + atoms)) <= 1e-8


def test_one_wedge_integral():
    # int min(1, lam) e^{-lam}/lam dlam = 1 - e^{-1} + E1(1)
    sig = pk.Measure(density=pk.density_from_spec("log_sigma"), support=(0, np.inf))
    want = 1.0 - math.exp(-1.0) + float(special.exp1(1.0))
    assert abs(msr.one_wedge_integral(sig) - want) <= 1e-9

    # stable sigma, alpha=1/2: c*(2 + 2) with c = alpha/Gamma(1-alpha)
    sig = pk.Measure(
        density=pk.density_from_spec("stable_sigma", {"alpha": 0.5}), support=(0, np.inf)
    )
    assert abs(msr.one_wedge_integral(sig) - 2.0 / math.gamma(0.5)) <= 1e-9

    atoms = pk.Measure(atoms=((0.25, 2.0), (4.0, 3.0)))
    assert msr.one_wedge_integral(atoms) == pytest.approx(0.5 + 3.0)

    with pytest.raises(pk.InvalidMeasure):
        msr.one_wedge_integral(pk.Measure(atoms=((-0.5, 1.0),)))


@pytest.mark.parametrize("seed", [3, 4, 5, 6])
def test_truncation_bound_invariants(seed):
    # bound nonnegative; converged implies bound within requested tol
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-1.0, 3.0, 3)
    w = rng.uniform(0.1, 1.5, 3)
    mu = pk.Measure(
        atoms=tuple(zip(lam.tolist(), w.tolist())),
        density=pk.density_from_spec("exp"),
        support=(-1.0, np.inf),
    )
    for t in rng.uniform(0.1, 4.0, 3):
        lv = msr.laplace(mu, float(t), tol=1e-9)
        assert lv.truncation_bound >= 0.0
        if lv.converged:
            assert lv.truncation_bound <= 1e-9


def test_divergent_transforms():
    leb = pk.Measure(density=pk.density_from_spec("lebesgue"), support=(0, np.inf))
    with pytest.raises(pk.DivergentIntegral):
        msr.laplace(leb, 0.0)
    with pytest.raises(pk.DivergentIntegral):
        msr.laplace(leb, -0.5)
    stable = pk.Measure(
        density=pk.density_from_spec("stable_sigma", {"alpha": 0.5}), support=(0, np.inf)
    )
    with pytest.raises(pk.DivergentIntegral):
        msr.total_mass(stable)
    # negative support atoms are fine when the transform stays finite
    mu = pk.Measure(atoms=((-1.0, 2.0),))
    assert msr.laplace(mu, 0.5).value == pytest.approx(2.0 * math.exp(0.5), rel=1e-14, abs=0.0)


def test_an_overflowing_head_bound_is_infinite_not_an_error():
    # e**(800 * stub) overflows the head coefficient: a diverging transform still
    # raises DivergentIntegral, and a convergent one comes back with an infinite bound
    for t in (-800.0, -1.0):
        with pytest.raises(pk.DivergentIntegral):
            msr.laplace(exp_measure(), t)
    steep = pk.Measure(density=pk.density_from_spec("power_decay", {"decay": 1000.0}),
                       support=msr.HALF_LINE)
    lv = msr.laplace(steep, np.array([-800.0, 1.0]))
    assert not lv.converged and np.all(lv.truncation_bound == math.inf)
    assert lv.value == pytest.approx([1 / 200, 1 / 1001], rel=1e-13)
    # a head bound of 0 stays 0 against an infinite integrand bound
    zero = msr.FuncDensity(fn=np.zeros_like, lo=0.0, hi=5.0, head=msr.HeadBound(0.0))
    lv = msr.laplace(pk.Measure(density=zero, support=(0.0, 5.0)), -800.0)
    assert lv == msr.LaplaceValue(0.0, 0.0, True)


def test_invalid_measures():
    with pytest.raises(pk.InvalidMeasure):
        pk.Measure(atoms=((1.0, -0.5),))
    with pytest.raises(pk.InvalidMeasure):
        msr.FuncDensity(fn=lambda x: x, lo=0.0, hi=np.inf, head=msr.HeadBound(1.0))
    bad = msr.FuncDensity(
        fn=lambda lam: np.cos(3 * lam),
        lo=0.0,
        hi=np.inf,
        head=msr.HeadBound(1.0),
        tail_env=msr.Envelope(1.0, 0.0, 1.0),
    )
    with pytest.raises(pk.InvalidMeasure):
        msr.laplace(pk.Measure(density=bad, support=(0, np.inf)), 1.0)


def test_gridded_density():
    g = np.linspace(0.0, 40.0, 4001)
    mu = pk.Measure(density=msr.GriddedDensity(grid=g, values=np.exp(-g)), support=(0.0, 40.0))
    lv = msr.laplace(mu, 1.0)
    # piecewise-linear model of e^{-lam}; rule disagreement is reported honestly
    assert abs(lv.value - 0.5) <= 1e-4
    assert lv.truncation_bound >= 0.0
    with pytest.raises(pk.InvalidMeasure):
        msr.GriddedDensity(grid=g, values=-np.ones_like(g))


def test_point_mass_helper():
    mu = msr.point_mass(2.0, 0.5)
    assert mu.atoms == ((2.0, 0.5),)
    assert msr.laplace(mu, 1.0).value == pytest.approx(0.5 * math.exp(-2.0), rel=1e-15, abs=0.0)


def test_json_roundtrip_is_exact():
    mu = pk.Measure(
        atoms=((1.0 / 3.0, 0.1 + 0.2), (2.0, 1e-300)),
        density=pk.density_from_spec("gamma", {"alpha": 1.5}),
        support=(0.0, np.inf),
    )
    text = pk.measure_to_json(mu)
    back = pk.measure_from_json(text)
    assert back.atoms == mu.atoms
    assert back.support == mu.support
    assert back.density.params == {"alpha": 1.5}
    # repeated round trips are byte-stable
    assert pk.measure_to_json(back) == text
    for t in (0.5, 2.0):
        assert msr.laplace(back, t).value == msr.laplace(mu, t).value


def test_json_roundtrip_gridded():
    g = np.linspace(0.0, 5.0, 11)
    mu = pk.Measure(density=msr.GriddedDensity(grid=g, values=np.exp(-g)), support=(0.0, 5.0))
    back = pk.measure_from_json(pk.measure_to_json(mu))
    np.testing.assert_array_equal(back.density.grid, g)
    np.testing.assert_array_equal(back.density.values, np.exp(-g))
    assert back.density.rule == "trapezoid"


def test_a_nan_grid_point_is_named_as_not_finite():
    with pytest.raises(pk.InvalidMeasure, match="finite"):
        msr.GriddedDensity(np.array([0.0, math.nan, 2.0]), np.ones(3))


@pytest.mark.parametrize("doc", [
    {"density": "catalog"},
    {"density": [1, 2]},
    {"density": {"catalog": "gamma", "params": [1]}},
    {"density": {"catalog": ["gamma"]}},
    {"density": {"catalog": "gamma", "params": {"alpha": None}}},
    {"density": {"grid": [0, "x"], "values": [1, 1]}},
    {"atoms": [{"lambda": None, "weight": 1.0}]},
    {"atoms": [{"lambda": "x", "weight": 1.0}]},
    # a support that is not a list of two numbers, though "05" and {"0": 1, "5": 2} iterate as 0, 5
    {"atoms": [{"lambda": 1.0, "weight": 1.0}], "support": "05"},
    {"atoms": [{"lambda": 1.0, "weight": 1.0}], "support": {"0": 1, "5": 2}},
    {"atoms": [{"lambda": 1.0, "weight": 1.0}], "support": [0, 5, 9]},
], ids=["density_string", "density_list", "params_list", "catalog_list", "param_null",
        "grid_letter", "lambda_null", "lambda_letter", "support_digits", "support_object",
        "support_three"])
def test_malformed_measure_doc_raises_invalid_measure(doc):
    with pytest.raises(pk.InvalidMeasure):
        msr.measure_from_doc(doc)



def test_a_measure_doc_without_support_lies_on_the_line():
    assert msr.measure_from_doc({"atoms": []}).support == (-math.inf, math.inf)


def test_a_gridded_density_is_integrated_as_the_function_density_it_is(monkeypatch):
    g, v = np.array([0.0, 1.0, 5.0, 20.0]), np.array([1.0, 0.5, 0.2, 0.0])
    mu = pk.Measure(density=msr.GriddedDensity(grid=g, values=v, rule="trapezoid"),
                    support=(0.0, 20.0))
    dens = mu.density
    assert isinstance(dens, msr.FuncDensity)
    assert (dens.lo, dens.hi, dens.rule) == (0.0, 20.0, "trapezoid")
    np.testing.assert_array_equal(dens.grid, g)
    np.testing.assert_array_equal(dens.values, v)
    np.testing.assert_array_equal(dens.knots, g)
    seen, integrate = [], msr._integrate_func_density
    monkeypatch.setattr(msr, "_integrate_func_density",
                        lambda dens, *args: seen.append(dens) or integrate(dens, *args))
    msr.laplace(mu, 1.0)
    assert len(seen) == 1 and seen[0] is dens


@pytest.mark.parametrize("top, ok", [(1e6, True), (1.0, False)])
def test_negative_density_rounding_is_judged_on_the_density_scale(top, ok):
    # -1e-8 is rounding beside values near 3.7e5, and a negative density beside values below 1
    dens = msr.FuncDensity(lambda x: np.where(x > 1.0, top * np.exp(-x), -1e-8), 0.0, math.inf,
                           head=msr.HeadBound(1e-8), tail_env=msr.Envelope(top, 0.0, 1.0))
    mu = pk.Measure(density=dens, support=(0.0, math.inf))
    if ok:
        assert math.isfinite(msr.laplace(mu, 1.0).value)
    else:
        with pytest.raises(pk.InvalidMeasure, match="negative values"):
            msr.laplace(mu, 1.0)


def test_kronrod_table_is_the_g10_k21_pair():
    x, w = msr._KRONROD_NODES, msr._KRONROD_WEIGHTS
    assert x.shape == (21,) and w.shape == (21, 2)
    # QUADPACK's qk21: largest node and centre Kronrod weight
    assert x[-1] == 0.995657163025808080735527280689003
    assert w[10, 0] == 0.149445554002916905664936468389821
    # Kronrod exact to degree 31, its embedded Gauss rule to degree 19
    for d in range(32):
        want = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert abs(w[:, 0] @ x**d - want) <= 1e-15
        if d <= 19:
            assert abs(w[:, 1] @ x**d - want) <= 1e-15
    gauss = w[:, 1] > 0.0
    gx, gw = np.polynomial.legendre.leggauss(10)
    np.testing.assert_array_max_ulp(x[gauss], gx, maxulp=4)
    np.testing.assert_array_max_ulp(w[gauss, 1], gw, maxulp=8)
    assert np.all(w[:, 0] > 0.0) and np.all(np.diff(x) > 0.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


def test_import_computes_no_rule_table():
    # the rule is a literal table, so the package never loads numpy.polynomial
    out = subprocess.run(
        [sys.executable, "-c", "import sys, posdefkit; print('numpy.polynomial' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"


def counted_density(fn, calls, **kwargs):
    """A FuncDensity of fn that records the size of every call, with a fresh lattice memo."""
    return msr.FuncDensity(fn=lambda lam: calls.append(lam.size) or fn(lam), **kwargs)


@pytest.mark.parametrize("k", [0, 1])
def test_refined_bound_covers_the_error_at_an_interior_kink(k):
    # a kink inside the panels: no mesh converges, so every level runs, and
    # each refined value must agree with the last mesh as well as with Gauss
    ts = np.array([0.5, 2.0])
    kink = mp.mpf("1.3")
    want = [float((-1) ** k * mp.quad(lambda lam: abs(lam - kink) * lam**k * mp.exp(-lam * t),
                                      [0, kink, 3])) for t in ts]
    for tol in (1e-6, 1e-8, 1e-10):
        calls = []
        dens = counted_density(lambda lam: np.abs(lam - 1.3), calls, lo=0.0, hi=3.0,
                               head=msr.HeadBound(1.3, 0.0, 1.0))
        lv = msr.laplace_deriv(pk.Measure(density=dens, support=(0.0, 3.0)), ts, k, tol)
        # a fresh density is evaluated once per level, on 21 * 2**level nodes a lattice panel
        assert len(calls) >= 2
        assert calls == [calls[0] * 2**level for level in range(len(calls))]
        assert np.all(np.abs(lv.value - want) <= lv.truncation_bound)


# name -> (density params, head power p and decay d of c lam**p e**-(d lam),
# its coefficient c, and the Bernstein integral of 1 - e**-(lam t) against it)
SMOOTH = {
    "exp": lambda a: (1.0, 0.0, 1.0, lambda t: t / (1 + t)),
    "gamma": lambda a: (1 / mp.gamma(a), a - 1, 1.0, lambda t: 1 - (1 + t) ** -a),
    "stable_sigma": lambda a: (0.5 / mp.sqrt(mp.pi), -1.5, 0.0, lambda t: mp.sqrt(t)),
    "log_sigma": lambda a: (1.0, -1.0, 1.0, lambda t: mp.log1p(t)),
}


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(SMOOTH)),
    alpha=st.floats(0.5, 3.0),
    k=st.integers(0, 3),
    ts=st.lists(st.floats(0.02, 6.0), min_size=1, max_size=5),
)
def test_smooth_densities_meet_their_bounds(name, alpha, k, ts):
    params = {"alpha": alpha} if name == "gamma" else {}
    dens = pk.density_from_spec(name, params)
    mu = pk.Measure(density=dens, support=msr.HALF_LINE)
    c, p, d, bern = SMOOTH[name](mp.mpf(alpha))
    ts = np.array(ts)
    # c Gamma(p+k+1) (d+t)**-(p+k+1), finite where p + k > -1
    if p + k > -1:
        lv = msr.laplace_deriv(mu, ts, k)
        want = [float((-1) ** k * c * mp.gamma(p + k + 1) * (d + mp.mpf(t)) ** -(p + k + 1))
                for t in ts]
        assert lv.converged
        assert np.all(np.abs(lv.value - want) <= lv.truncation_bound)
        assert np.all(lv.truncation_bound <= TOL)
    lv = lk.synth_bernstein(lk.BernsteinRep(a=0.0, b=0.0, sigma=mu), ts, full=True)
    assert lv.converged
    assert np.all(np.abs(lv.value - [float(bern(mp.mpf(t))) for t in ts]) <= lv.truncation_bound)
    assert np.all(lv.truncation_bound <= TOL)


@settings(max_examples=60, deadline=None)
@given(
    coef=st.floats(0.2, 3.0),
    power=st.floats(-0.95, 3.0, exclude_min=True),
    decay=st.floats(0.05, 6.0),
    k=st.integers(0, 3),
    log_tol=st.floats(-12.0, -6.0),
    ts=st.lists(st.floats(0.02, 6.0), min_size=1, max_size=5),
)
def test_log_space_panels_keep_power_decay_transforms_within_their_bounds(coef, power, decay, k,
                                                                         log_tol, ts):
    # c lam**p e**-(d lam) has k-th transform derivative (-1)**k c Gamma(p+k+1) (t+d)**-(p+k+1)
    dens = pk.density_from_spec("power_decay", {"coef": coef, "power": power, "decay": decay})
    mu = pk.Measure(density=dens, support=msr.HALF_LINE)
    ts, tol = np.array(ts), 10.0**log_tol
    lv = msr.laplace_deriv(mu, ts, k, tol)
    a = mp.mpf(power) + k + 1
    want = np.array([float((-1) ** k * coef * mp.gamma(a) / (mp.mpf(t) + decay) ** a) for t in ts])
    slack = 8 * np.finfo(float).eps * np.maximum(1.0, np.abs(want))
    assert np.all(np.abs(lv.value - want) <= lv.truncation_bound + slack)
    # wherever the rounding allowance leaves room, the level-0 rule converges:
    # a Gauss column off by a part in 1e6 shows here, not in the bound
    if 16 * np.finfo(float).eps * np.abs(want).max() <= tol / 10:
        assert lv.converged


def test_a_smooth_batch_evaluates_its_density_once_on_the_level_0_mesh():
    # the Bernstein synthesis of sqrt over the arguments of a 12-point gram_plus:
    # one density call on 21 nodes per lattice panel from the stub to the truncation
    rep = pk.get("power", alpha=0.5).lk_data
    dens, calls = rep.sigma.density, []
    counted = dataclasses.replace(dens, fn=lambda lam: calls.append(lam.copy()) or dens.fn(lam))
    rep = dataclasses.replace(rep, sigma=dataclasses.replace(rep.sigma, density=counted))
    calls.clear()  # the representation's own integrability check
    counted._lattice.clear()
    grid = pk.chebyshev_grid(0.1, 3.0, 12)
    lv = lk.synth_bernstein(rep, np.unique(0.5 * (grid[:, None] + grid)), full=True)
    assert lv.converged
    (nodes,) = calls
    ja = bisect.bisect_right(msr._LATTICE, nodes.min()) - 1
    jb = bisect.bisect_left(msr._LATTICE, nodes.max())
    assert msr._LATTICE[ja] < nodes.min() and nodes.max() < msr._LATTICE[jb]
    assert nodes.size == 21 * (jb - ja)


def test_benchmark_times_the_package_quadrature_tolerance():
    # perfbench states its own SYNTH_TOL; read it without importing perfbench
    bench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    for name in ("rounds.py", "oracles.py"):
        tree = ast.parse((bench / name).read_text(encoding="utf-8"))
        values = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "SYNTH_TOL" for t in node.targets)]
        assert values == [msr.QUAD_TOL], name


@pytest.mark.parametrize("rule", ["gauss-composite", "trapezoid"])
def test_gridded_rules_bound_the_interpolant_integral(rule):
    grid = np.array([0.0, 0.5, 1.5, 3.0, 6.0, 10.0])
    vals = np.array([1.0, 0.7, 0.4, 0.1, 0.05, 0.0])
    mu = pk.Measure(density=msr.GriddedDensity(grid, vals, rule), support=(0.0, 10.0))
    ts = np.array([0.3, 1.7, 5.0])
    lv = msr.laplace(mu, ts)
    cells = list(zip(grid[:-1], grid[1:], vals[:-1], vals[1:]))
    for t, value, bound in zip(ts, lv.value, lv.truncation_bound):
        # the piecewise-linear interpolant against e**-(lam t), cell by cell
        want = mp.fsum(mp.quad(lambda lam: (v0 + (v1 - v0) * (lam - g0) / (g1 - g0))
                               * mp.exp(-lam * t), [g0, g1]) for g0, g1, v0, v1 in cells)
        assert abs(value - float(want)) <= bound
        if rule == "gauss-composite":
            assert bound <= 1e-12


@pytest.mark.parametrize("what", ["one_wedge", "tail_mass"])
def test_gridded_integrals_keep_a_break_inside_a_cell_on_a_panel_edge(what):
    # min(1, lam) kinks at 1 and the tail indicator jumps at 1.2, both inside the cell [0.7, 1.6]
    grid, vals = np.array([0.2, 0.7, 1.6, 3.0]), np.array([1.0, 0.6, 0.9, 0.1])
    mu = pk.Measure(density=msr.GriddedDensity(grid, vals, "gauss-composite"),
                    support=msr.HALF_LINE)
    rho = lambda lam: mp.mpf(np.interp(float(lam), grid, vals))
    if what == "one_wedge":
        got = msr.one_wedge_integral(mu)
        want = mp.quad(lambda lam: min(1, lam) * rho(lam), [0.2, 0.7, 1.0, 1.6, 3.0])
    else:
        got, want = msr.tail_mass(mu, 1.2), mp.quad(rho, [1.2, 1.6, 3.0])
    assert abs(got - float(want)) <= 1e-12


def test_gridded_density_halves_the_cells_that_miss_tol():
    # one G10/K21 pass over the single cell misses tol at t = 8 by 4e7x; halving it converges
    mu = pk.Measure(density=msr.GriddedDensity(np.array([0.0, 10.0]), np.array([1.0, 0.0]),
                                               "gauss-composite"), support=(0.0, 10.0))
    ts = np.array([2.0, 8.0])
    lv = msr.laplace(mu, ts)
    want = [float(mp.quad(lambda lam: (1 - lam / 10) * mp.exp(-lam * t), [0, 10])) for t in ts]
    assert lv.converged
    assert np.all(np.abs(lv.value - want) <= lv.truncation_bound)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=12, unique=True),
       st.integers(0, msr._MAX_LEVEL))
def test_knot_edges_are_the_interpolated_edges(points, level):
    # the knot mesh at each level, and each slice of it, as np.interp builds it
    knots = np.array(sorted(points))
    dens = msr.GriddedDensity(knots, np.ones(knots.size))
    n, per = knots.size - 1, 2**level
    want = np.interp(np.arange(n * per + 1) / per, np.arange(n + 1), knots)
    assert np.array_equal(msr._lattice_edges(dens, 0, n, level), want)
    j0, j1 = n // 3, n - n // 3
    assert np.array_equal(msr._lattice_edges(dens, j0, j1, level), want[j0 * per:j1 * per + 1])


def test_a_repeat_on_a_gridded_density_evaluates_it_no_more(monkeypatch):
    # the density calls the np.interp it was built with: count those calls
    calls, interp = [], np.interp
    monkeypatch.setattr(np, "interp", lambda x, **kw: calls.append(np.size(x)) or interp(x, **kw))
    grid = np.linspace(0.0, 8.0, 9)
    mu = pk.Measure(density=msr.GriddedDensity(grid, np.exp(-grid)), support=msr.HALF_LINE)
    ts = np.array([0.5, 4.0])
    for m in (mu, msr.lambda_weighted(mu)):
        first, seen = msr.laplace(m, ts), len(calls)
        assert seen and m.density._lattice
        again = msr.laplace(m, ts)
        assert len(calls) == seen
        assert np.array_equal(again.value, first.value)
        assert np.array_equal(again.truncation_bound, first.truncation_bound)


def test_the_kronrod_twin_shares_the_knot_memo(monkeypatch):
    # tail_mass integrates a new "gauss-composite" twin of a trapezoid density
    # each call: the same interpolant on the same knots, so it reads their memo
    calls, interp = [], np.interp
    monkeypatch.setattr(np, "interp", lambda x, **kw: calls.append(np.size(x)) or interp(x, **kw))
    grid = np.linspace(0.0, 8.0, 201)
    mu = pk.Measure(density=msr.GriddedDensity(grid, np.exp(-grid)), support=msr.HALF_LINE)
    evaluated, masses = [], []
    for _ in range(3):
        calls.clear()
        masses.append(msr.tail_mass(mu, 2.0))
        evaluated.append(sum(calls))
    assert evaluated[0] > 0 and evaluated[1:] == [0, 0]
    assert masses[0] == masses[1] == masses[2]


@pytest.mark.parametrize("kwargs", [
    {"support": (0.0,)},
    {"support": (1.0, 0.0)},
    {"support": "x"},
    {"support": (0.0, math.nan)},
    {"atoms": ((-1.0, 1.0),), "support": msr.HALF_LINE},
    {"density": pk.density_from_spec("exp"), "support": (1.0, math.inf)},
    {"density": msr.GriddedDensity(np.array([0.0, 5.0]), np.ones(2)), "support": (0.0, 4.0)},
], ids=["one_entry", "reversed", "letter", "nan", "atom_outside", "func_outside",
        "grid_outside"])
def test_measure_needs_a_support_that_holds_it(kwargs):
    with pytest.raises(pk.InvalidMeasure):
        pk.Measure(**kwargs)


def test_lambda_weighted_moves_the_measure_one_power_up():
    mu = pk.Measure(atoms=((0.5, 2.0),), density=pk.density_from_spec("gamma", {"alpha": 1.5}),
                    support=msr.HALF_LINE)
    weighted = msr.lambda_weighted(mu)
    assert weighted.atoms == ((0.5, 1.0),)
    # the transform of lam*mu is minus the slope of mu's transform
    t = np.array([0.5, 2.0])
    got, slope = msr.laplace(weighted, t), msr.laplace_deriv(mu, t, 1)
    assert got.converged and slope.converged
    assert np.all(np.abs(got.value + slope.value)
                  <= got.truncation_bound + slope.truncation_bound + 1e-15)
    for bad in (pk.Measure(atoms=((-1.0, 1.0),)),
                pk.Measure(density=pk.GriddedDensity(np.array([-1.0, 1.0]), np.ones(2)))):
        with pytest.raises(pk.InvalidMeasure):
            msr.lambda_weighted(bad)


def counted_exp(calls):
    """The exp density, counting the nodes of every call, with a fresh lattice memo."""
    dens = pk.density_from_spec("exp")
    return dataclasses.replace(dens, fn=lambda lam: calls.append(lam.size) or dens.fn(lam))


def test_a_repeat_inside_the_lattice_range_evaluates_no_density():
    calls = []
    mu = pk.Measure(density=counted_exp(calls), support=msr.HALF_LINE)
    msr.laplace(mu, np.array([0.5, 2.0]))
    assert len(calls) == 1
    # a fresh t inside the batch: its stub and truncation fall inside the batch's slice
    lv = msr.laplace(mu, 1.3)
    assert len(calls) == 1
    # a slice of the memo gives the bits of a fresh lattice
    fresh = msr.laplace(pk.Measure(density=counted_exp([]), support=msr.HALF_LINE), 1.3)
    assert (lv.value, lv.truncation_bound) == (fresh.value, fresh.truncation_bound)


@pytest.mark.parametrize("first, then", [((20.0, 1e-6), (0.01, 1e-6)), ((2.0, 1e-6), (2.0, 1e-12))],
                         ids=["tail", "stub"])
def test_a_wider_range_evaluates_only_its_new_panels(first, then):
    # gamma(1/2): a smaller t truncates further out, a smaller tol also leaves a smaller stub
    calls = []
    dens = pk.density_from_spec("gamma", {"alpha": 0.5})
    dens = dataclasses.replace(dens, fn=lambda lam, fn=dens.fn: calls.append(lam.size) or fn(lam))
    mu = pk.Measure(density=dens, support=msr.HALF_LINE)
    msr.laplace(mu, *first)
    (j0, j1, *_), = dens._lattice.values()
    lv = msr.laplace(mu, *then)
    assert lv.converged and abs(lv.value - (1.0 + then[0]) ** -0.5) <= lv.truncation_bound
    (k0, k1, *_), = dens._lattice.values()
    assert (k0 < j0, j1 < k1) == ((True, False) if then[1] < first[1] else (False, True))
    assert calls[1:] == [21 * n for n in (j0 - k0, k1 - j1) if n]


def test_refinement_levels_grow_their_own_lattices():
    # the kink density at two tolerances: each level adds 21 * 2**level nodes per new panel
    calls = []
    dens = counted_density(lambda lam: np.abs(lam - 1.3), calls, lo=0.0, hi=3.0,
                           head=msr.HeadBound(1.3, 0.0, 1.0))
    mu = pk.Measure(density=dens, support=(0.0, 3.0))
    msr.laplace(mu, np.array([0.5, 2.0]), 1e-6)
    before = {level: memo[:2] for level, memo in dens._lattice.items()}
    calls.clear()
    msr.laplace(mu, np.array([0.5, 2.0]), 1e-10)
    after = {level: memo[:2] for level, memo in dens._lattice.items()}
    assert sorted(after) == list(range(msr._MAX_LEVEL + 1)) == sorted(before)
    assert calls == [21 * 2**level * (before[level][0] - after[level][0]) for level in after]
    assert all(after[level][1] == before[level][1] for level in after)


def test_a_replaced_density_starts_its_own_lattice():
    mu = exp_measure()
    dens, t = mu.density, np.array([0.5, 2.0])
    base = msr.laplace(mu, t)
    assert dens._lattice
    doubled = dataclasses.replace(dens, fn=lambda lam: 2.0 * dens.fn(lam))
    assert not doubled._lattice
    # doubling every density value doubles every product and sum exactly
    assert np.array_equal(msr.laplace(pk.Measure(density=doubled, support=msr.HALF_LINE), t).value,
                          2.0 * base.value)
    # lam e**-lam has transform 1 / (1 + t)**2
    weighted = msr.laplace(msr.lambda_weighted(mu), t)
    assert np.all(np.abs(weighted.value - 1.0 / (1.0 + t) ** 2) <= weighted.truncation_bound)


def test_a_density_is_checked_only_on_the_panels_a_quadrature_reaches():
    # e**-(lam/10), but negative past lam = 100: the transform at t = 5 never gets there
    calls = []
    fn = lambda lam: np.where(lam < 100.0, np.exp(-0.1 * lam), -1.0)
    dens = counted_density(fn, calls, lo=0.0, hi=math.inf, head=msr.HeadBound(1.0),
                           tail_env=msr.Envelope(1.0, decay=0.1))
    mu = pk.Measure(density=dens, support=msr.HALF_LINE)
    lv = msr.laplace(mu, 5.0)
    assert lv.converged and abs(lv.value - 1.0 / 5.1) <= lv.truncation_bound
    with pytest.raises(pk.InvalidMeasure, match="negative"):
        msr.laplace(mu, 0.01)
    # the failed panels were not kept: the first slice still costs nothing
    calls.clear()
    assert msr.laplace(mu, 5.0) == lv and not calls


@pytest.mark.parametrize("hi", [1.0 + 1e-9, 3.0, 4.0, 5.0, 1000.7, 4.0**3 * 1.0001, 2e6, 1e305])
def test_bounded_lattice_edges_increase_strictly_and_nest(hi):
    dens = msr.FuncDensity(fn=np.ones_like, lo=-0.5, hi=hi, head=msr.HeadBound(1.0))
    # the top panel ends at hi: no lattice point past it, and 1e305 ends the +inf panel
    jb = bisect.bisect_left(msr._LATTICE, hi + 0.5)
    assert msr._LATTICE[jb - 1] < hi + 0.5 <= msr._LATTICE[jb]
    j3, j1 = msr._LATTICE.index(4.0**-3), msr._LATTICE.index(4.0**-1)
    for level in range(msr._MAX_LEVEL + 1):
        edges = msr._lattice_edges(dens, j3, jb, level)
        assert edges.size == (jb - j3) * 2**level + 1
        assert np.all(np.diff(edges) > 0.0)
        assert edges[0] == 4.0**-3 and edges[-1] == hi + 0.5
        # every level splits the panels of the level before, and a slice takes its panels' edges
        if level:
            assert np.array_equal(edges[::2], msr._lattice_edges(dens, j3, jb, level - 1))
        assert np.array_equal(msr._lattice_edges(dens, j1, jb, level),
                              edges[(j1 - j3) * 2**level:])


def test_a_support_below_the_lowest_lattice_point_is_all_stub():
    # hi - lo = 1e-310 < 4**-511: panel 0 shrinks to nothing and the stub bound covers the mass
    dens = msr.FuncDensity(fn=np.ones_like, lo=0.0, hi=1e-310, head=msr.HeadBound(1.0))
    lv = msr.laplace(pk.Measure(density=dens, support=(0.0, 1e-310)), 0.0)
    assert lv.converged and abs(lv.value - 1e-310) <= lv.truncation_bound


@pytest.mark.parametrize("coef, t, tol", [(3.0, 0.02, 1e-12), (1e-30, 1.0, 1e-10)],
                         ids=["deep", "tiny_coef"])
def test_the_stub_reaches_down_to_the_smallest_normal_double(coef, t, tol):
    # 3 lam**-0.95 needs a stub near 3e-294 at tol 1e-12; at coef 1e-30 the
    # stub that meets the budget, (budget * 0.05 / coef)**20, overflows
    dens = pk.density_from_spec("power_decay", {"coef": coef, "power": -0.95, "decay": 0.05})
    lv = msr.laplace_deriv(pk.Measure(density=dens, support=msr.HALF_LINE), t, 0, tol)
    want = coef * mp.gamma(mp.mpf("0.05")) * (mp.mpf(t) + mp.mpf("0.05")) ** mp.mpf("-0.05")
    assert lv.converged
    assert abs(lv.value - float(want)) <= lv.truncation_bound
