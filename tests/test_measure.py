"""Laplace transform quadrature against closed-form oracles."""
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special

import posdefkit as pk
from posdefkit import _accel
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
    for t in (0.1, 1.0, 4.0):
        want = mp.fsum(
            mp.mpf(wi) * mp.mpf(li) ** k * mp.e ** (-mp.mpf(li) * t) for li, wi in zip(lam, w)
        )
        got = _accel.exp_weighted_sum(lam, w, t, k)
        assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)


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


def test_masses():
    mu = exp_measure()
    assert msr.total_mass(mu) == pytest.approx(1.0, abs=1e-9)
    assert msr.tail_mass(mu, 2.0) == pytest.approx(math.exp(-2.0), abs=1e-7)
    atoms = pk.Measure(atoms=((0.5, 1.0), (3.0, 2.0)))
    assert msr.total_mass(atoms) == 3.0
    assert msr.tail_mass(atoms, 1.0) == 2.0


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
    assert abs(msr.tail_mass(sig, T) - 1.0 / math.sqrt(math.pi * T)) <= 1e-8


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
