"""Reflection positivity checks on symmetric windows."""
import dataclasses
import math

import numpy as np
import pytest

import posdefkit as pk
from posdefkit import funcs as fns
from posdefkit import levykhin as lk
from posdefkit import measure as msr
from posdefkit import reflection as rf


def two_atom(c):
    # e^{-|t|} + c e^{|t|} on (-1, 1), the lam0 = 1, a = 1 family
    def f(t):
        t = np.asarray(t, dtype=np.float64)
        return np.exp(-np.abs(t)) + c * np.exp(np.abs(t))

    return fns.from_callable(f)


def test_green_is_reflection_positive():
    rep = rf.reflection_positive_check(pk.get("green", lam=1.0).func, 1.5)
    assert rep.verdict == "PASS"
    assert rep.symmetric
    assert rep.passed
    assert rep.minus_verdict.verdict == "PASS"
    assert rep.plus_verdict.verdict == "PASS"


def test_thermal_green_is_reflection_positive():
    f = pk.get("thermal_green", lam=1.0, beta=2.0).func
    assert rf.reflection_positive_check(f, 1.0).verdict == "PASS"


def test_two_atom_threshold():
    good = rf.reflection_positive_check(two_atom(math.exp(-2.0)), 1.0)
    assert good.verdict == "PASS"
    bad = rf.reflection_positive_check(two_atom(1.2 * math.exp(-1.0)), 1.0)
    assert bad.verdict == "FAIL"
    # the minus kernel is the binding route for two-sided transforms
    assert bad.minus_verdict.verdict == "FAIL"
    assert bad.plus_verdict.verdict == "PASS"
    assert len(np.asarray(bad.minus_verdict.witness)) >= 2


def test_uneven_function_fails_without_raising():
    rep = rf.reflection_positive_check(fns.from_callable(lambda t: np.exp(t)), 1.0)
    assert rep.verdict == "FAIL"
    assert not rep.symmetric


def test_rp_domain_errors():
    f = pk.get("green", lam=1.0).func
    with pytest.raises(pk.DomainError):
        rf.reflection_positive_check(f, 0.0)
    with pytest.raises(pk.DomainError):
        rf.reflection_positive_check(f, np.inf)


@pytest.mark.parametrize("alpha,want", [(0.5, "PASS"), (1.0, "PASS"), (1.5, "FAIL"), (2.0, "FAIL")])
def test_reflection_negative_powers(alpha, want):
    rep = rf.reflection_negative_check(pk.get("abs_power", alpha=alpha).func, 2.0)
    assert rep.verdict == want


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_reflection_negative_scans_match_schoenberg_check(alpha):
    psi = pk.get("abs_power", alpha=alpha).func
    rep = rf.reflection_negative_check(psi, 2.0, 10)
    for got, lo in ((rep.schoenberg_minus, -2.0), (rep.schoenberg_plus, 0.0)):
        want = pk.schoenberg_check(psi, fns.chebyshev_grid(lo, 2.0, 10))
        assert (got.verdict, got.extremal_eig, got.h) == (want.verdict, want.extremal_eig, want.h)
        if want.witness is None:
            assert got.witness is None
        else:
            np.testing.assert_array_equal(got.witness, want.witness)


def test_reflection_negative_unbounded_adds_bernstein_route():
    rep = rf.reflection_negative_check(pk.get("abs_power", alpha=0.5).func, np.inf)
    assert rep.verdict == "PASS"
    assert rep.bernstein_verdict is not None
    assert rep.bernstein_verdict.verdict == "PASS"


def test_reflection_negative_requires_even():
    f = fns.from_callable(lambda t: np.asarray(t, dtype=np.float64) + 0.0)
    with pytest.raises(pk.NotSymmetric):
        rf.reflection_negative_check(f, 1.0)


def test_polya_suite():
    grid = np.linspace(0.0, 2.0, 9)
    assert rf.polya_check(pk.get("triangle").func, grid).verdict == "PASS"
    assert rf.polya_check(pk.get("green", lam=1.0).func, grid).verdict == "PASS"
    v = rf.polya_check(pk.get("cosh").func, grid)
    assert v.verdict == "FAIL"


def test_polya_negative_value_witness():
    f = fns.from_callable(lambda t: 1.0 - np.asarray(t, dtype=np.float64))
    grid = np.linspace(0.0, 2.0, 9)
    v = rf.polya_check(f, grid)
    assert v.verdict == "FAIL"
    assert v.witness is not None
    assert f(float(np.asarray(v.witness)[0])) < 0.0


def test_polya_evaluates_phi_once_on_its_grid():
    calls = []
    base = pk.get("triangle").func
    phi = dataclasses.replace(base, fn=lambda t: calls.append(np.size(t)) or base.fn(t))
    grid = np.linspace(2.0, 0.0, 9)
    assert rf.polya_check(phi, grid).to_dict() == rf.polya_check(base, grid).to_dict()
    assert calls == [9]


def test_polya_grid_validation():
    f = pk.get("green", lam=1.0).func
    with pytest.raises(pk.DomainError):
        rf.polya_check(f, np.array([-1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        rf.polya_check(f, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="grid points must be distinct"):
        rf.polya_check(f, np.array([0.0, 0.5, 0.5, 1.0]))


def test_extendable_exp():
    psi = fns.from_callable(lambda t: np.exp(-t), domain=(0.0, np.inf))
    ok, ext = rf.extendable_check(psi, 1.0)
    assert ok
    # the extension freezes the boundary value and is even
    assert ext(-0.5) == ext(0.5) == pytest.approx(math.exp(-0.5))
    assert ext(3.0) == pytest.approx(math.exp(-1.0))


def test_extendable_depends_on_window():
    psi = fns.from_callable(lambda t: (t - 1.0) ** 2, domain=(0.0, np.inf))
    ok2, _ = rf.extendable_check(psi, 2.0)
    assert not ok2
    ok1, _ = rf.extendable_check(psi, 1.0)
    assert ok1


def test_extendable_rejects_concave():
    psi = fns.from_callable(lambda t: np.sqrt(np.maximum(t, 0.0)), domain=(0.0, np.inf))
    with pytest.raises(pk.NotConvex):
        rf.extendable_check(psi, 1.0)


def test_periodic_rp_matches_two_sided_sum():
    mu = pk.Measure(atoms=((1.0, 1.0),))
    th = pk.get("thermal_green", lam=1.0, beta=2.0).func
    for t in (-0.7, 0.3, 0.9):
        assert rf.periodic_rp(mu, 2.0, t) == pytest.approx(th(t), rel=1e-14, abs=0.0)
    # even in t and beta-periodic
    assert rf.periodic_rp(mu, 2.0, 0.4) == pytest.approx(rf.periodic_rp(mu, 2.0, -0.4), abs=1e-12)
    assert rf.periodic_rp(mu, 2.0, 0.3) == pytest.approx(rf.periodic_rp(mu, 2.0, 2.3), abs=1e-12)


def test_periodic_rp_validation():
    mu = pk.Measure(atoms=((1.0, 1.0),))
    with pytest.raises(ValueError):
        rf.periodic_rp(mu, 0.0, 0.5)
    with pytest.raises(pk.InvalidMeasure):
        rf.periodic_rp(pk.Measure(atoms=((-1.0, 1.0),)), 2.0, 0.5)


def test_double_integral_rp():
    atoms = ((1.0, 2.0, 0.5), (2.0, 3.0, 1.0))
    want = 0.5 * (math.exp(-0.7) + math.exp(-1.3)) + 1.0 * (
        math.exp(-1.4) + math.exp(-2.0 * 2.3)
    )
    assert rf.double_integral_rp(atoms, 0.7) == pytest.approx(want, rel=1e-14, abs=0.0)
    assert rf.double_integral_rp(atoms, -0.7) == rf.double_integral_rp(atoms, 0.7)
    with pytest.raises(pk.DomainError):
        rf.double_integral_rp(atoms, 2.5)
    with pytest.raises(pk.InvalidMeasure):
        rf.double_integral_rp(((1.0, -2.0, 0.5),), 0.1)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_reflection_constructions_need_a_finite_t(t):
    # NaN gave a NaN sum or a divergent transform, inf a bare math domain error
    mu = pk.Measure(atoms=((1.0, 1.0),))
    with pytest.raises(pk.DomainError, match=f"periodic construction needs a finite t, got {t}"):
        rf.periodic_rp(mu, 2.0, t)
    with pytest.raises(pk.DomainError, match=f"construction needs a finite t, got {t}"):
        rf.double_integral_rp(((1.0, 2.0, 1.0),), t)


def test_boundary_derivative_two_atom():
    a = 1.0
    good = pk.Measure(atoms=((1.0, 1.0), (-1.0, math.exp(-2.0))))
    rep = rf.boundary_derivative_check(good, a)
    assert rep.sufficient
    assert rep.rp.passed
    assert rep.necessary_witness is not None
    bad = pk.Measure(atoms=((1.0, 1.0), (-1.0, 1.2 * math.exp(-1.0))))
    rep = rf.boundary_derivative_check(bad, a)
    assert not rep.sufficient
    assert not rep.rp.passed


def test_boundary_derivative_constant_case():
    # flat transform: passes trivially, no decrease witness expected
    rep = rf.boundary_derivative_check(pk.Measure(atoms=((0.0, 1.0),)), 1.0)
    assert rep.sufficient
    assert rep.rp.passed
    assert rep.necessary_witness is None


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_boundary_derivative_halfline_coherence(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    atoms = tuple(zip(rng.uniform(0.1, 3.0, m).tolist(), rng.uniform(0.1, 1.0, m).tolist()))
    rep = rf.boundary_derivative_check(pk.Measure(atoms=atoms), 1.0)
    assert rep.sufficient
    assert rep.rp.passed
    assert rep.necessary_witness is not None


def test_boundary_derivative_reads_the_gram_bounds():
    # the library twin of the CLI's unconverged thm59 case: a coarse gridded
    # density whose transform bounds are far above the quadrature tol
    dens = pk.GriddedDensity(np.array([0.0, 1.0, 5.0, 20.0]), np.array([1.0, 0.5, 0.2, 0.0]))
    rep = rf.boundary_derivative_check(pk.Measure(density=dens, support=(0.0, 20.0)), 1.0)
    assert rep.rp.verdict == "INCONCLUSIVE"
    assert rep.rp.bound > msr.QUAD_TOL
    assert rep.necessary_witness is None
    # atom sums are exact
    atoms = pk.Measure(atoms=((0.5, 0.7), (1.3, 0.4), (2.2, 0.9)))
    rep = rf.boundary_derivative_check(atoms, 1.0)
    assert rep.rp.bound == 0.0
    assert rep.rp.verdict == "PASS"
    exp = pk.Measure(density=pk.density_from_spec("exp"), support=(0.0, math.inf))
    rep = rf.boundary_derivative_check(exp, 1.0)
    assert 0.0 < rep.rp.bound <= msr.QUAD_TOL
    assert rep.rp.verdict == "PASS"


def test_boundary_derivative_check_names_a_divergent_transform():
    mu = pk.Measure(density=pk.density_from_spec("stable_sigma", {"alpha": 0.5}),
                    support=msr.HALF_LINE)
    with pytest.raises(pk.DivergentIntegral) as exc:
        rf.boundary_derivative_check(mu, 1.0)
    assert str(exc.value) == ("integrand behaves like (lam-lo)**-1.5 at the lower endpoint; "
                              "not integrable")


def test_reflection_reports_carry_the_largest_gram_bound():
    synth = lk.reflection_negative_handle(pk.get("abs_power", alpha=0.5).lk_data)
    rn = rf.reflection_negative_check(synth, 2.0, n=8)
    assert 0.0 < rn.bound <= msr.QUAD_TOL
    assert "bound" not in rn.to_dict()
    closed = pk.get("abs_power", alpha=0.5).func
    assert rf.reflection_negative_check(closed, 2.0, n=8).bound == 0.0
    assert rf.reflection_positive_check(pk.get("green", lam=1.0).func, 1.0).bound == 0.0


def test_report_serialization():
    rep = rf.reflection_positive_check(pk.get("green", lam=1.0).func, 1.0)
    d = rep.to_dict()
    assert d["verdict"] == "PASS"
    assert d["minus"]["verdict"] == "PASS"
    assert d["plus"]["verdict"] == "PASS"
    assert d["a"] == 1.0


# the (-a, a) window: one mirrored grid, sampled once

@pytest.mark.parametrize("a", [1e-3, 0.5, 1.0, 2.5, 1e3])
def test_the_minus_window_is_mirrored_bit_for_bit(a):
    f = pk.get("green", lam=1.0).func
    for n in range(1, 65):
        grid = rf.reflection_positive_check(f, a, n=n).minus_verdict.grid
        assert grid.shape == (n,)
        assert np.array_equal(-grid[::-1], grid), n
        if n % 2:
            assert grid[n // 2] == 0.0, n


def test_a_one_point_window_is_the_point_zero():
    # a lone point at 0 gives f(0) on either kernel: 1 for exp_decay, 0 for |t|^(1/2)
    one = rf.reflection_positive_check(pk.get("exp_decay").func, 1.0, n=1)
    assert one.minus_verdict.extremal_eig == 1.0
    root = rf.reflection_positive_check(pk.get("abs_power", alpha=0.5).func, 1.0, n=1)
    assert root.minus_verdict.extremal_eig == 0.0


def _recording(fn):
    shapes = []

    def f(t):
        shapes.append(np.shape(t))
        return fn(t)

    return fns.from_callable(f), shapes


def test_evenness_is_decided_from_one_call_on_the_n_window_points():
    f, shapes = _recording(lambda t: np.exp(-np.abs(t)))
    rep = rf.reflection_positive_check(f, 1.0, n=9)
    assert rep.symmetric
    # the evenness call, then one call per Gram
    assert shapes == [(9,), (9, 9), (9, 9)]


# verdicts the window does not move

@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 4.0])
def test_green_passes_on_every_window(a):
    assert rf.reflection_positive_check(pk.get("green", lam=1.0).func, a).verdict == "PASS"


def test_thermal_green_passes_at_half_beta_and_fails_past_it():
    f = pk.get("thermal_green", lam=1.0, beta=2.0).func
    assert rf.reflection_positive_check(f, 1.0).verdict == "PASS"
    far = rf.reflection_positive_check(f, 4.0)
    assert far.verdict == "FAIL"
    assert far.minus_verdict.verdict == "FAIL"
    assert far.minus_verdict.witness is not None


def test_square_root_is_reflection_negative():
    assert rf.reflection_negative_check(pk.get("abs_power", alpha=0.5).func, 1.0).verdict == "PASS"


def test_power_three_halves_is_refuted_on_the_line_with_a_witness():
    rep = rf.reflection_negative_check(pk.get("abs_power", alpha=1.5).func, math.inf)
    assert rep.verdict == "FAIL"
    assert rep.plus_verdict.verdict == "FAIL"
    assert rep.plus_verdict.witness is not None


def test_cos_plus_a_little_cosh_is_not_reflection_positive():
    f = fns.from_callable(lambda t: np.cos(3.0 * t) + 0.2 * np.cosh(t))
    assert rf.reflection_positive_check(f, 1.0).verdict == "FAIL"


def test_an_odd_function_raises_not_symmetric_after_one_call():
    f, shapes = _recording(np.sin)
    with pytest.raises(pk.NotSymmetric):
        rf.reflection_negative_check(f, 1.0)
    assert len(shapes) == 1
