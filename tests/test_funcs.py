import warnings

import numpy as np
import pytest

import posdefkit as pk
from posdefkit import funcs as fns
from posdefkit import measure as msr


def test_chebyshev_grid_interior():
    g = fns.chebyshev_grid(0.0, 2.0, 8)
    assert g.shape == (8,)
    assert np.all(np.diff(g) > 0)
    assert g[0] > 0.0 and g[-1] < 2.0
    # first-kind nodes: cos spacing, symmetric about midpoint
    np.testing.assert_allclose(g + g[::-1], 2.0, rtol=0, atol=1e-12)


def test_uniform_grid():
    # interior points, same open-interval convention as the chebyshev grid
    g = fns.uniform_grid(-1.0, 1.0, 5)
    np.testing.assert_allclose(g, np.linspace(-1.0, 1.0, 7)[1:-1])


@pytest.mark.parametrize("grid", [fns.chebyshev_grid, fns.uniform_grid])
@pytest.mark.parametrize("lo, hi", [(2.0, 1.0), (0.0, np.inf), (1.0, 1.0)])
def test_grids_reject_an_empty_or_infinite_window(grid, lo, hi):
    with pytest.raises(ValueError, match="grid interval must be finite and nonempty"):
        grid(lo, hi, 5)


@pytest.mark.parametrize("grid", [fns.chebyshev_grid, fns.uniform_grid])
@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (np.float64(-1e308), np.float64(1e308))],
                         ids=["float", "numpy"])
def test_grids_reject_a_window_whose_width_overflows(grid, lo, hi):
    # both ends are finite but hi - lo is not: a grid error, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="grid interval must be finite and nonempty"):
            grid(lo, hi, 3)


def test_handle_calls_and_domain():
    f = fns.from_callable(np.exp, domain=(0.0, 4.0))
    assert f(1.0) == pytest.approx(np.e)
    out = f(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert out.shape == (2, 2)
    with pytest.raises(pk.DomainError):
        f(-0.5)
    with pytest.raises(pk.DomainError):
        f(np.array([1.0, 5.0]))


def test_handle_rejects_nonfinite_output():
    f = fns.from_callable(lambda t: np.full_like(np.asarray(t, dtype=np.float64), np.inf))
    with pytest.raises(pk.DomainError):
        f(0.5)


@pytest.mark.parametrize("call", [
    lambda f: f(np.array([1.0, np.nan])),
    lambda f: f(np.inf),
    lambda f: f.deriv_at(np.nan, 1),
    lambda f: pk.delta_k(f, np.nan, 0.1, 2),
    lambda f: pk.hankel_check(f, np.nan, 2),
], ids=["nan_in_array", "inf", "derivative", "delta_k", "hankel"])
def test_a_point_that_is_not_finite_is_named_not_blamed_on_f(call):
    # a NaN passes a domain test of comparisons, and exp_decay(nan) would blame f
    f = pk.get("exp_decay").func
    with pytest.raises(pk.DomainError, match=r"needs a finite t, got (nan|inf)"):
        call(f)


def test_evenize():
    f = fns.from_callable(lambda t: np.exp(-t), domain=(0.0, np.inf))
    g = fns.evenize(f)
    assert g(-2.0) == g(2.0) == pytest.approx(np.exp(-2.0))
    assert g.domain[0] == -np.inf


def test_deriv_zero_matches_eval():
    # deriv(0) must agree with plain evaluation
    entry = pk.get("exp_decay")
    f = entry.func
    assert f.deriv is not None
    t = np.array([0.5, 1.0, 2.0])
    np.testing.assert_allclose(f.deriv(t, 0), f(t), rtol=1e-15)


def test_exact_handles_report_zero_bounds():
    t = np.array([0.5, 1.0, 2.0])
    closed, plain = pk.get("exp_decay").func, fns.from_callable(np.exp)
    for f in (closed, plain):
        assert f.bounds_at(t).tobytes() == np.zeros(3).tobytes()
        assert f.bounds_at(1.0) == 0.0
    assert closed.bounds_at(t, 2).tobytes() == np.zeros(3).tobytes()
    with pytest.raises(pk.OrderTooHigh):
        plain.bounds_at(t, 1)


def transform_handle():
    mu = pk.Measure(density=pk.density_from_spec("exp"), support=(0.0, np.inf))
    return fns.quadrature_handle(lambda ts, k: msr.laplace_deriv(mu, ts, k), (0.0, np.inf),
                                 "transform", 1)


def test_evenize_forwards_the_bound_at_abs_t():
    h = transform_handle()
    t = np.array([0.3, 1.2, 2.0])
    g = fns.evenize(h)
    assert np.all(h.bounds_at(t) > 0.0)
    assert g.bounds_at(-t).tobytes() == h.bounds_at(t).tobytes()
    assert g.bounds_at(-t).tobytes() == g.bounds_at(t).tobytes()


def test_quadrature_handle_checks_orders_and_domain():
    h = transform_handle()
    # the transform's slope at 1 is -1/(1+t)^2 = -0.25, within the reported bound
    assert abs(h.deriv_at(1.0, 1) + 0.25) <= h.bounds_at(1.0, 1) <= msr.QUAD_TOL
    for call in (h.deriv_at, h.bounds_at):
        with pytest.raises(pk.OrderTooHigh):
            call(1.0, 2)
    with pytest.raises(pk.DomainError):
        h.bounds_at(-1.0)
