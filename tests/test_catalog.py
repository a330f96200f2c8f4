"""Catalog entries: flags, representations, and parameter validation."""
import numpy as np
import pytest

import posdefkit as pk
from posdefkit import catalog as cat
from posdefkit import funcs as fns


def flags_of(entry):
    return {c.flag for c in entry.known_flags}


def test_names_cover_the_builders():
    have = set(cat.names())
    want = {
        "power", "log1p", "log", "ratio", "neg_power", "neg_tlogt",
        "signed_power", "green", "thermal_green", "abs_power",
        "one_minus_cexp", "exp_decay", "cosh", "triangle",
    }
    assert want <= have


def test_get_unknown_name():
    with pytest.raises(pk.UnknownName):
        cat.get("does_not_exist")
    with pytest.raises(pk.UnknownName) as info:
        cat.get("thermal_green", lam=1.0, alpha=2.0)
    assert str(info.value) == "catalog entry 'thermal_green' accepts lam, beta, not alpha"


def test_parameter_validation():
    with pytest.raises(ValueError):
        cat.get("abs_power", alpha=2.5)
    with pytest.raises(ValueError):
        cat.get("signed_power", alpha=0.5)
    with pytest.raises(ValueError):
        cat.get("one_minus_cexp", c=-0.1)


def test_flag_semantics():
    assert "bernstein" in flags_of(cat.get("power", alpha=0.5))
    assert "bernstein" in flags_of(cat.get("log1p"))
    assert "completely_monotone" in flags_of(cat.get("neg_power", alpha=1.0))
    assert "completely_monotone" in flags_of(cat.get("exp_decay"))
    # cosh deliberately carries no definiteness flags
    assert flags_of(cat.get("cosh")) == set()
    # the signed power family sits outside the Bernstein cone for alpha > 1
    assert "bernstein" not in flags_of(cat.get("signed_power", alpha=1.5))
    assert "negative_definite" in flags_of(cat.get("signed_power", alpha=1.5))
    # same for the plain power once alpha leaves (0, 1]
    assert "bernstein" not in flags_of(cat.get("power", alpha=1.5))


def test_one_minus_cexp_bernstein_needs_small_c():
    assert "bernstein" in flags_of(cat.get("one_minus_cexp", c=0.8, lam=1.0))
    assert "bernstein" not in flags_of(cat.get("one_minus_cexp", c=1.5, lam=1.0))


def test_every_flag_has_a_source():
    for entry in cat.default_entries():
        for claim in entry.known_flags:
            assert isinstance(claim.source, str) and claim.source


def test_lk_fidelity_on_probe_grid():
    # whenever an entry ships rep data, synthesizing it reproduces the function
    for entry in cat.default_entries():
        if entry.lk_data is None:
            continue
        lo, hi = entry.check_window
        grid = fns.chebyshev_grid(lo, hi, 20)
        worst = max(abs(cat.lk_synth_value(entry, float(t)) - entry.func(float(t))) for t in grid)
        assert worst <= 1e-7, f"{entry.name}{entry.params}: {worst:g}"


def test_run_flag_check_single_entry():
    entry = cat.get("green", lam=1.0)
    claim = next(c for c in entry.known_flags if c.flag == "positive_definite")
    res = cat.run_flag_check(entry, claim)
    assert res.passed
    assert res.flag == "positive_definite"
    assert res.routes


def test_run_flag_check_detects_a_wrong_claim():
    entry = cat.get("cosh")
    bogus = cat.FlagClaim("negative_definite", {}, "not actually true")
    res = cat.run_flag_check(entry, bogus)
    assert not res.passed


def test_density_from_spec_roundtrip():
    d = cat.density_from_spec("stable_sigma", {"alpha": 0.25})
    assert d.name == "stable_sigma"
    assert d.params == {"alpha": 0.25}
    again = cat.density_from_spec(d.name, d.params)
    assert again.params == d.params
    x = np.array([0.5, 1.0, 2.0])
    np.testing.assert_array_equal(d.fn(x), again.fn(x))
    with pytest.raises(pk.UnknownName):
        cat.density_from_spec("no_such_density")


def test_default_entries_are_materialized():
    entries = cat.default_entries()
    assert len(entries) >= 15
    names = [e.name for e in entries]
    assert names.count("power") >= 3
    for e in entries:
        assert e.func(0.5 * (e.check_window[0] + e.check_window[1])) is not None


def test_lk_synth_value_dispatch():
    import math

    entry = cat.get("log1p")
    assert cat.lk_synth_value(entry, 1.0) == pytest.approx(math.log(2.0), abs=1e-9)
    entry = cat.get("abs_power", alpha=1.0)
    assert cat.lk_synth_value(entry, -1.5) == pytest.approx(1.5, abs=1e-9)
    with pytest.raises(pk.UnknownName):
        cat.lk_synth_value(cat.get("cosh"), 1.0)


def _default_entry_ids():
    return [f"{e.name}{e.params}" for e in cat.default_entries()]


@pytest.mark.parametrize("entry", cat.default_entries(), ids=_default_entry_ids())
def test_entry_records_agree_with_their_handles(entry):
    assert entry.domain == entry.func.domain
    if entry.lk_data is not None and entry.name != "abs_power":
        assert entry.lk_form == entry.lk_data.form
    assert entry.func.d_max in (0, 8)
    assert (entry.func.deriv is None) == (entry.func.d_max == 0)


_ANALYTIC = [e for e in cat.default_entries() if e.func.deriv is not None] + [
    cat.get("neg_power", alpha=0.5), cat.get("signed_power", alpha=1.0),
    cat.get("signed_power", alpha=2.0), cat.get("one_minus_cexp", c=0.5, lam=2.0),
]


@pytest.mark.parametrize("entry", _ANALYTIC, ids=[f"{e.name}{e.params}" for e in _ANALYTIC])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_analytic_derivatives_match_numeric_ones(entry, k):
    # the same function with its derivative data stripped goes the numeric route
    bare = fns.from_callable(entry.func.fn, entry.func.domain)
    t = np.array([0.5, 1.3, 2.7])
    got = entry.func.deriv_at(t, k)
    want = pk.derivative(bare, t, k)
    # the numeric route loses about three digits per order near t = 0.5
    tol = (1e-10, 1e-7, 1e-5, 1e-3)[k - 1]
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


# rep_to_json of every default entry's representation, pinned byte for byte
_REP_JSON = {
    "power{'alpha': 0.25}": '{"form": "bernstein", "a": 0, "b": 0, "sigma": {"atoms": [], "density": {"catalog": "stable_sigma", "params": {"alpha": 0.25}}, "support": [0, Infinity]}}',
    "power{'alpha': 0.5}": '{"form": "bernstein", "a": 0, "b": 0, "sigma": {"atoms": [], "density": {"catalog": "stable_sigma", "params": {"alpha": 0.5}}, "support": [0, Infinity]}}',
    "power{'alpha': 1.0}": '{"form": "bernstein", "a": 0, "b": 1, "sigma": {"atoms": [], "density": null, "support": [0, Infinity]}}',
    "log1p{}": '{"form": "bernstein", "a": 0, "b": 0, "sigma": {"atoms": [], "density": {"catalog": "log_sigma", "params": {}}, "support": [0, Infinity]}}',
    "log{}": '{"form": "increasing", "c": 0, "mu": {"atoms": [], "density": {"catalog": "lebesgue", "params": {}}, "support": [0, Infinity]}}',
    "ratio{}": '{"form": "bernstein", "a": 0, "b": 0, "sigma": {"atoms": [], "density": {"catalog": "exp", "params": {}}, "support": [0, Infinity]}}',
    "neg_tlogt{}": '{"form": "interval", "t0": 1, "c": 0, "d": -1, "interval": [0, Infinity], "mu": {"atoms": [], "density": {"catalog": "lebesgue", "params": {}}, "support": [0, Infinity]}}',
    "signed_power{'alpha': 1.5}": '{"form": "interval", "t0": 1, "c": -1, "d": -1.5, "interval": [0, Infinity], "mu": {"atoms": [], "density": {"catalog": "power_decay", "params": {"coef": 0.42314218766081724, "power": -0.5, "decay": 0}}, "support": [0, Infinity]}}',
    "abs_power{'alpha': 0.5}": '{"form": "bernstein", "a": 0, "b": 0, "sigma": {"atoms": [], "density": {"catalog": "stable_sigma", "params": {"alpha": 0.5}}, "support": [0, Infinity]}}',
    "abs_power{'alpha': 1.0}": '{"form": "bernstein", "a": 0, "b": 1, "sigma": {"atoms": [], "density": null, "support": [0, Infinity]}}',
    "one_minus_cexp{'c': 1.0, 'lam': 1.0}": '{"form": "bernstein", "a": 0, "b": 0, "sigma": {"atoms": [{"lambda": 1, "weight": 1}], "density": null, "support": [0, Infinity]}}',
}


def test_default_representations_serialize_to_pinned_bytes():
    from posdefkit import levykhin as lk

    got = {f"{e.name}{e.params}": lk.rep_to_json(e.lk_data)
           for e in cat.default_entries() if e.lk_data is not None}
    assert got == _REP_JSON
    for text in _REP_JSON.values():
        assert lk.rep_to_json(lk.rep_from_json(text)) == text
