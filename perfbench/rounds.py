"""The in-process workloads: inputs built from a seed, one round per op.

Each workload class builds its inputs once in ``__init__`` (this is the
set-up that ``setup_s`` times) and exposes ``op()``, one fixed round of
library calls, and ``snapshot(out)``, which turns a round's results into
plain numbers and lists for the oracles.  Every call goes through a module
attribute (``pk.x``, ``lk.x``, ``msr.x``) so that a layer trace installed
after set-up sees it.
"""

import math

import numpy as np

import posdefkit as pk
from posdefkit import levykhin as lk
from posdefkit import measure as msr

# requested quadrature tolerance of every synthesized value (the library default)
SYNTH_TOL = 1e-10
TAIL_TOL = 1e-8


def _verdict(v):
    return {
        "verdict": v.verdict,
        "eig": float(v.extremal_eig),
        "tol": float(v.tol_used),
        "scale": float(v.scale),
        "witness": None if v.witness is None else [float(x) for x in np.atleast_1d(v.witness)],
        "grid": None if v.grid is None else [float(x) for x in np.atleast_1d(v.grid)],
        "h": v.h,
    }


def _report(r):
    routes = {"minus": r.minus_verdict, "plus": r.plus_verdict,
              "schoenberg_minus": r.schoenberg_minus, "schoenberg_plus": r.schoenberg_plus,
              "bernstein": r.bernstein_verdict}
    return {"verdict": r.verdict, "a": float(r.a), "symmetric": bool(r.symmetric),
            "routes": {k: _verdict(v) for k, v in routes.items() if v is not None}}


def _fit(fit_result, grid):
    rep, residual = fit_result
    lam, w = rep.mu.atom_arrays()
    d = float(rep.d) if hasattr(rep, "d") else None
    return {"c": float(rep.c), "d": d, "residual": float(residual),
            "lam": lam.tolist(), "w": w.tolist(), "grid": np.asarray(grid).tolist()}


def _cheb(rng, lo, hi, n):
    """Chebyshev grid on a window whose ends are drawn from [lo] and [hi] ranges."""
    return pk.chebyshev_grid(rng.uniform(*lo), rng.uniform(*hi), n)


class ClosedForm:
    """Catalog flag sweep, known refutations, a 64-point Schoenberg scan and
    two inverse fits, all on functions with closed forms: no quadrature."""

    name = "closed_form"

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 1])
        entries = pk.default_entries()
        self.claims = [(e, c) for e in entries for c in e.known_flags]
        self.cosh = pk.get("cosh")
        self.ratio = pk.get("ratio")
        self.abs15 = pk.get("abs_power", alpha=1.5)
        self.log1p = pk.get("log1p")
        self.neg_tlogt = pk.get("neg_tlogt")
        self.log = pk.get("log")
        self.refute_grid = _cheb(rng, (0.05, 0.3), (2.0, 4.0), 12)
        self.scan_grid = _cheb(rng, (0.05, 0.3), (3.0, 5.0), 64)
        self.fit_grid = _cheb(rng, (0.2, 0.4), (3.0, 5.0), 24)

    def op(self):
        flags = [pk.run_flag_check(e, c) for e, c in self.claims]
        cosh = pk.cnd_check(pk.gram_plus(self.cosh.func, self.refute_grid))
        ratio = pk.psd_check(pk.gram_plus(self.ratio.func, self.refute_grid))
        rn = pk.reflection_negative_check(self.abs15.func, math.inf)
        scan = pk.schoenberg_check(self.log1p.func, self.scan_grid)
        fit_i = lk.analyze_interval(self.neg_tlogt.func, 1.0, self.fit_grid)
        fit_inc = lk.analyze_increasing(self.log.func, self.fit_grid)
        return flags, cosh, ratio, rn, scan, fit_i, fit_inc

    def snapshot(self, out):
        flags, cosh, ratio, rn, scan, fit_i, fit_inc = out
        return {
            "flags": [{"entry": e.name, "params": dict(e.params), "flag": c.flag,
                       "routes": {k: _report(v) if hasattr(v, "minus_verdict") else _verdict(v)
                                  for k, v in res.routes}}
                      for (e, c), res in zip(self.claims, flags)],
            "cosh_cnd": _verdict(cosh),
            "ratio_psd": _verdict(ratio),
            "abs15_rn": _report(rn),
            "log1p_scan": _verdict(scan),
            "fit_neg_tlogt": _fit(fit_i, self.fit_grid),
            "fit_log": _fit(fit_inc, self.fit_grid),
        }


class SynthGrams:
    """Gram checks on functions synthesized from integral representations:
    every Gram entry is one adaptive quadrature."""

    name = "synth_grams"

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 2])
        get = pk.get
        self.handles = [
            ("log1p", lk.bernstein_handle(get("log1p").lk_data)),
            ("sqrt", lk.bernstein_handle(get("power", alpha=0.5).lk_data)),
            ("signed_power15", lk.interval_handle(get("signed_power", alpha=1.5).lk_data)),
        ]
        self.reflneg = lk.reflection_negative_handle(get("abs_power", alpha=0.5).lk_data)
        self.exp_mu = pk.Measure(density=pk.density_from_spec("exp"), support=(0.0, math.inf))
        self.rng = rng

    def op(self):
        # a fresh grid and a each round: quadrature depth depends on them, and
        # drawing per round makes every run average over the same spread
        grid = _cheb(self.rng, (0.05, 0.3), (2.5, 4.0), 12)
        a = float(self.rng.uniform(0.5, 1.5))
        grams = []
        for _, h in self.handles:
            g = pk.gram_plus(h, grid)
            grams.append((g, pk.psd_check(g), pk.cnd_check(g), pk.schoenberg_check(h, grid)))
        rn = pk.reflection_negative_check(self.reflneg, math.inf)
        bdc = pk.boundary_derivative_check(self.exp_mu, a)
        return grams, rn, (a, bdc)

    def snapshot(self, out):
        grams, rn, (a, bdc) = out
        return {
            "grams": [{"fn": name, "grid": g.points.tolist(), "entries": g.entries.tolist(),
                       "psd": _verdict(psd), "cnd": _verdict(cnd), "scan": _verdict(scan)}
                      for (name, _), (g, psd, cnd, scan) in zip(self.handles, grams)],
            "abs_sqrt_rn": _report(rn),
            "exp_boundary": {"a": a, "sufficient": bool(bdc.sufficient),
                             "witness": bdc.necessary_witness, "rp": _report(bdc.rp)},
        }


class SynthPoints:
    """Scalar synthesis and transform calls at fresh seeded points, one
    point per call, plus two inverse fits on synthesized handles."""

    name = "synth_points"
    PER_FORM = 6

    def __init__(self, seed):
        self.rng = np.random.default_rng([seed, 3])
        get = pk.get
        self.forms = [
            ("neg_tlogt", "synth_interval", get("neg_tlogt").lk_data, (0.02, 6.0)),
            ("signed_power15", "synth_interval", get("signed_power", alpha=1.5).lk_data, (0.02, 6.0)),
            ("log", "synth_increasing", get("log").lk_data, (0.02, 6.0)),
            ("log1p", "synth_bernstein", get("log1p").lk_data, (0.02, 6.0)),
            ("sqrt", "synth_bernstein", get("power", alpha=0.5).lk_data, (0.02, 6.0)),
            ("ratio", "synth_bernstein", get("ratio").lk_data, (0.02, 6.0)),
            ("abs_sqrt", "synth_reflection_negative", get("abs_power", alpha=0.5).lk_data,
             (-6.0, 6.0)),
        ]
        self.exp_mu = pk.Measure(density=pk.density_from_spec("exp"), support=(0.0, math.inf))
        self.gamma_alpha = float(self.rng.uniform(0.5, 3.0))
        self.gamma_mu = pk.Measure(
            density=pk.density_from_spec("gamma", {"alpha": self.gamma_alpha}),
            support=(0.0, math.inf))
        self.interval_h = lk.interval_handle(get("signed_power", alpha=1.5).lk_data)
        self.increasing_h = lk.increasing_handle(get("log").lk_data)
        self.fit_interval = _cheb(self.rng, (0.2, 0.4), (3.0, 5.0), 24)
        self.fit_increasing = _cheb(self.rng, (0.2, 0.4), (3.0, 5.0), 12)

    def op(self):
        # fresh points are drawn inside the round; drawing costs microseconds
        rng = self.rng
        vals = []
        for name, fn_name, rep, (lo, hi) in self.forms:
            fn = getattr(lk, fn_name)
            for t in rng.uniform(lo, hi, self.PER_FORM):
                vals.append((name, float(t), fn(rep, float(t), SYNTH_TOL, full=True)))
        for k in range(4):
            t = float(rng.uniform(0.02, 6.0))
            vals.append((f"exp_laplace_d{k}", t, msr.laplace_deriv(self.exp_mu, t, k, SYNTH_TOL)))
        T = float(rng.uniform(0.1, 8.0))
        masses = [
            ("gamma_total_mass", None, msr.total_mass(self.gamma_mu, SYNTH_TOL)),
            ("exp_tail_mass", T, msr.tail_mass(self.exp_mu, T, TAIL_TOL)),
            ("gamma_one_wedge", None, msr.one_wedge_integral(self.gamma_mu, SYNTH_TOL)),
        ]
        fit_i = lk.analyze_interval(self.interval_h, 1.0, self.fit_interval)
        fit_inc = lk.analyze_increasing(self.increasing_h, self.fit_increasing)
        return vals, masses, fit_i, fit_inc

    def snapshot(self, out):
        vals, masses, fit_i, fit_inc = out
        return {
            "values": [{"fn": n, "t": t, "value": float(v.value),
                        "bound": float(v.truncation_bound), "converged": bool(v.converged)}
                       for n, t, v in vals],
            "masses": [{"fn": n, "t": t, "value": float(v)} for n, t, v in masses],
            "gamma_alpha": self.gamma_alpha,
            "fit_signed_power15": _fit(fit_i, self.fit_interval),
            "fit_log": _fit(fit_inc, self.fit_increasing),
        }


WORKLOADS = {w.name: w for w in (ClosedForm, SynthGrams, SynthPoints)}
