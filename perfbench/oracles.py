"""Checks of the program's outputs that do not rely on the program.

Nothing here imports posdefkit.  Every synthesized value is compared with a
closed form, or with mpmath at 40 digits where none exists, within the
tolerance the call requested.  Every verdict is compared with what theory
gives.  Every FAIL witness is re-checked on a Gram rebuilt from the closed
form with numpy; the quadratic form is summed with ``math.fsum`` and its
sign must survive a rounding bound.  No check reads a stored copy of an
earlier run's output.

Each ``check_*`` function returns a list of problems; an empty list means
the output is correct.
"""

import functools
import json
import math

import numpy as np

PASS, FAIL = "PASS", "FAIL"
U = 2.0 ** -53  # unit roundoff of binary64
SYNTH_TOL = 1e-10  # quadrature tol every synthesized value was requested at

# Closed forms of every function the workloads synthesize or check, keyed by
# the names the rounds use; each accepts scalars and numpy arrays.
CLOSED = {
    "log1p": np.log1p,
    "sqrt": np.sqrt,
    "ratio": lambda t: t / (1.0 + t),
    "signed_power15": lambda t: -np.power(t, 1.5),
    "neg_tlogt": lambda t: -t * np.log(t),
    "log": np.log,
    "abs_sqrt": lambda t: np.sqrt(np.abs(t)),
    "abs_power15": lambda t: np.power(np.abs(t), 1.5),
    # Laplace transform at |t| of the density exp(-lam) on (0, inf)
    "exp_transform": lambda t: 1.0 / (1.0 + np.abs(t)),
    "cosh": np.cosh,
    "exp_decay": lambda t: np.exp(-t),
}


def theory_flag(entry, params, flag):
    """Verdict that theory gives for a catalog claim, or None if unknown.

    Each line is a classical theorem about the named function; the catalog's
    own claims are not consulted.
    """
    a = params.get("alpha")
    c = params.get("c")
    holds = {
        ("power", "bernstein"): a is not None and 0.0 < a <= 1.0,
        ("power", "negative_definite"): a is not None and 0.0 < a <= 1.0,
        ("log1p", "bernstein"): True,
        ("log1p", "negative_definite"): True,
        ("log", "negative_definite"): True,
        ("ratio", "bernstein"): True,
        ("ratio", "negative_definite"): True,
        ("neg_power", "completely_monotone"): a is not None and a > 0.0,
        ("neg_power", "positive_definite"): a is not None and a > 0.0,
        ("neg_tlogt", "negative_definite"): True,
        ("signed_power", "negative_definite"): a is not None and 1.0 <= a <= 2.0,
        ("green", "positive_definite"): True,
        ("green", "reflection_positive"): True,
        ("thermal_green", "reflection_positive"): True,
        ("abs_power", "reflection_negative"): a is not None and 0.0 <= a <= 1.0,
        ("one_minus_cexp", "negative_definite"): c is not None and c >= 0.0,
        ("one_minus_cexp", "bernstein"): c is not None and 0.0 <= c <= 1.0,
        ("exp_decay", "completely_monotone"): True,
        ("exp_decay", "positive_definite"): True,
        ("triangle", "positive_definite"): True,
    }.get((entry, flag))
    if holds is None:
        return None
    return PASS if holds else FAIL


# ---------------------------------------------------------------------------
# building blocks


def check_value(label, value, exact, tol):
    if abs(value - exact) <= tol + 8.0 * U * abs(exact):
        return []
    return [f"{label}: {value!r} is {abs(value - exact):.3g} from the closed form "
            f"{exact!r}, beyond tol {tol:g}"]


def expect(label, got, want):
    return [] if got == want else [f"{label}: verdict {got}, theory gives {want}"]


def kernel_gram(f, grid, kernel):
    x = np.asarray(grid, dtype=np.float64)
    if kernel == "plus":
        return f(0.5 * (x[:, None] + x[None, :]))
    return f(0.5 * np.abs(x[:, None] - x[None, :]))


def quad_form(G, c):
    """c^T G c summed exactly from its rounded terms, with a rounding bound.

    Each term carries the rounding of two products plus the few ulps of a
    closed-form evaluation (whose argument is itself rounded); the bound
    covers that with room to spare, in the style of Higham ch. 3.
    """
    terms = (c[:, None] * G * c[None, :]).ravel()
    q = math.fsum(terms)
    bound = (G.shape[0] + 32) * U * math.fsum(np.abs(terms))
    return q, bound


def recheck_fail(label, v, f, kernel, mode):
    """Re-check a FAIL witness on a Gram rebuilt from the closed form.

    mode ``psd``: c^T G c < 0.  mode ``cnd``: the coefficients sum to zero and
    c^T G c > 0.  mode ``scan``: c^T exp(-h G) c < 0 at the reported h.
    """
    if v["witness"] is None or v["grid"] is None:
        return [f"{label}: FAIL carries no witness"]
    c = np.asarray(v["witness"], dtype=np.float64)
    G = kernel_gram(f, v["grid"], kernel)
    if c.shape != (G.shape[0],):
        return [f"{label}: witness length {c.size} does not match the grid"]
    if mode == "scan":
        if v["h"] is None:
            return [f"{label}: scan FAIL without its h"]
        G = np.exp(-float(v["h"]) * G)
    q, bound = quad_form(G, c)
    if mode == "cnd":
        s = math.fsum(c)
        l1 = math.fsum(np.abs(c))
        if abs(s) > 8.0 * c.size * U * l1:
            return [f"{label}: witness coefficients sum to {s:.3g}, not zero"]
        bound += 2.0 * abs(s) * float(np.abs(G).max()) * l1
        if not q > bound:
            return [f"{label}: witness gives c^T G c = {q:.3g}, not above the bound {bound:.3g}"]
        return []
    if not q < -bound:
        return [f"{label}: witness gives c^T G c = {q:.3g}, not below -{bound:.3g}"]
    return []


def expect_fail(label, v, f, kernel, mode):
    """Theory refutes the property: FAIL, with a witness that holds."""
    if v["verdict"] != FAIL:
        return expect(label, v["verdict"], FAIL)
    return recheck_fail(label, v, f, kernel, mode)


def recheck_difference(label, v, f):
    """Re-check a Bernstein-route witness (t, delta, k) on the closed form.

    The route fails when the (k+1)-st forward difference is positive, or,
    with k = -1, when the function itself is negative at t.
    """
    if v["witness"] is None or len(v["witness"]) != 3:
        return [f"{label}: FAIL carries no (t, delta, k) witness"]
    t, delta, k = v["witness"]
    if k < 0:
        val = float(f(t))
        return [] if val < -8.0 * U * abs(val) else [f"{label}: f({t:g}) = {val:.3g} is not negative"]
    order = int(k) + 1
    pts = t + delta * np.arange(order + 1)
    terms = [(-1.0) ** j * math.comb(order, j) * float(f(p)) for j, p in enumerate(pts)]
    val = math.fsum(terms)
    bound = 32.0 * U * math.fsum(abs(x) for x in terms)
    if not val > bound:
        return [f"{label}: difference of order {order} at t={t:g} is {val:.3g}, not positive"]
    return []


def check_eig(label, v, f, kernel, mode, entry_err):
    """The reported extremal eigenvalue against that of the closed-form Gram.

    By Weyl's inequality an entrywise error e moves each eigenvalue by at
    most n*e; eigh adds O(n*u*|G|).
    """
    G = kernel_gram(f, v["grid"], kernel)
    n = G.shape[0]
    M = 0.5 * (G + G.T)
    if mode == "psd":
        exact = float(np.linalg.eigvalsh(M)[0])
    else:
        P = np.eye(n) - np.full((n, n), 1.0 / n)
        exact = float(np.linalg.eigvalsh(P @ M @ P)[-1])
    allow = n * entry_err + 64.0 * n * U * float(np.abs(M).max())
    if abs(v["eig"] - exact) <= allow:
        return []
    return [f"{label}: extremal eigenvalue {v['eig']:.6g}, closed form gives {exact:.6g}"]


def check_fit(label, fit, c, d, target, tol):
    """Fit scalars against their closed forms and the fitted measure against
    the closed-form target on the fit grid."""
    p = check_value(f"{label} c", fit["c"], c, tol)
    if d is not None:
        p += check_value(f"{label} d", fit["d"], d, tol)
    w = np.asarray(fit["w"], dtype=np.float64)
    lam = np.asarray(fit["lam"], dtype=np.float64)
    if w.size == 0 or np.any(w < 0):
        p.append(f"{label}: fitted measure is empty or has negative weights")
        return p
    s = np.asarray(fit["grid"], dtype=np.float64)
    model = np.exp(-np.outer(s, lam)) @ w
    want = target(s)
    gap = float(np.max(np.abs(model - want) - 1e-8 * np.maximum(1.0, np.abs(want))))
    if not gap <= fit["residual"] or not fit["residual"] <= 1e-6:
        p.append(f"{label}: fitted measure misses the closed form by {gap:.3g} "
                 f"(reported residual {fit['residual']:.3g})")
    return p


def check_refuted_rn(label, rep, psi):
    """Reflection negativity of |t|^1.5: the difference-kernel routes hold
    (|x-y|^alpha is conditionally negative definite for alpha <= 2) and the
    sum-kernel routes fail; a scan may miss the failure on a coarse grid, so
    it must either pass or carry a valid witness."""
    routes = rep["routes"]
    p = expect(label, rep["verdict"], FAIL)
    p += expect(f"{label}/minus", routes["minus"]["verdict"], PASS)
    p += expect(f"{label}/schoenberg_minus", routes["schoenberg_minus"]["verdict"], PASS)
    p += expect_fail(f"{label}/plus", routes["plus"], psi, "plus", "cnd")
    if routes["schoenberg_plus"]["verdict"] == FAIL:
        p += recheck_fail(f"{label}/schoenberg_plus", routes["schoenberg_plus"], psi, "plus", "scan")
    if "bernstein" in routes:
        p += expect(f"{label}/bernstein", routes["bernstein"]["verdict"], FAIL)
        p += recheck_difference(f"{label}/bernstein", routes["bernstein"], psi)
    return p


def check_rp_report(label, rep, f, entry_err):
    """A reflection positive function: every route PASS, eigenvalues agree."""
    p = expect(label, rep["verdict"], PASS)
    if not rep["symmetric"]:
        p.append(f"{label}: even function reported as not symmetric")
    for kernel in ("minus", "plus"):
        v = rep["routes"][kernel]
        p += expect(f"{label}/{kernel}", v["verdict"], PASS)
        p += check_eig(f"{label}/{kernel}", v, f, kernel, "psd", entry_err)
    return p


def check_boundary(label, doc, f, entry_err):
    """Boundary-derivative test of a transform f of a positive measure
    with no mass at 0, so f' < 0 everywhere.

    Theory: the slope at a is negative so the sufficient condition holds,
    the kernel check passes, and the first scan point a/1000 is already a
    point where the slope is below -tol.
    """
    a = doc["a"]
    p = [] if doc["sufficient"] else [f"{label}: negative slope at a, yet not sufficient"]
    p += check_rp_report(f"{label}/rp", doc["rp"], f, entry_err)
    first = 1e-3 * a
    w = doc["witness"]
    if w is None or not math.isclose(w, first, rel_tol=1e-12):
        p.append(f"{label}: necessary witness {w!r}, theory gives the first scan point {first!r}")
    return p


# ---------------------------------------------------------------------------
# workloads


def check_closed_form(snap):
    p = []
    for claim in snap["flags"]:
        label = f"{claim['entry']}{claim['params'] or ''}:{claim['flag']}"
        want = theory_flag(claim["entry"], claim["params"], claim["flag"])
        if want is None:
            p.append(f"{label}: no theorem known for this claim")
            continue
        for route, v in claim["routes"].items():
            p += expect(f"{label}/{route}", v["verdict"], want)
    p += expect_fail("cosh cnd", snap["cosh_cnd"], CLOSED["cosh"], "plus", "cnd")
    # t/(1+t) is strictly concave and positive: a 2x2 minor of its sum kernel is negative
    p += expect_fail("ratio psd", snap["ratio_psd"], CLOSED["ratio"], "plus", "psd")
    p += check_refuted_rn("abs_power(1.5) rn", snap["abs15_rn"], CLOSED["abs_power15"])
    p += expect("log1p scan n=64", snap["log1p_scan"]["verdict"], PASS)
    p += check_fit("neg_tlogt fit", snap["fit_neg_tlogt"], 0.0, -1.0, lambda s: 1.0 / s, 1e-8)
    p += check_fit("log fit", snap["fit_log"], 0.0, None, lambda s: 1.0 / s, 1e-8)
    return p



def check_synth_grams(snap):
    p = []
    for g in snap["grams"]:
        name = g["fn"]
        f = CLOSED[name]
        exact = kernel_gram(f, g["grid"], "plus")
        got = np.asarray(g["entries"], dtype=np.float64)
        err = np.abs(got - exact) - (SYNTH_TOL + 8.0 * U * np.abs(exact))
        if got.shape != exact.shape or np.any(err > 0):
            p.append(f"{name} gram: {int(np.sum(err > 0))} entries beyond tol of the closed form")
        # strictly concave positive (log1p, sqrt) or negative on the diagonal
        # (-t^1.5): a 2x2 minor is negative, so the sum kernel is not PSD
        p += expect_fail(f"{name} psd", g["psd"], f, "plus", "psd")
        p += expect(f"{name} cnd", g["cnd"]["verdict"], PASS)
        p += expect(f"{name} scan", g["scan"]["verdict"], PASS)
    rn = snap["abs_sqrt_rn"]
    p += expect("abs_sqrt rn", rn["verdict"], PASS)
    for route, v in rn["routes"].items():
        p += expect(f"abs_sqrt rn/{route}", v["verdict"], PASS)
    for kernel in ("minus", "plus"):
        p += check_eig(f"abs_sqrt rn/{kernel}", rn["routes"][kernel], CLOSED["abs_sqrt"],
                       kernel, "cnd", SYNTH_TOL)
    p += check_boundary("exp density boundary", snap["exp_boundary"], CLOSED["exp_transform"],
                        SYNTH_TOL)
    return p


@functools.lru_cache(maxsize=8)
def gamma_one_wedge(alpha):
    """integral of min(1, lam) lam^(alpha-1) e^-lam / Gamma(alpha), at 40 digits."""
    import mpmath

    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        val = (mpmath.gammainc(a + 1, 0, 1) + mpmath.gammainc(a, 1)) / mpmath.gamma(a)
        return float(val)


def exp_laplace_deriv(k, t):
    """k-th derivative of integral e^{-lam t} e^{-lam} dlam = 1/(1+t)."""
    return (-1.0) ** k * math.factorial(k) / (1.0 + t) ** (k + 1)


def check_synth_points(snap):
    p = []
    for rec in snap["values"]:
        name, t = rec["fn"], rec["t"]
        label = f"{name}({t!r})"
        if name.startswith("exp_laplace_d"):
            exact = exp_laplace_deriv(int(name[-1]), t)
        else:
            exact = float(CLOSED[name](t))
        p += check_value(label, rec["value"], exact, SYNTH_TOL)
        if not rec["converged"] or not rec["bound"] <= SYNTH_TOL:
            p.append(f"{label}: reported bound {rec['bound']:.3g} does not meet tol")
    for rec in snap["masses"]:
        name = rec["fn"]
        if name == "gamma_total_mass":
            p += check_value(name, rec["value"], 1.0, SYNTH_TOL)
        elif name == "exp_tail_mass":
            p += check_value(f"{name}({rec['t']!r})", rec["value"], math.exp(-rec["t"]), 1e-8)
        else:
            p += check_value(name, rec["value"], gamma_one_wedge(snap["gamma_alpha"]), SYNTH_TOL)
    # -(-t^1.5)'' = 0.75 t^-0.5; psi(1) = -1, psi'(1) = -1.5
    p += check_fit("signed_power(1.5) fit", snap["fit_signed_power15"], -1.0, -1.5,
                   lambda s: 0.75 / np.sqrt(s), 1e-8)
    p += check_fit("log fit", snap["fit_log"], 0.0, None, lambda s: 1.0 / s, 1e-8)
    return p


# ---------------------------------------------------------------------------
# cold CLI: one JSON report per op


def _cli_verdict(rec):
    return {"verdict": rec["verdict"], "eig": rec["extremal_eig"], "witness": rec["witness"],
            "grid": rec["grid"], "h": rec.get("h")}


def _cli_report(doc):
    routes = {k: _cli_verdict(doc[k]) for k in
              ("minus", "plus", "schoenberg_minus", "schoenberg_plus", "bernstein") if k in doc}
    return {"verdict": doc["verdict"], "a": doc["a"], "symmetric": doc["symmetric"],
            "routes": routes}


def cheb(lo, hi, n):
    """Chebyshev points of the first kind inside (lo, hi), ascending."""
    x = np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n))
    return np.sort(0.5 * (lo + hi) + 0.5 * (hi - lo) * x)


def _check_cli_results(case, results):
    cmd = case["cmd"]
    if cmd == "check-pd":
        v = _cli_verdict(results[0])
        return (expect(cmd, v["verdict"], PASS)
                + check_eig(cmd, v, CLOSED["exp_decay"], "plus", "psd", 0.0))
    if cmd in ("check-nd", "check-cm", "check-bernstein", "hankel", "polya"):
        p = []
        for rec in results:
            p += expect(f"{cmd}/{rec['check']}", rec["verdict"], PASS)
        return p
    if cmd == "check-rp":
        lam = case["lam"]
        return check_rp_report(cmd, _cli_report(results[0]),
                               lambda t: np.exp(-lam * np.abs(t)), 0.0)
    if cmd == "check-rn":
        return check_refuted_rn(cmd, _cli_report(results[0]), CLOSED["abs_power15"])
    if cmd == "synth":
        if [r["t"] for r in results] != case["ts"]:
            return [f"{cmd}: reported points {[r['t'] for r in results]} are not the requested ones"]
        p = []
        for r in results:
            p += check_value(f"{cmd} log1p({r['t']!r})", r["value"], math.log1p(r["t"]), SYNTH_TOL)
            if not r["converged"]:
                p.append(f"{cmd}: value at {r['t']!r} reported as not converged")
        return p
    if cmd == "analyze":
        rec = results[0]
        rep = rec["rep"]
        t0 = case["t0"]
        fit = {"c": rep["c"], "d": rep["d"], "residual": rec["residual"],
               "lam": [a["lambda"] for a in rep["mu"]["atoms"]],
               "w": [a["weight"] for a in rep["mu"]["atoms"]],
               "grid": cheb(*case["window"], 12)}
        return (expect(cmd, rec["verdict"], PASS)
                + check_fit(cmd, fit, -t0 * math.log(t0), -math.log(t0) - 1.0,
                            lambda s: 1.0 / s, 1e-8))
    if cmd == "thm59":
        rec = results[0]
        lam = np.array([x for x, _ in case["atoms"]])
        w = np.array([y for _, y in case["atoms"]])
        doc = {"a": rec["rp"]["a"], "sufficient": rec["sufficient"],
               "witness": rec["necessary_witness"], "rp": _cli_report(rec["rp"])}
        return check_boundary(cmd, doc, lambda t: np.exp(-np.multiply.outer(np.abs(t), lam)) @ w,
                              SYNTH_TOL)
    if cmd == "gallery":
        p = [] if results else [f"{cmd}: empty catalog"]
        for row in results:
            for claim in row["flags"]:
                want = theory_flag(row["name"], row["params"], claim["flag"])
                if want != PASS:
                    p.append(f"{cmd}: {row['name']}{row['params']} claims {claim['flag']}, "
                             f"theory gives {want}")
        return p
    return [f"{cmd}: no oracle for this subcommand"]


def check_cli(case, code, stdout):
    """Classify one CLI op: returns (failed, problems).

    An op fails when the command does not do what its contract says (an
    error report, or the wrong exit code on the known fault); it is wrong
    when it reports a result that the oracles refute.
    """
    try:
        doc = json.loads(stdout)
    except ValueError:
        return True, [f"{case['cmd']}: no JSON report (exit {code})"]
    if case.get("known_fault"):
        # quadrature with bounds far above tol: the documented outcome is exit 3
        return code != case["exit"], []
    if "error" in doc or code != case["exit"]:
        return True, [f"{case['cmd']}: exit {code}, expected {case['exit']}: {doc.get('error', '')}"]
    return False, _check_cli_results(case, doc["results"])


CHECKS = {
    "closed_form": check_closed_form,
    "synth_grams": check_synth_grams,
    "synth_points": check_synth_points,
}
