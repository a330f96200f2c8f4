"""Command line front end.

Exit codes: 0 for PASS or successful synthesis/analysis, 1 for FAIL (the
report carries the witness), 2 for usage or malformed input, 3 for
inconclusive outcomes (non-converged quadrature, or routes that contradict
each other).  Reports go to stdout: JSON with ``--json``, a short table
otherwise.  Results are deterministic for fixed flags; ``timing_ms`` is the
only field that varies between runs.
"""

import argparse
import json
import math
import re
import sys
import time

import numpy as np

from . import __version__, catalog
from . import levykhin as lk
from . import measure as msr
from .diffcalc import hankel_check
from .errors import (
    ConsistencyError,
    NotIncreasing,
    NotNegativeDefinite,
    PosdefkitError,
)
from .funcs import chebyshev_grid, uniform_grid
from .jsonfmt import render
from .kernelcheck import FAIL, PASS, combine
from .reflection import boundary_derivative_check, polya_check

_GRIDS = {"cheb": chebyshev_grid, "uniform": uniform_grid}


def _exit_for(verdict):
    if verdict == PASS:
        return 0
    if verdict == FAIL:
        return 1
    return 3


def _parse_interval(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("--interval must look like 'lo,hi'")
    return float(parts[0]), float(parts[1])


def _parse_h_list(text):
    if text is None:
        return None
    return [float(x) for x in text.split(",") if x.strip()]


def _parse_lambda_grid(text):
    if text is None:
        return None
    if text.startswith("geom:"):
        lo, hi, n = text[len("geom:"):].split(",")
        return np.geomspace(float(lo), float(hi), int(n))
    return np.asarray([float(x) for x in text.split(",") if x.strip()])


def _load_function(args):
    spec = args.function
    if not spec.startswith("catalog:"):
        raise ValueError("--function must look like catalog:NAME")
    name = spec.split(":", 1)[1]
    params = {}
    for key in ("alpha", "c", "lam", "beta"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    return catalog.get(name, **params)


def _build_grid(args, window):
    if args.interval:
        window = _parse_interval(args.interval)
    return _GRIDS[args.grid_kind](window[0], window[1], args.points)


def _inputs_echo(args):
    out = {}
    for key, val in sorted(vars(args).items()):
        if key == "command" or val is None:
            continue
        out[key] = val
    return out


def _fmt_scalar(val):
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return format(val, ".6g")
    return str(val)


def _human_result(record):
    parts = []
    for key, val in record.items():
        if isinstance(val, dict):
            if "verdict" in val:
                parts.append(f"{key}.verdict={val['verdict']}")
        elif isinstance(val, list) or val is None:
            continue
        else:
            parts.append(f"{key}={_fmt_scalar(val)}")
    return "  ".join(parts)


def _emit(args, doc):
    if args.json:
        sys.stdout.write(render(doc) + "\n")
        return
    print(f"posdefkit {doc['command']} (v{doc['version']})")
    for record in doc["results"]:
        print(_human_result(record))
    print(f"timing_ms={doc['timing_ms']:.3f}")


def _emit_error(args, message):
    if getattr(args, "json", False):
        sys.stdout.write(render({"error": message}) + "\n")
    else:
        print(f"error: {message}")


# ---------------------------------------------------------------------------
# subcommand handlers


# the flag each check-* subcommand confirms through catalog.check_flag
_CHECK_FLAGS = {
    "check-pd": "positive_definite",
    "check-nd": "negative_definite",
    "check-rp": "reflection_positive",
    "check-rn": "reflection_negative",
    "check-cm": "completely_monotone",
    "check-bernstein": "bernstein",
}


def _cmd_check(args):
    entry = _load_function(args)
    interval = getattr(args, "interval", None)
    routes = catalog.check_flag(
        entry, _CHECK_FLAGS[args.command],
        window=_parse_interval(interval) if interval else None,
        n=args.points,
        grid=_GRIDS[getattr(args, "grid_kind", "cheb")],
        a=getattr(args, "a", None),
        hs=_parse_h_list(getattr(args, "h_list", None)),
        k_max=getattr(args, "k_max", None),
        tol=args.tol,
    )
    records = [v.to_dict() if name in ("rp", "rn") else {"check": name, **v.to_dict()}
               for name, v in routes]
    return records, _exit_for(combine(v for _, v in routes))


def _cmd_hankel(args):
    entry = _load_function(args)
    v = hankel_check(entry.func, args.center, args.order,
                     shifted=bool(args.shifted), tol=args.tol)
    record = {"check": "hankel_shifted" if args.shifted else "hankel", **v.to_dict()}
    return [record], _exit_for(v.verdict)


def _cmd_polya(args):
    entry = _load_function(args)
    lo, hi = entry.check_window
    grid = _build_grid(args, (max(lo, 0.0), hi))
    v = polya_check(entry.func, grid, args.tol)
    return [{"check": "polya", **v.to_dict()}], _exit_for(v.verdict)


def _cmd_synth(args):
    with open(args.rep, encoding="utf-8") as fh:
        rep = lk.rep_from_json(fh.read())
    tol = args.tol if args.tol is not None else 1e-10
    ts = [float(t) for t in (args.t or [])]
    if args.t_grid:
        lo, hi, n = args.t_grid.split(",")
        ts.extend(np.linspace(float(lo), float(hi), int(n)).tolist())
    if not ts:
        raise ValueError("need --t or --t-grid")
    val = lk.synth(rep, np.asarray(ts), tol, full=True, form=args.form)
    results = [{"t": t, "value": float(v), "truncation_bound": float(b),
                "converged": bool(b <= tol)}
               for t, v, b in zip(ts, val.value, val.truncation_bound)]
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("t,value\n")
            for rec in results:
                fh.write(f"{rec['t']:.17g},{rec['value']:.17g}\n")
    return results, (0 if val.converged else 3)


def _cmd_analyze(args):
    entry = _load_function(args)
    lambda_grid = _parse_lambda_grid(args.lambda_grid)
    tol = args.tol if args.tol is not None else 1e-8
    try:
        if args.form == "interval":
            grid = _build_grid(args, (args.t0 - 1.0, args.t0 + 1.0))
            rep, residual = lk.analyze_interval(entry.func, args.t0, grid, lambda_grid, tol)
        else:
            grid = _build_grid(args, (0.25, 4.0))
            rep, residual = lk.analyze_increasing(entry.func, grid, lambda_grid, tol)
    except (NotNegativeDefinite, NotIncreasing) as exc:
        return [{"verdict": FAIL, "reason": str(exc)}], 1
    doc = json.loads(lk.rep_to_json(rep))
    return [{"verdict": PASS, "form": args.form, "residual": float(residual), "rep": doc}], 0


def _cmd_thm59(args):
    with open(args.measure, encoding="utf-8") as fh:
        mu = msr.measure_from_json(fh.read())
    report = boundary_derivative_check(mu, args.a, args.points, args.tol)
    record = {
        "sufficient": bool(report.sufficient),
        "rp": report.rp.to_dict(),
        "necessary_witness": report.necessary_witness,
    }
    return [record], _exit_for(report.rp.verdict)


def _cmd_gallery(args):
    rows = []
    for entry in catalog.default_entries():
        rows.append({
            "name": entry.name,
            "params": entry.params,
            "domain": [entry.domain[0], entry.domain[1]],
            "flag_names": ",".join(fc.flag for fc in entry.known_flags),
            "flags": [
                {"flag": fc.flag, "params": fc.params, "source": fc.source}
                for fc in entry.known_flags
            ],
            "lk_form": entry.lk_form,
            "summary": entry.summary,
        })
    return rows, 0


_COMMANDS = {
    **dict.fromkeys(_CHECK_FLAGS, _cmd_check),
    "hankel": _cmd_hankel,
    "polya": _cmd_polya,
    "synth": _cmd_synth,
    "analyze": _cmd_analyze,
    "thm59": _cmd_thm59,
    "gallery": _cmd_gallery,
}


# ---------------------------------------------------------------------------
# parser


def _tolerance(text):
    tol = float(text)
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return tol


def _add_output_flags(sp):
    sp.add_argument("--json", action="store_true", help="emit the report as JSON")
    sp.add_argument("--tol", type=_tolerance, default=None,
                    help="tolerance override (default scales with grid size)")


def _add_function_flags(sp):
    sp.add_argument("--function", required=True, metavar="catalog:NAME",
                    help="named function, e.g. catalog:abs_power")
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--lam", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)


def _add_grid_flags(sp):
    sp.add_argument("--interval", default=None, metavar="lo,hi",
                    help="grid window (default: the entry's check window)")
    sp.add_argument("--points", type=int, default=12)
    sp.add_argument("--grid-kind", choices=("cheb", "uniform"), default="cheb",
                    dest="grid_kind")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="posdefkit",
        description="Definiteness checks, integral representations, and "
                    "reflection positivity tests for functions on intervals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check-pd", help="PSD test of the natural kernel on a grid")
    _add_function_flags(sp)
    _add_grid_flags(sp)
    _add_output_flags(sp)

    sp = sub.add_parser("check-nd", help="conditional negativity plus exp(-h f) scan")
    _add_function_flags(sp)
    _add_grid_flags(sp)
    sp.add_argument("--h-list", default=None, dest="h_list", metavar="h1,h2,...")
    _add_output_flags(sp)

    sp = sub.add_parser("check-rp", help="reflection positivity on (-a, a)")
    _add_function_flags(sp)
    sp.add_argument("--a", type=float, default=1.0)
    sp.add_argument("--points", type=int, default=12)
    _add_output_flags(sp)

    sp = sub.add_parser("check-rn", help="reflection negativity on (-a, a), a=inf allowed")
    _add_function_flags(sp)
    sp.add_argument("--a", type=float, default=math.inf)
    sp.add_argument("--points", type=int, default=12)
    sp.add_argument("--h-list", default=None, dest="h_list", metavar="h1,h2,...")
    _add_output_flags(sp)

    sp = sub.add_parser("check-cm", help="complete monotonicity by finite differences")
    _add_function_flags(sp)
    _add_grid_flags(sp)
    sp.add_argument("--k-max", type=int, default=None, dest="k_max")
    _add_output_flags(sp)

    sp = sub.add_parser("check-bernstein", help="nonnegativity plus alternating differences of the slope")
    _add_function_flags(sp)
    _add_grid_flags(sp)
    sp.add_argument("--k-max", type=int, default=None, dest="k_max")
    _add_output_flags(sp)

    sp = sub.add_parser("hankel", help="derivative Hankel matrix PSD test")
    _add_function_flags(sp)
    sp.add_argument("--center", type=float, default=1.0)
    sp.add_argument("--order", type=int, default=3)
    sp.add_argument("--shifted", action="store_true")
    _add_output_flags(sp)

    sp = sub.add_parser("polya", help="even/nonnegative/convex/decreasing sufficient test")
    _add_function_flags(sp)
    _add_grid_flags(sp)
    _add_output_flags(sp)

    sp = sub.add_parser("synth", help="evaluate a representation from JSON")
    sp.add_argument("--rep", required=True, metavar="FILE")
    sp.add_argument("--form", default=None,
                    choices=("interval", "increasing", "bernstein", "reflection_negative"))
    sp.add_argument("--t", action="append", type=float, default=None)
    sp.add_argument("--t-grid", default=None, dest="t_grid", metavar="lo,hi,n")
    sp.add_argument("--csv", default=None, metavar="FILE",
                    help="write a two-column t,value table")
    _add_output_flags(sp)

    sp = sub.add_parser("analyze", help="fit a representation to a function")
    _add_function_flags(sp)
    sp.add_argument("--form", required=True, choices=("interval", "increasing"))
    sp.add_argument("--t0", type=float, default=1.0)
    _add_grid_flags(sp)
    sp.add_argument("--lambda-grid", default=None, dest="lambda_grid",
                    metavar="l1,l2,... or geom:lo,hi,n")
    _add_output_flags(sp)

    sp = sub.add_parser("thm59", help="boundary-derivative reflection test for a measure")
    sp.add_argument("--measure", required=True, metavar="FILE")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--points", type=int, default=12)
    _add_output_flags(sp)

    sp = sub.add_parser("gallery", help="list catalog entries with flags and sources")
    _add_output_flags(sp)

    return parser


def _attach_signed_values(argv):
    """'--interval -1,1' as '--interval=-1,1' (likewise --h-list): argparse
    would read a list starting with '-' as an option."""
    out = []
    for tok in argv:
        glue = out and out[-1] in ("--interval", "--h-list") and re.match(r"-\.?\d", tok)
        out.append(out.pop() + "=" + tok if glue else tok)
    return out


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    handler = _COMMANDS[args.command]
    start = time.perf_counter()
    try:
        results, code = handler(args)
    except ConsistencyError as exc:
        _emit_error(args, str(exc))
        return 3
    except (PosdefkitError, ValueError, TypeError, OSError) as exc:
        _emit_error(args, str(exc))
        return 2
    _emit(args, {
        "command": args.command,
        "inputs": _inputs_echo(args),
        "results": results,
        "timing_ms": round((time.perf_counter() - start) * 1000.0, 3),
        "version": __version__,
    })
    return code


if __name__ == "__main__":
    sys.exit(main())
