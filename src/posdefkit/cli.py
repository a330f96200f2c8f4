"""Command line front end, driven by two tables: ``_FLAGS`` states each flag's
argparse keywords once, and ``_COMMANDS`` maps each subcommand to its handler,
help and flags.

Exit codes: 0 for PASS or successful synthesis/analysis, 1 for FAIL (the
report carries the witness), 2 for usage or malformed input, 3 for
inconclusive outcomes (non-converged quadrature or eigen solver, or routes
that contradict each other).  Reports go to stdout: JSON with ``--json``, a short table
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
from .kernelcheck import FAIL, PASS, combine, resolve_tol
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


def _parse_list(text):
    if text is None:
        return None
    return [float(x) for x in text.split(",") if x.strip()]


def _parse_span(text, flag):
    """Finite (lo, hi) and n >= 1 from 'lo,hi,n'; ``flag`` names the value in errors."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"{flag} must look like 'lo,hi,n'")
    n = int(parts[2])
    if n < 1:
        raise ValueError(f"{flag} needs n >= 1, got {n}")
    lo, hi = float(parts[0]), float(parts[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{flag} needs a finite lo and hi, got {lo:g},{hi:g}")
    return lo, hi, n


def _parse_lambda_grid(text):
    if text is None or not text.startswith("geom:"):
        return _parse_list(text)
    return np.geomspace(*_parse_span(text[len("geom:"):], "--lambda-grid geom:"))


def _load_function(args):
    spec = args.function
    if not spec.startswith("catalog:"):
        raise ValueError("--function must look like catalog:NAME")
    name = spec.split(":", 1)[1]
    params = {flag[2:]: getattr(args, flag[2:]) for flag in _FUNCTION[1:]}
    return catalog.get(name, **{key: val for key, val in params.items() if val is not None})


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
        hs=_parse_list(getattr(args, "h_list", None)),
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
    tol = args.tol if args.tol is not None else lk.SYNTH_TOL
    ts = [float(t) for t in (args.t or [])]
    if args.t_grid:
        ts.extend(np.linspace(*_parse_span(args.t_grid, "--t-grid")).tolist())
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
    tol = args.tol if args.tol is not None else lk.FIT_TOL
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


# ---------------------------------------------------------------------------
# parser: one table of flags, one of commands


def _tolerance(text):
    tol = float(text)
    try:
        return resolve_tol(tol, 1)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _tol_help(default):
    return {"help": f"tolerance override (default {default:g})"}


# flag -> its argparse keywords; argparse derives dest and the None default
_FLAGS = {
    "--function": {"required": True, "metavar": "catalog:NAME",
                   "help": "named function, e.g. catalog:abs_power"},
    "--alpha": {"type": float},
    "--c": {"type": float},
    "--lam": {"type": float},
    "--beta": {"type": float},
    "--interval": {"metavar": "lo,hi", "help": "grid window (default: the entry's check window)"},
    "--points": {"type": int, "default": 12},
    "--grid-kind": {"choices": tuple(_GRIDS), "default": "cheb"},
    "--h-list": {"metavar": "h1,h2,..."},
    "--a": {"type": float},
    "--k-max": {"type": int},
    "--center": {"type": float, "default": 1.0},
    "--order": {"type": int, "default": 3},
    "--shifted": {"action": "store_true"},
    "--rep": {"required": True, "metavar": "FILE"},
    "--form": {"choices": tuple(lk.SYNTH_FORMS)},
    "--t": {"action": "append", "type": float},
    "--t-grid": {"metavar": "lo,hi,n"},
    "--csv": {"metavar": "FILE", "help": "write a two-column t,value table"},
    "--t0": {"type": float, "default": 1.0},
    "--lambda-grid": {"metavar": "l1,l2,... or geom:lo,hi,n"},
    "--measure": {"required": True, "metavar": "FILE"},
    "--json": {"action": "store_true", "help": "emit the report as JSON"},
    "--tol": {"type": _tolerance, "help": "tolerance override (default scales with grid size)"},
}
_FUNCTION = ("--function", "--alpha", "--c", "--lam", "--beta")
_GRID = ("--interval", "--points", "--grid-kind")
# the flags whose value is a comma list, which may start with '-'
_LIST_FLAGS = {name for name, kw in _FLAGS.items() if "," in kw.get("metavar", "")}

# command -> (handler, help, flags); a flag is its name or (name, overrides),
# and --json and --tol follow every command's flags
_COMMANDS = {
    "check-pd": (_cmd_check, "PSD test of the natural kernel on a grid", (*_FUNCTION, *_GRID)),
    "check-nd": (_cmd_check, "conditional negativity plus exp(-h f) scan",
                 (*_FUNCTION, *_GRID, "--h-list")),
    "check-rp": (_cmd_check, "reflection positivity on (-a, a)",
                 (*_FUNCTION, ("--a", {"default": 1.0}), "--points")),
    "check-rn": (_cmd_check, "reflection negativity on (-a, a), a=inf allowed",
                 (*_FUNCTION, ("--a", {"default": math.inf}), "--points", "--h-list")),
    "check-cm": (_cmd_check, "complete monotonicity by finite differences",
                 (*_FUNCTION, *_GRID, "--k-max")),
    "check-bernstein": (_cmd_check, "nonnegativity plus alternating differences of the slope",
                        (*_FUNCTION, *_GRID, "--k-max")),
    "hankel": (_cmd_hankel, "derivative Hankel matrix PSD test",
               (*_FUNCTION, "--center", "--order", "--shifted")),
    "polya": (_cmd_polya, "even/nonnegative/convex/decreasing sufficient test", (*_FUNCTION, *_GRID)),
    "synth": (_cmd_synth, "evaluate a representation from JSON",
              ("--rep", "--form", "--t", "--t-grid", "--csv", ("--tol", _tol_help(lk.SYNTH_TOL)))),
    "analyze": (_cmd_analyze, "fit a representation to a function",
                (*_FUNCTION, ("--form", {"required": True, "choices": ("interval", "increasing")}),
                 "--t0", *_GRID, "--lambda-grid", ("--tol", _tol_help(lk.FIT_TOL)))),
    "thm59": (_cmd_thm59, "boundary-derivative reflection test for a measure",
              ("--measure", ("--a", {"required": True}), "--points")),
    "gallery": (_cmd_gallery, "list catalog entries with flags and sources", ()),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="posdefkit",
        description="Definiteness checks, integral representations, and "
                    "reflection positivity tests for functions on intervals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, flags) in _COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        flags = dict(f if isinstance(f, tuple) else (f, {}) for f in flags)
        tol = flags.pop("--tol", {})  # a command may restate --tol's help; it stays last
        for name, overrides in (*flags.items(), ("--json", {}), ("--tol", tol)):
            sp.add_argument(name, **{**_FLAGS[name], **overrides})
    return parser


def _attach_signed_values(argv):
    """'--interval -1,1' as '--interval=-1,1' (likewise every ``_LIST_FLAGS``
    flag): argparse would read a list starting with '-' as an option."""
    out = []
    for tok in argv:
        glue = out and out[-1] in _LIST_FLAGS and re.match(r"-\.?\d", tok)
        out.append(out.pop() + "=" + tok if glue else tok)
    return out


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    handler = _COMMANDS[args.command][0]
    start = time.perf_counter()
    try:
        results, code = handler(args)
    except (ConsistencyError, np.linalg.LinAlgError) as exc:
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
