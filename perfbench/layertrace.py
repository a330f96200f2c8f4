"""A layer trace taken from outside the program.

``install`` wraps each layer's public functions, plus the few private ones
that mark a layer's unit of work (the two quadrature routines and the NNLS
fit), at every posdefkit module that binds them, including names brought in
by ``from ... import``.  ``FuncHandle.__call__`` is wrapped on the class.
Each wrapper records a span; a span's self time is its duration minus the
time its child spans cover, and the tracer's own bookkeeping is charged to
no layer.  Nothing is wrapped until ``install`` runs, so the timed runs
execute the program untouched.

``parse_importtime`` reads the output of ``python -X importtime``.
"""

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("funcs", "measure", "_accel", "levykhin", "kernelcheck", "diffcalc",
          "reflection", "catalog")
PRIVATE = {
    "measure": ("_integrate_func_density", "_integrate_gridded"),
    "levykhin": ("_nnls_fit",),
}
QUADRATURE = ("measure._integrate_func_density", "measure._integrate_gridded")
SYNTH = tuple(f"levykhin.synth_{f}" for f in
              ("interval", "increasing", "bernstein", "reflection_negative"))
GRAM = tuple(f"kernelcheck.{f}" for f in ("gram_plus", "gram_minus", "gram_custom"))
DECIDE = tuple(f"kernelcheck.{f}" for f in
               ("psd_check", "cnd_check", "schoenberg_check", "quotient_space"))


class Tracer:
    def __init__(self):
        self.stack = []
        self.calls = {}      # key -> [calls, span_s, self_s]
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.counts = {"eval_points": 0, "eval_distinct": 0, "accel_elements": 0,
                       "unconverged": 0}

    def wrap(self, fn, key, layer, note=None):
        stats = self.calls.setdefault(key, [0, 0.0, 0.0])
        stack = self.stack
        layer_self = self.layer_self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                span = clock() - start
                stack.pop()
                own = span - frame[0]
                stats[0] += 1
                stats[1] += span
                stats[2] += own
                layer_self[layer] += own
                if note is not None:
                    note(args, kwargs, out)
                if stack:
                    stack[-1][0] += clock() - start

        return traced

    # notes: counters taken at the boundary where the work happens

    def _note_eval(self, args, kwargs, out):
        t = np.asarray(args[1])
        self.counts["eval_points"] += t.size
        self.counts["eval_distinct"] += np.unique(t).size

    def _note_accel(self, args, kwargs, out):
        self.counts["accel_elements"] += np.size(args[0])

    def _note_laplace(self, args, kwargs, out):
        if out is not None and not out.converged:
            self.counts["unconverged"] += 1

    def _note_integrate(self, args, kwargs, out):
        tol = kwargs.get("tol", args[4] if len(args) > 4 else 1e-10)
        if out is not None and not out[1] <= tol:
            self.counts["unconverged"] += 1

    def install(self):
        """Wrap every layer function at every posdefkit module binding it."""
        from posdefkit.funcs import FuncHandle

        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "posdefkit" or n.startswith("posdefkit."))]
        notes = {"measure.laplace_deriv": self._note_laplace,
                 "measure.integrate_against": self._note_integrate}
        wrapped = {}
        for layer in LAYERS:
            modname = f"posdefkit.{layer}"
            mod = sys.modules[modname]
            short = layer.lstrip("_")
            for name, obj in list(vars(mod).items()):
                if not (inspect.isfunction(obj) and obj.__module__ == modname):
                    continue
                if name.startswith("_") and name not in PRIVATE.get(layer, ()):
                    continue
                key = f"{short}.{name}"
                note = self._note_accel if layer == "_accel" else notes.get(key)
                wrapped[id(obj)] = (obj, self.wrap(obj, key, layer, note))
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        FuncHandle.__call__ = self.wrap(FuncHandle.__call__, "funcs.FuncHandle.__call__",
                                        "funcs", self._note_eval)
        FuncHandle.deriv_at = self.wrap(FuncHandle.deriv_at, "funcs.FuncHandle.deriv_at",
                                        "funcs")

    def totals(self):
        """Raw sums, mergeable across processes by adding."""
        return {"calls": self.calls, "layer_self": self.layer_self, "counts": dict(self.counts)}


def merge(totals_list):
    out = {"calls": {}, "layer_self": dict.fromkeys(LAYERS, 0.0), "counts": {}}
    for t in totals_list:
        for k, (c, span, own) in t["calls"].items():
            acc = out["calls"].setdefault(k, [0, 0.0, 0.0])
            acc[0] += c
            acc[1] += span
            acc[2] += own
        for k, v in t["layer_self"].items():
            out["layer_self"][k] += v
        for k, v in t["counts"].items():
            out["counts"][k] = out["counts"].get(k, 0) + v
    return out


def layer_metrics(totals, n_ops):
    """Per-op layer metrics from raw totals over ``n_ops`` ops."""
    calls = totals["calls"]
    counts = totals["counts"]
    own = totals["layer_self"]

    def n(keys):
        return sum(calls.get(k, (0, 0.0, 0.0))[0] for k in keys)

    def ms(keys, col=2):
        return 1e3 * sum(calls.get(k, (0, 0.0, 0.0))[col] for k in keys)

    def layer_calls(prefix):
        return sum(v[0] for k, v in calls.items() if k.startswith(prefix))

    per = 1.0 / max(n_ops, 1)
    accel_calls = layer_calls("accel.")
    return {
        "funcs.eval_calls": per * n(["funcs.FuncHandle.__call__"]),
        "funcs.eval_points": per * counts.get("eval_points", 0),
        "funcs.repeat_ratio": counts.get("eval_points", 0) / max(counts.get("eval_distinct", 0), 1),
        "funcs.self_ms": per * 1e3 * own["funcs"],
        "measure.quad_calls": per * n(QUADRATURE),
        "measure.self_ms": per * 1e3 * own["measure"],
        "measure.unconverged": per * counts.get("unconverged", 0),
        "accel.calls": per * accel_calls,
        "accel.elements_per_call": counts.get("accel_elements", 0) / max(accel_calls, 1),
        "accel.self_ms": per * 1e3 * own["_accel"],
        "levykhin.synth_calls": per * n(SYNTH),
        "levykhin.self_ms": per * 1e3 * own["levykhin"],
        "levykhin.nnls_calls": per * n(["levykhin._nnls_fit"]),
        "levykhin.nnls_ms": per * ms(["levykhin._nnls_fit"], col=1),
        "kernelcheck.gram_calls": per * n(GRAM),
        "kernelcheck.assemble_ms": per * ms(GRAM),
        "kernelcheck.decide_calls": per * n(DECIDE),
        "kernelcheck.decide_ms": per * ms(DECIDE),
        "diffcalc.calls": per * layer_calls("diffcalc."),
        "diffcalc.self_ms": per * 1e3 * own["diffcalc"],
        "reflection.self_ms": per * 1e3 * own["reflection"],
        "catalog.self_ms": per * 1e3 * own["catalog"],
    }


def parse_importtime(text):
    """Import metrics of the ``posdefkit`` subtree of ``-X importtime`` output.

    Returns the cumulative import time of posdefkit, the cumulative time of
    the outermost scipy modules within it, and how many modules it imported.
    Children are printed before their parent, one indent level deeper.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if not parts[0].strip().isdigit():
            continue  # the header line
        label = parts[2]
        name = label.strip()
        depth = (len(label) - len(label.lstrip(" ")) - 1) // 2
        rows.append((depth, name, int(parts[1])))
    ancestors = []
    posdefkit_us = scipy_us = modules = 0
    for depth, name, cum in reversed(rows):
        del ancestors[depth:]
        in_pkg = "posdefkit" in ancestors
        if name == "posdefkit":
            posdefkit_us += cum
            modules += 1
        elif in_pkg:
            modules += 1
            if name.split(".")[0] == "scipy" and not any(
                    a.split(".")[0] == "scipy" for a in ancestors):
                scipy_us += cum
        ancestors.append(name)
    return {"import.posdefkit_ms": posdefkit_us / 1e3,
            "import.scipy_ms": scipy_us / 1e3,
            "import.modules": modules}
