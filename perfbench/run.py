#!/usr/bin/env python3
"""posdefkit benchmark: four workloads, outputs checked by independent oracles.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --quick        # one op per workload, checked

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Load comes from
one process in a closed loop with one caller.  BLAS is pinned to one
thread here and in every child.  See perfbench/README.md.
"""

import os

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before anything can load numpy

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join("perfbench", "worker.py")
TRACED_CLI = os.path.join("perfbench", "tracedcli.py")
OUT_DIR = os.path.join("perfbench", "out")
WORKLOADS = ("cli_cold", "closed_form", "synth_grams", "synth_points")
SETUP_SAMPLES = 5     # set-up is timed this many times per run; the median is reported
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "import.posdefkit_ms": "ms", "import.scipy_ms": "ms", "import.modules": "count",
    "cli.startup_ms": "ms", "cli.handler_ms": "ms",
    "funcs.eval_calls": "count", "funcs.eval_points": "count", "funcs.repeat_ratio": "ratio",
    "funcs.self_ms": "ms",
    "measure.quad_calls": "count", "measure.self_ms": "ms", "measure.unconverged": "count",
    "accel.calls": "count", "accel.elements_per_call": "count", "accel.self_ms": "ms",
    "levykhin.synth_calls": "count", "levykhin.self_ms": "ms", "levykhin.nnls_calls": "count",
    "levykhin.nnls_ms": "ms",
    "kernelcheck.gram_calls": "count", "kernelcheck.assemble_ms": "ms",
    "kernelcheck.decide_calls": "count", "kernelcheck.decide_ms": "ms",
    "diffcalc.calls": "count", "diffcalc.self_ms": "ms",
    "reflection.self_ms": "ms", "catalog.self_ms": "ms",
    "trace.overhead_ms": "ms",
}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONHASHSEED"] = "0"  # same dict and set layout in every child
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start(cmd, stderr=None):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr, env=child_env(),
                            cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    return proc, timer


def run_child(cmd, stderr_path=None):
    """Run one child to its end: (stdout, exit code, wall s, peak RSS MiB)."""
    t0 = time.perf_counter()
    with open(stderr_path or os.devnull, "wb") as err:
        proc, timer = start(cmd, err)
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, time.perf_counter() - t0, usage.ru_maxrss / 1024.0


def worker_cmd(workload, seed, *extra):
    return [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), *extra]


def run_worker(cmd):
    """Start a worker; returns (seconds until READY, its final JSON or None)."""
    t0 = time.perf_counter()
    proc, timer = start(cmd)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read().decode()
        proc.stdout.close()
        proc.wait()
    finally:
        timer.cancel()
    if line.strip() != b"READY" or proc.returncode != 0:
        raise BenchError(f"worker {cmd[3:]} ended with exit {proc.returncode} before its result")
    lines = rest.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def setup_seconds(workload, seed, count):
    return [run_worker(worker_cmd(workload, seed, "--setup-only"))[0] for _ in range(count)]


def import_metrics():
    """Median import metrics of fresh ``import posdefkit`` processes."""
    import layertrace

    path = os.path.join(ROOT, OUT_DIR, "importtime.txt")
    samples = []
    for _ in range(IMPORT_PROBES):
        run_child([sys.executable, "-X", "importtime", "-c", "import posdefkit"], path)
        with open(path, encoding="utf-8") as fh:
            samples.append(layertrace.parse_importtime(fh.read()))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


# ---------------------------------------------------------------------------
# in-process workloads


def run_inprocess(workload, seed, seconds, trace):
    extra = ["--seconds", repr(seconds), "--trace", str(trace)]
    setups = [] if trace else setup_seconds(workload, seed, SETUP_SAMPLES - 1)
    ready, res = run_worker(worker_cmd(workload, seed, *extra))
    res["problems"] = res.pop("warm_problems") + res["problems"]
    if trace:
        metrics = dict(res["trace"])
        metrics.update(import_metrics())
        metrics["cli.startup_ms"] = metrics["cli.handler_ms"] = 0.0  # no CLI in this workload
        metrics["trace.overhead_ms"] = (statistics.median(res["traced_op_ms"])
                                        - statistics.median(res["op_ms"]))
    else:
        metrics = {
            "setup_s": statistics.median(setups + [ready]),
            "op_p50_ms": statistics.median(res["op_ms"]),
            "ops_per_s": len(res["op_ms"]) / res["wall_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
    return res, metrics


# ---------------------------------------------------------------------------
# cold CLI


class CliPhase:
    """Whole cycles of CLI ops, each op a fresh interpreter."""

    def __init__(self, cases, traced=False):
        import oracles

        self.check = oracles.check_cli
        self.cases = cases
        self.traced = traced
        self.op_ms, self.imports, self.traces = [], [], []
        self.startup_ms, self.handler_ms = [], []
        self.wall_s = 0.0
        self.failed = 0
        self.problems = []
        self.peak_rss_mb = 0.0

    def op(self, case):
        if self.traced:
            trace_path = os.path.join(ROOT, OUT_DIR, "trace", "cli-op.json")
            err_path = os.path.join(ROOT, OUT_DIR, "trace", "cli-op-importtime.txt")
            cmd = [sys.executable, "-X", "importtime", TRACED_CLI, trace_path, *case["argv"]]
        else:
            err_path = None
            cmd = [sys.executable, "-m", "posdefkit.cli", *case["argv"]]
        out, code, wall, rss = run_child(cmd, err_path)
        self.op_ms.append(1e3 * wall)
        self.wall_s += wall
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        failed, problems = self.check(case, code, out.decode())
        self.failed += failed
        self.problems += problems
        if not failed:
            handler = json.loads(out)["timing_ms"]
            self.handler_ms.append(handler)
            self.startup_ms.append(1e3 * wall - handler)
        if self.traced:
            import layertrace

            with open(err_path, encoding="utf-8") as fh:
                self.imports.append(layertrace.parse_importtime(fh.read()))
            with open(trace_path, encoding="utf-8") as fh:
                self.traces.append(json.load(fh))

    def run(self, seconds):
        """Run the whole number of cycles whose total comes nearest ``seconds``
        (at least one), so the share of failed ops is the same in every run."""
        cycles = 0
        while True:
            for case in self.cases:
                self.op(case)
            cycles += 1
            if self.wall_s + 0.5 * self.wall_s / cycles >= seconds:
                return


def run_cli(seed, seconds, trace):
    import clicases

    cases = clicases.cases(seed)
    os.makedirs(os.path.join(ROOT, OUT_DIR, "trace"), exist_ok=True)
    setups = setup_seconds("cli_cold", seed, SETUP_SAMPLES if not trace else 1)
    warm = CliPhase(cases)
    warm.op(cases[0])  # untimed; its output is still checked
    plain = CliPhase(cases)
    plain.run(seconds / 2.0 if trace else seconds)
    phases = [plain]
    if trace:
        import layertrace

        traced = CliPhase(cases, traced=True)
        traced.run(seconds / 2.0)
        phases.append(traced)
        metrics = layertrace.layer_metrics(layertrace.merge(traced.traces), len(traced.traces))
        metrics.update({k: statistics.median(s[k] for s in traced.imports)
                        for k in traced.imports[0]})
        metrics["cli.startup_ms"] = statistics.median(plain.startup_ms)
        metrics["cli.handler_ms"] = statistics.median(plain.handler_ms)
        metrics["trace.overhead_ms"] = (statistics.median(traced.op_ms)
                                        - statistics.median(plain.op_ms))
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "op_p50_ms": statistics.median(plain.op_ms),
            "ops_per_s": len(plain.op_ms) / plain.wall_s,
            "peak_rss_mb": plain.peak_rss_mb,
        }
    res = {
        "op_ms": plain.op_ms,
        "attempted": sum(len(p.op_ms) for p in phases),
        "failed": sum(p.failed for p in phases),
        "problems": [x for p in [warm, *phases] for x in p.problems],
    }
    return res, metrics


# ---------------------------------------------------------------------------


def quick():
    """One op of every workload, with its oracles; exit 0 when all are correct."""
    import clicases

    ok = True
    for workload in WORKLOADS:
        if workload == "cli_cold":
            setup_seconds("cli_cold", 0, 1)
            phase = CliPhase(clicases.cases(0))
            phase.op(phase.cases[0])
            problems, ms = phase.problems, phase.op_ms[0]
            failed = phase.failed
        else:
            _, res = run_worker(worker_cmd(workload, 0, "--seconds", "0"))
            problems = res["warm_problems"] + res["problems"]
            failed, ms = res["failed"], res["op_ms"][0]
        good = not problems and not failed
        ok = ok and good
        print(f"{workload}: {'ok' if good else 'WRONG'}  1 op in {ms:.1f} ms")
        for p in problems[:10]:
            print(f"  {p}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="one op per workload, then exit")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "posdefkit", "__init__.py")):
        print("error: run from a posdefkit source checkout (src/posdefkit is missing)",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, OUT_DIR, "runs"), exist_ok=True)
    if args.quick:
        return quick()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        if args.workload == "cli_cold":
            res, metrics = run_cli(args.seed, args.seconds, args.trace)
        else:
            res, metrics = run_inprocess(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for p in res["problems"][:20]:
        print(f"oracle: {p}", file=sys.stderr)
    raw = os.path.join(ROOT, OUT_DIR, "runs",
                       f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(raw, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "metrics": metrics, **res}, fh)
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
