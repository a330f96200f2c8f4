"""One benchmark process: set up a workload, then (unless ``--setup-only``)
warm up, time whole rounds, and check every round's output.

``run.py`` starts it with BLAS pinned to one thread and ``src`` on the
path.  It prints ``READY`` once set-up is done and, at the end, one JSON
line with the per-op times, failures, oracle problems and peak RSS.  With
``--trace 1`` the first half of the time runs untraced and the second half
under the layer trace.  For ``cli_cold`` set-up means writing the input
files; the ops themselves are run by ``run.py``.
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class Phase:
    """Whole rounds timed until ``seconds`` have passed (at least ``min_ops``).

    The clock of the phase pauses while a round's output is checked, so
    checking costs neither ``op_ms`` nor the phase wall time.
    """

    def __init__(self, workload, check):
        self.workload = workload
        self.check = check
        self.op_ms = []
        self.wall_s = 0.0
        self.failed = 0
        self.problems = []

    def run(self, seconds, min_ops):
        clock = time.perf_counter
        while self.wall_s < seconds or len(self.op_ms) < min_ops:
            start = clock()
            try:
                out = self.workload.op()
            except Exception as exc:  # a failed op is counted, not fatal
                out = None
                self.failed += 1
                self.problems.append(f"op raised {exc!r}")
            end = clock()
            self.op_ms.append(1e3 * (end - start))
            self.wall_s += end - start
            if out is not None:
                self.problems += self.check(self.workload.snapshot(out))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if args.workload == "cli_cold":
        import clicases

        clicases.write_inputs(ROOT, args.seed)  # run.py runs the CLI ops themselves
        print("READY", flush=True)
        return 0
    import rounds

    workload = rounds.WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    import oracles

    check = oracles.CHECKS[args.workload]
    warm = workload.op()
    warm_problems = check(workload.snapshot(warm))
    del warm
    result = {"warm_problems": warm_problems}
    if args.trace:
        import layertrace

        plain = Phase(workload, check)
        plain.run(args.seconds / 2.0, 3)
        tracer = layertrace.Tracer()
        tracer.install()
        traced = Phase(workload, check)
        traced.run(args.seconds / 2.0, 3)
        phases = [plain, traced]
        result["traced_op_ms"] = traced.op_ms
        result["trace"] = layertrace.layer_metrics(tracer.totals(), len(traced.op_ms))
    else:
        plain = Phase(workload, check)
        plain.run(args.seconds, 1)
        phases = [plain]
    result.update(
        op_ms=plain.op_ms,
        wall_s=plain.wall_s,
        attempted=sum(len(p.op_ms) for p in phases),
        failed=sum(p.failed for p in phases),
        problems=[x for p in phases for x in p.problems],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
