"""Self-test of the benchmark: its oracles must accept correct output and
catch a perturbed value (+1e-6) and a flipped verdict.

    python3 -m pytest perfbench/test_bench.py
"""

import copy
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import clicases  # noqa: E402
import layertrace  # noqa: E402
import oracles  # noqa: E402
import rounds  # noqa: E402


@pytest.fixture(scope="module")
def snapshots():
    out = {}
    for name, cls in rounds.WORKLOADS.items():
        w = cls(0)
        out[name] = w.snapshot(w.op())
    return out


def flip(v):
    v["verdict"] = oracles.FAIL if v["verdict"] == oracles.PASS else oracles.PASS


def perturb_value(name, snap):
    if name == "closed_form":
        snap["fit_neg_tlogt"]["c"] += 1e-6
    elif name == "synth_grams":
        snap["grams"][0]["entries"][3][5] += 1e-6
    else:
        snap["values"][0]["value"] += 1e-6


def flip_verdict(name, snap):
    if name == "closed_form":
        flip(snap["flags"][0]["routes"]["bernstein"])
    else:
        flip(snap["grams"][1]["cnd"])


@pytest.mark.parametrize("name", sorted(rounds.WORKLOADS))
def test_oracles_accept_one_round(snapshots, name):
    assert oracles.CHECKS[name](snapshots[name]) == []


@pytest.mark.parametrize("name", sorted(rounds.WORKLOADS))
def test_oracles_catch_perturbed_value(snapshots, name):
    snap = copy.deepcopy(snapshots[name])
    perturb_value(name, snap)
    assert oracles.CHECKS[name](snap)


# synth_points issues no verdicts; its reported convergence is flipped below
@pytest.mark.parametrize("name", ["closed_form", "synth_grams"])
def test_oracles_catch_flipped_verdict(snapshots, name):
    snap = copy.deepcopy(snapshots[name])
    flip_verdict(name, snap)
    assert oracles.CHECKS[name](snap)


def test_oracles_catch_flipped_refutation_and_bad_witness(snapshots):
    snap = copy.deepcopy(snapshots["closed_form"])
    flip(snap["cosh_cnd"])
    assert oracles.check_closed_form(snap)
    # log(1 + t) > 0 on the grid, so e_1 cannot witness a negative direction
    snap = copy.deepcopy(snapshots["synth_grams"])
    snap["grams"][0]["psd"]["witness"] = [1.0] + [0.0] * 11
    assert any("witness" in p for p in oracles.check_synth_grams(snap))


def test_synth_points_flags_unconverged(snapshots):
    snap = copy.deepcopy(snapshots["synth_points"])
    snap["values"][0]["converged"] = False
    assert oracles.check_synth_points(snap)


def run_cli(argv):
    from posdefkit import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def cli_outputs():
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        clicases.write_inputs(ROOT, 0)
        return [(case, *run_cli(case["argv"])) for case in clicases.cases(0)]
    finally:
        os.chdir(cwd)


def test_cli_oracles(cli_outputs):
    for case, code, out in cli_outputs:
        failed, problems = oracles.check_cli(case, code, out)
        assert problems == [], case["argv"]
        # the coarse-grid thm59 exits 0 where the CLI documents 3
        assert failed == bool(case.get("known_fault")), case["argv"]


def test_cli_oracles_catch_perturbed_value_and_flipped_verdict(cli_outputs):
    by_cmd = {case["cmd"]: (case, code, out) for case, code, out in cli_outputs
              if not case.get("known_fault")}
    case, code, out = by_cmd["synth"]
    doc = json.loads(out)
    doc["results"][1]["value"] += 1e-6
    assert oracles.check_cli(case, code, json.dumps(doc))[1]
    case, code, out = by_cmd["check-nd"]
    doc = json.loads(out)
    doc["results"][0]["verdict"] = oracles.FAIL
    assert oracles.check_cli(case, code, json.dumps(doc))[1]


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:        50 |         50 |       scipy._lib",
        "import time:        70 |        120 |     scipy",
        "import time:        30 |         30 |       numpy.core",
        "import time:        40 |         70 |     numpy",
        "import time:        10 |        200 |   posdefkit.measure",
        "import time:         5 |        205 | posdefkit",
    ])
    got = layertrace.parse_importtime(text)
    assert got == {"import.posdefkit_ms": 0.205, "import.scipy_ms": 0.12, "import.modules": 6}


def test_metric_names_match_benchmark_json():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def bench(*args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_quick_mode():
    proc = bench("--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok") == 4


def test_trace_counts_quadratures_only_where_there_are_some():
    seen = {}
    for name in ("closed_form", "synth_points"):
        proc = bench("--workload", name, "--seed", "0", "--seconds", "0.2", "--trace", "1")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        assert doc["correct"] and doc["failed"] == 0
        seen[name] = doc["metrics"]["measure.quad_calls"]["value"]
    assert seen["closed_form"] == 0
    assert seen["synth_points"] > 0
