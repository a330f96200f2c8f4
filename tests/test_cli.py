"""Command line driver: exit codes, JSON determinism, file IO."""
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import posdefkit as pk
from posdefkit import catalog, cli, jsonfmt
from posdefkit import levykhin as lk
from posdefkit import measure as msr


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out), out


@pytest.fixture()
def rep_file(tmp_path):
    path = tmp_path / "rep.json"
    path.write_text(lk.rep_to_json(pk.get("log1p").lk_data))
    return str(path)


def test_check_pd_verdicts(capsys):
    code, out = run(capsys, "check-pd", "--function", "catalog:exp_decay")
    assert code == 0
    assert "PASS" in out
    # Bernstein functions are negative definite, not positive definite
    code, _ = run(capsys, "check-pd", "--function", "catalog:ratio")
    assert code == 1


def test_check_nd_verdicts(capsys):
    code, _ = run(capsys, "check-nd", "--function", "catalog:log1p")
    assert code == 0
    code, _ = run(capsys, "check-nd", "--function", "catalog:cosh")
    assert code == 1


def test_check_rn_exit_codes(capsys):
    ok, _ = run(capsys, "check-rn", "--function", "catalog:abs_power",
                "--alpha", "0.5", "--a", "2", "--points", "6")
    assert ok == 0
    bad, out = run(capsys, "check-rn", "--function", "catalog:abs_power",
                   "--alpha", "1.5", "--a", "2", "--points", "6")
    assert bad == 1
    assert "FAIL" in out


@pytest.mark.parametrize("cmd", ["check-nd", "check-rn"])
@pytest.mark.parametrize("h_list", [",", "-1", "0", "nan", "1e400"])
def test_bad_h_list_is_input_error(capsys, cmd, h_list):
    name = "log1p" if cmd == "check-nd" else "abs_power"
    code, doc, _ = run_json(capsys, cmd, "--function", f"catalog:{name}", f"--h-list={h_list}")
    assert code == 2
    assert list(doc) == ["error"]


@pytest.mark.parametrize("argv", [
    ["check-pd", "--function", "catalog:exp_decay", "--tol", "nan"],
    ["check-nd", "--function", "catalog:log1p", "--tol", "-1"],
    ["check-pd", "--function", "catalog:exp_decay", "--tol", "inf"],
    ["check-cm", "--function", "catalog:neg_power", "--tol=0"],
])
def test_bad_tol_is_input_error(capsys, argv):
    assert cli.main(argv) == 2
    assert "must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, name, flag, value, want", [
    ("check-pd", "green", "--interval", "-1,1", 0),
    ("check-nd", "abs_power", "--interval", "-1.5,1.5", 0),
    ("check-nd", "log1p", "--h-list", "-1,2", 2),
])
def test_signed_list_values_parse_with_or_without_equals(capsys, cmd, name, flag, value, want):
    fn = ["--function", f"catalog:{name}"]
    code, doc, _ = run_json(capsys, cmd, *fn, flag, value)
    code_eq, doc_eq, _ = run_json(capsys, cmd, *fn, f"{flag}={value}")
    assert code == code_eq == want
    doc.pop("timing_ms", None)
    doc_eq.pop("timing_ms", None)
    assert doc == doc_eq


# every check-* subcommand, on an entry with a symmetric window (difference
# kernel) and, where the check needs no evenness, one with a half-line window
_CHECK_CASES = [
    (cmd, name)
    for cmd in sorted(c for c in cli._COMMANDS if c.startswith("check-"))
    for name in (("green", "abs_power") if cmd in ("check-rp", "check-rn") else ("abs_power", "exp_decay"))
]


@pytest.mark.parametrize("cmd, name", _CHECK_CASES)
def test_check_records_are_check_flag_routes(capsys, cmd, name):
    flag = cli._CHECK_FLAGS[cmd]
    a = 1.0 if flag == "reflection_positive" else None
    routes = catalog.check_flag(pk.get(name), flag, a=a)
    code, doc, _ = run_json(capsys, cmd, "--function", f"catalog:{name}")
    assert code == {"PASS": 0, "FAIL": 1}[pk.kernelcheck.combine(v for _, v in routes)]
    names = [r.get("check") for r in doc["results"]]
    if flag.startswith("reflection_"):
        assert names == [None]
    else:
        assert names == [route for route, _ in routes]


def test_check_cm_and_bernstein(capsys):
    assert run(capsys, "check-cm", "--function", "catalog:exp_decay")[0] == 0
    assert run(capsys, "check-bernstein", "--function", "catalog:log1p")[0] == 0
    assert run(capsys, "check-cm", "--function", "catalog:log1p")[0] == 1


def test_hankel(capsys):
    assert run(capsys, "hankel", "--function", "catalog:exp_decay", "--shifted")[0] == 0
    assert run(capsys, "hankel", "--function", "catalog:cosh", "--shifted")[0] == 1


def test_polya(capsys):
    assert run(capsys, "polya", "--function", "catalog:triangle")[0] == 0
    assert run(capsys, "polya", "--function", "catalog:cosh")[0] == 1


def test_unknown_command_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 2
    assert cli.main(["check-pd", "--function", "catalog:nope"]) == 2
    assert cli.main([]) == 2


def test_synth_value(capsys, rep_file):
    code, out = run(capsys, "synth", "--rep", rep_file, "--t", "1.0")
    assert code == 0
    assert "0.693147" in out


def test_synth_malformed_rep(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"broken": ')
    assert cli.main(["synth", "--rep", str(bad), "--t", "1.0"]) == 2
    assert cli.main(["synth", "--rep", str(tmp_path / "missing.json"), "--t", "1.0"]) == 2


@pytest.mark.parametrize("t", ["nan", "inf"])
@pytest.mark.parametrize("form", [[], ["--form", "reflection_negative"]])
def test_synth_rejects_nonfinite_t(capsys, rep_file, t, form):
    code, doc, _ = run_json(capsys, "synth", "--rep", rep_file, *form, "--t", t)
    assert code == 2
    assert doc == {"error": f"synthesis needs a finite t, got {t}"}


def test_synth_nonconverged_exit(capsys, tmp_path):
    # an unreachable tolerance must be reported, not silently absorbed
    path = tmp_path / "pow.json"
    path.write_text(lk.rep_to_json(pk.get("power", alpha=0.5).lk_data))
    code, out = run(capsys, "synth", "--rep", str(path), "--t", "1.0", "--tol", "1e-16")
    assert code == 3
    assert "converged=false" in out


def test_synth_gridded_rep_reports_nonconvergence(capsys, tmp_path):
    mu = pk.Measure(
        density=msr.GriddedDensity(np.array([0.0, 1.0, 5.0, 20.0]), np.array([1.0, 0.5, 0.2, 0.0])),
        support=(0.0, 20.0),
    )
    path = tmp_path / "coarse.json"
    path.write_text(lk.rep_to_json(lk.LKIntervalRep(t0=0.0, c=0.0, d=0.0, mu=mu)))
    code, doc, _ = run_json(capsys, "synth", "--rep", str(path), "--t", "1.0")
    assert code == 3
    assert doc["results"][0]["converged"] is False


@pytest.mark.parametrize("name, form", [("log1p", "interval"), ("log", "reflection_negative")])
def test_synth_form_mismatch_is_input_error(capsys, tmp_path, name, form):
    path = tmp_path / "rep.json"
    path.write_text(lk.rep_to_json(pk.get(name).lk_data))
    code, doc, _ = run_json(capsys, "synth", "--rep", str(path), "--form", form, "--t", "1.0")
    assert code == 2
    assert list(doc) == ["error"]


def test_synth_csv(capsys, rep_file, tmp_path):
    csv = tmp_path / "vals.csv"
    code, _ = run(capsys, "synth", "--rep", rep_file, "--t-grid", "0.5,2,4", "--csv", str(csv))
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 5
    t0, v0 = lines[1].split(",")
    assert float(v0) == pytest.approx(math.log1p(float(t0)), abs=1e-9)


def test_analyze_interval(capsys):
    code, doc, _ = run_json(capsys, "analyze", "--function", "catalog:neg_tlogt",
                            "--form", "interval", "--t0", "1.0")
    assert code == 0
    rec = doc["results"][0]
    assert rec["verdict"] == "PASS"
    assert rec["residual"] <= 1e-6
    assert rec["rep"]["form"] == "interval"


def test_analyze_rejects_convex(capsys):
    code, doc, _ = run_json(capsys, "analyze", "--function", "catalog:cosh",
                            "--form", "interval", "--t0", "1.0")
    assert code == 1
    assert doc["results"][0]["verdict"] == "FAIL"


def test_thm59(capsys, tmp_path):
    mu = tmp_path / "mu.json"
    mu.write_text(pk.measure_to_json(pk.Measure(atoms=((1.0, 1.0),))))
    code, doc, _ = run_json(capsys, "thm59", "--measure", str(mu), "--a", "1.0")
    assert code == 0
    rec = doc["results"][0]
    assert rec["sufficient"] is True
    assert rec["rp"]["verdict"] == "PASS"
    assert rec["necessary_witness"] is not None


def test_thm59_unconverged_transform_is_inconclusive(capsys, tmp_path):
    # a coarse gridded density: its transform bounds are far above tol
    mu = tmp_path / "coarse.json"
    dens = msr.GriddedDensity(np.array([0.0, 1.0, 5.0, 20.0]), np.array([1.0, 0.5, 0.2, 0.0]))
    mu.write_text(pk.measure_to_json(pk.Measure(density=dens, support=(0.0, 20.0))))
    code, doc, _ = run_json(capsys, "thm59", "--measure", str(mu), "--a", "1")
    assert code == 3
    assert doc["results"][0]["rp"]["verdict"] == "INCONCLUSIVE"
    assert doc["results"][0]["necessary_witness"] is None


def test_gallery_lists_catalog(capsys):
    code, out = run(capsys, "gallery")
    assert code == 0
    for name in ("log1p", "thermal_green", "triangle"):
        assert name in out


def test_json_documents_are_deterministic(capsys):
    code, doc1, text1 = run_json(capsys, "check-pd", "--function", "catalog:exp_decay")
    code, doc2, text2 = run_json(capsys, "check-pd", "--function", "catalog:exp_decay")
    assert code == 0
    doc1.pop("timing_ms")
    doc2.pop("timing_ms")
    assert doc1 == doc2
    assert doc1["version"] == pk.__version__
    assert doc1["command"] == "check-pd"


def test_json_round_trips_byte_identically(capsys):
    _, doc, text = run_json(capsys, "check-rn", "--function", "catalog:abs_power",
                            "--alpha", "1.5", "--a", "2", "--points", "6")
    assert jsonfmt.render(doc) + "\n" == text


@pytest.mark.parametrize("code", [
    "import posdefkit",
    "from posdefkit import cli; assert cli.main(['check-pd', '--function', 'catalog:exp_decay']) == 0",
])
def test_light_commands_do_not_import_scipy(code):
    # scipy is imported where it is used, so a light command starts fast
    out = subprocess.run(
        [sys.executable, "-c", code + "; import sys; print('scipy' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "posdefkit.cli", "gallery", "--json"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["command"] == "gallery"
