"""Command line driver: exit codes, JSON determinism, file IO."""
import argparse
import json
import math
import subprocess
import sys
import warnings

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


@pytest.mark.parametrize("cmd, name", [("check-cm", "log1p"), ("check-bernstein", "cosh")])
def test_negative_k_max_is_input_error(capsys, cmd, name):
    # an empty range of orders used to pass with nothing checked
    code, doc, _ = run_json(capsys, cmd, "--function", f"catalog:{name}", "--k-max", "-1")
    assert code == 2
    assert list(doc) == ["error"] and "k_max must be >= 0" in doc["error"]


def test_unconverged_eigen_solver_exits_3(capsys, monkeypatch):
    # numpy's LinAlgError is a ValueError, yet it is no input error
    def no_convergence(M):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    code, doc, _ = run_json(capsys, "check-nd", "--function", "catalog:log1p")
    assert code == 3
    assert doc == {"error": "Eigenvalues did not converge"}


def test_overflowing_schoenberg_exponent_is_input_error(capsys):
    # exp(-h*log x) overflows at h = 1e308: a non-finite Gram, not a solver fault
    code, doc, _ = run_json(capsys, "check-nd", "--function", "catalog:log",
                            "--interval", "0.1,0.5", "--h-list", "1e308")
    assert code == 2
    assert doc == {"error": "Gram matrix contains non-finite entries"}


@pytest.mark.parametrize("cmd, name, flag, value, want", [
    ("check-pd", "green", "--interval", "-1,1", 0),
    ("check-nd", "abs_power", "--interval", "-1.5,1.5", 0),
    ("check-nd", "log1p", "--h-list", "-1,2", 2),
    ("synth", "log1p", "--t-grid", "-1,1,3", 0),
    ("analyze", "log", "--lambda-grid", "-0.5,0,1,2", 0),
])
def test_signed_list_values_parse_with_or_without_equals(capsys, rep_file, cmd, name, flag, value, want):
    # synth reads the log1p representation in its even form, analyze fits the increasing form
    fn = {"synth": ["--rep", rep_file, "--form", "reflection_negative"],
          "analyze": ["--function", f"catalog:{name}", "--form", "increasing"]
          }.get(cmd, ["--function", f"catalog:{name}"])
    code, doc, _ = run_json(capsys, cmd, *fn, flag, value)
    code_eq, doc_eq, _ = run_json(capsys, cmd, *fn, f"{flag}={value}")
    assert code == code_eq == want
    doc.pop("timing_ms", None)
    doc_eq.pop("timing_ms", None)
    assert doc == doc_eq


_FN = [("function", None, True, None, None), ("alpha", None, False, None, "float"),
       ("c", None, False, None, "float"), ("lam", None, False, None, "float"),
       ("beta", None, False, None, "float")]
_GRID = [("interval", None, False, None, None), ("points", 12, False, None, "int"),
         ("grid_kind", "cheb", False, ("cheb", "uniform"), None)]
_POINTS = ("points", 12, False, None, "int")
_OUT = [("json", False, False, None, None), ("tol", None, False, None, "_tolerance")]
# (dest, default, required, choices, type name) of every flag, in order; the
# inputs echo of a report lists the dests and defaults
_PARSER_ENTRIES = {
    "check-pd": _FN + _GRID + _OUT,
    "check-nd": _FN + _GRID + [("h_list", None, False, None, None)] + _OUT,
    "check-rp": _FN + [("a", 1.0, False, None, "float"), _POINTS] + _OUT,
    "check-rn": _FN + [("a", math.inf, False, None, "float"), _POINTS,
                       ("h_list", None, False, None, None)] + _OUT,
    "check-cm": _FN + _GRID + [("k_max", None, False, None, "int")] + _OUT,
    "check-bernstein": _FN + _GRID + [("k_max", None, False, None, "int")] + _OUT,
    "hankel": _FN + [("center", 1.0, False, None, "float"), ("order", 3, False, None, "int"),
                     ("shifted", False, False, None, None)] + _OUT,
    "polya": _FN + _GRID + _OUT,
    "synth": [("rep", None, True, None, None),
              ("form", None, False, ("interval", "increasing", "bernstein", "reflection_negative"),
               None),
              ("t", None, False, None, "float"), ("t_grid", None, False, None, None),
              ("csv", None, False, None, None)] + _OUT,
    "analyze": _FN + [("form", None, True, ("interval", "increasing"), None),
                      ("t0", 1.0, False, None, "float")] + _GRID
               + [("lambda_grid", None, False, None, None)] + _OUT,
    "thm59": [("measure", None, True, None, None), ("a", None, True, None, "float"), _POINTS] + _OUT,
    "gallery": _OUT,
}


def test_parser_entries_are_pinned():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {cmd: [(a.dest, a.default, a.required, None if a.choices is None else tuple(a.choices),
                  getattr(a.type, "__name__", None))
                 for a in sp._actions if not isinstance(a, argparse._HelpAction)]
           for cmd, sp in sub.choices.items()}
    assert got == _PARSER_ENTRIES


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


@pytest.mark.parametrize("name, params", [
    ("power", {"alpha": 0.5}),
    ("one_minus_cexp", {"c": 2.0, "lam": 0.5}),
    ("thermal_green", {"lam": 0.5, "beta": 3.0}),
])
def test_function_parameters_reach_the_catalog(capsys, name, params):
    flags = [x for key, val in params.items() for x in (f"--{key}", repr(val))]
    code, doc, _ = run_json(capsys, "check-pd", "--function", f"catalog:{name}", *flags)
    routes = catalog.check_flag(pk.get(name, **params), "positive_definite")
    assert code == {"PASS": 0, "FAIL": 1}[pk.kernelcheck.combine(v for _, v in routes)]
    assert {key: doc["inputs"][key] for key in params} == params
    assert [r["extremal_eig"] for r in doc["results"]] == [v.extremal_eig for _, v in routes]


@pytest.mark.parametrize("kind", ["cheb", "uniform"])
@pytest.mark.parametrize("interval", ["2,1", "0,inf", "1,1"])
def test_empty_or_infinite_interval_is_input_error(capsys, kind, interval):
    code, doc, _ = run_json(capsys, "check-pd", "--function", "catalog:exp_decay",
                            f"--interval={interval}", "--grid-kind", kind)
    assert code == 2
    assert doc == {"error": "grid interval must be finite and nonempty"}


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


@pytest.mark.parametrize("argv, message", [
    (["catalog:nope"], "unknown catalog entry 'nope'"),
    (["catalog:ratio", "--alpha", "1"], "catalog entry 'ratio' accepts no parameters, not alpha"),
    (["catalog:power", "--lam", "1"], "catalog entry 'power' accepts alpha, not lam"),
])
def test_a_bad_catalog_name_or_parameter_reports_its_message(capsys, argv, message):
    code, out = run(capsys, "check-pd", "--function", *argv, "--json")
    assert (code, out) == (2, jsonfmt.render({"error": message}) + "\n")
    assert run(capsys, "check-pd", "--function", *argv) == (2, f"error: {message}\n")


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


@pytest.mark.parametrize("name", ["neg_tlogt", "log"])
def test_synth_with_an_overflowing_head_bound_exits_3(capsys, tmp_path, name):
    path = tmp_path / "rep.json"
    path.write_text(lk.rep_to_json(pk.get(name).lk_data))
    code, doc, _ = run_json(capsys, "synth", "--rep", str(path), "--t", "800")
    assert code == 3
    (rec,) = doc["results"]
    assert rec["converged"] is False and rec["truncation_bound"] == math.inf
    assert math.isfinite(rec["value"])


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


@pytest.mark.parametrize("cmd, flag, value, message", [
    ("synth", "--t-grid", "1,2", "--t-grid must look like 'lo,hi,n'"),
    ("synth", "--t-grid", "1,2,0", "--t-grid needs n >= 1, got 0"),
    ("analyze", "--lambda-grid", "geom:1,2", "--lambda-grid geom: must look like 'lo,hi,n'"),
    ("analyze", "--lambda-grid", "geom:1,2,-3", "--lambda-grid geom: needs n >= 1, got -3"),
    ("analyze", "--lambda-grid", "1,nan", "lambda grid must be finite, got nan"),
    ("analyze", "--lambda-grid", "1,-inf", "lambda grid must be finite, got -inf"),
    ("synth", "--t-grid", "1,inf,5", "--t-grid needs a finite lo and hi, got 1,inf"),
    ("synth", "--t-grid", "nan,2,5", "--t-grid needs a finite lo and hi, got nan,2"),
    ("analyze", "--lambda-grid", "geom:1,1e400,5",
     "--lambda-grid geom: needs a finite lo and hi, got 1,inf"),
    ("analyze", "--lambda-grid", "geom:-inf,1,5",
     "--lambda-grid geom: needs a finite lo and hi, got -inf,1"),
])
def test_span_values_are_checked(capsys, rep_file, cmd, flag, value, message):
    # an input error, before numpy can warn about the values
    fn = {"synth": ["--rep", rep_file],
          "analyze": ["--function", "catalog:log", "--form", "increasing"]}[cmd]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, doc, _ = run_json(capsys, cmd, *fn, flag, value)
    assert code == 2
    assert doc == {"error": message}
    assert not caught


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


def test_thm59_on_a_tail_past_the_range_of_lgamma_is_input_error(capsys, tmp_path):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps({"density": {"catalog": "power_decay",
                                          "params": {"coef": 1, "power": 1e308, "decay": 1}},
                              "support": [0, math.inf]}))
    code, doc, _ = run_json(capsys, "thm59", "--measure", str(mu), "--a", "1")
    assert code == 2
    assert doc == {"error": "tail bound cannot be brought below tolerance; transform diverges"}


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
    "import posdefkit as pk; pk.default_entries()",
    "from posdefkit import cli; assert cli.main(['gallery']) == 0",
    "from posdefkit import cli; assert cli.main(['check-bernstein', '--function', 'catalog:ratio']) == 0",
    "import posdefkit as pk; from posdefkit import levykhin as lk; "
    "h = lk.bernstein_handle(pk.get('power', alpha=0.5).lk_data); "
    "assert abs(h(2.0) - 2.0 ** 0.5) < 1e-9",
    "import posdefkit as pk; from posdefkit import measure as msr; "
    "mu = pk.Measure(density=pk.density_from_spec('gamma', {'alpha': 1.5}), support=msr.HALF_LINE); "
    "assert abs(msr.total_mass(mu) - 1.0) < 1e-9",
])
def test_light_commands_do_not_import_scipy(code):
    # scipy is imported where it is used (the NNLS fit), so a light command
    # starts fast; Gamma and the incomplete-Gamma tail bound are in-package
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


@pytest.mark.parametrize("cmd, flag, doc, missing", [
    ("synth", "--rep", {"form": "bernstein", "a": 0}, "b"),
    ("thm59", "--measure", {"atoms": [{"lambda": 1}]}, "weight"),
    ("thm59", "--measure", {"density": {"grid": [0, 1]}}, "values"),
])
def test_json_input_with_a_missing_field_is_input_error(capsys, tmp_path, cmd, flag, doc, missing):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    extra = ["--t", "1.0"] if cmd == "synth" else ["--a", "1.0"]
    code, out = run(capsys, cmd, flag, str(path), *extra, "--json")
    assert code == 2
    assert repr(missing) in json.loads(out)["error"]


_ATOM = {"lambda": 1.0, "weight": 1.0}
_BAD_MEASURES = {
    "support_one_entry": {"atoms": [_ATOM], "support": [0]},
    "support_reversed": {"atoms": [_ATOM], "support": [1, 0]},
    "support_letter": {"atoms": [_ATOM], "support": "x"},
    "support_digits": {"atoms": [_ATOM], "support": "05"},
    "support_object": {"atoms": [_ATOM], "support": {"0": 1, "5": 2}},
    "atom_outside_support": {"atoms": [_ATOM], "support": [2, 3]},
    "atoms_not_a_list": {"atoms": _ATOM},
    "grid_values_lengths": {"density": {"grid": [0, 1, 2], "values": [1, 0]}},
    "missing_weight": {"atoms": [{"lambda": 1.0}]},
    "density_string": {"density": "catalog"},
    "density_list": {"density": [1, 2]},
    "params_list": {"density": {"catalog": "gamma", "params": [1]}},
    "lambda_null": {"atoms": [{"lambda": None, "weight": 1.0}]},
    "lambda_letter": {"atoms": [{"lambda": "x", "weight": 1.0}]},
}


@pytest.mark.parametrize("case", list(_BAD_MEASURES))
@pytest.mark.parametrize("cmd", ["thm59", "synth"])
def test_malformed_measure_json_is_input_error(capsys, tmp_path, cmd, case):
    # the measure alone for thm59, embedded in an increasing representation for synth
    path = tmp_path / "in.json"
    doc = _BAD_MEASURES[case]
    if cmd == "synth":
        doc = {"form": "increasing", "c": 0.0, "mu": doc}
        argv = ["synth", "--rep", str(path), "--t", "1.0"]
    else:
        argv = ["thm59", "--measure", str(path), "--a", "1.0"]
    path.write_text(json.dumps(doc))
    code, out = run(capsys, *argv, "--json")
    assert code == 2
    assert list(json.loads(out)) == ["error"]


@pytest.mark.parametrize("interval", [[0], "xy", None, [1, 0]])
def test_malformed_representation_interval_is_input_error(capsys, tmp_path, interval):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"form": "interval", "t0": 0.0, "c": 0.0, "d": 0.0,
                                "interval": interval, "mu": {"atoms": [_ATOM]}}))
    code, out = run(capsys, "synth", "--rep", str(path), "--t", "0.5", "--json")
    assert code == 2
    assert list(json.loads(out)) == ["error"]


@pytest.mark.parametrize("interval", ["05", {"0": 1, "5": 2}], ids=["digits", "object"])
def test_representation_interval_that_is_not_a_list_is_input_error(capsys, tmp_path, interval):
    # read by character or by key, either would pass for the window (0, 5)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"form": "interval", "t0": 1.0, "c": 0.0, "d": 0.0,
                                "interval": interval, "mu": {"atoms": [_ATOM]}}))
    code, out = run(capsys, "synth", "--rep", str(path), "--t", "0.5", "--json")
    assert code == 2
    assert "list of two numbers" in json.loads(out)["error"]


@pytest.mark.parametrize("argv", [
    ["check-rp", "--function", "catalog:green", "--a", "1e308"],
    ["check-pd", "--function", "catalog:exp_decay", "--interval=-1e308,1e308"],
    ["check-pd", "--function", "catalog:exp_decay", "--interval=-1e308,1e308",
     "--grid-kind", "uniform"],
], ids=["reflection", "cheb", "uniform"])
def test_a_window_whose_width_overflows_is_a_grid_error(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc, _ = run_json(capsys, *argv)
    assert code == 2
    assert doc == {"error": "grid interval must be finite and nonempty"}
