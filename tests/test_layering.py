"""Layering: only ``measure`` knows how a density stores its bounds, and
only ``kernelcheck._decide`` holds a statistic to its tolerance.

The density classes, their bound fields (``head``, ``tail_env``) and their
``knots`` are named in ``measure.py`` alone, apart from the re-exports in
``__init__.py``, and ``measure`` imports none of the modules built on it.
In the four modules that decide verdicts, no comparison reads ``tol`` apart
from the rule itself, the validity test of ``resolve_tol`` and the rank count
of ``quotient_space``, which is a threshold and not a verdict.  In
``measure.py`` only ``_tail_panel`` calls ``Envelope.tail``, so a quadrature
picks its truncation point on the lattice of its panels and nowhere else, and
only the ``_LATTICE`` table turns a lattice index into an offset: no other
code there calls ``ldexp`` or ``frexp`` or raises 4 to a power.  There, too,
only ``_lattice_slice`` builds a mesh of density-weighted nodes, for knot
cells and lattice panels alike, and only ``GriddedDensity`` names
``np.interp``, so no second knot mesh can grow beside it.  Only
``kernelcheck`` calls ``gram_minus`` or ``gram_plus``: every other module
gets the kernel that fits a window from ``window_gram``.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "posdefkit"
DENSITY_CLASSES = {"HeadBound", "Envelope", "FuncDensity", "GriddedDensity"}
DENSITY_FIELDS = {"head", "tail_env", "knots"}
ABOVE_MEASURE = {"catalog", "levykhin", "reflection", "cli"}
VERDICT_MODULES = ("kernelcheck.py", "diffcalc.py", "reflection.py", "levykhin.py")


def _tree(name):
    return ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)


def _imported_modules(tree):
    """The last dotted part of every module an import statement names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        yield from (name.rsplit(".", 1)[-1] for name in names)


def _density_format_uses(tree, reexports):
    """(line, name) of every use of a density class or bound field."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in DENSITY_CLASSES:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in DENSITY_CLASSES | DENSITY_FIELDS:
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and not (reexports and node.module == "measure"):
            yield from ((node.lineno, a.name) for a in node.names if a.name in DENSITY_CLASSES)


def _outside_calls(node):
    """The nodes of an expression, without the arguments of its calls: a
    comparison of ``_decide(stat, tol)`` with PASS does not read tol."""
    yield node
    if not isinstance(node, ast.Call):
        for child in ast.iter_child_nodes(node):
            yield from _outside_calls(child)


def _tol_comparisons(tree):
    """(enclosing top-level definition, source) of every comparison that has
    the name ``tol`` in an operand."""
    for top in tree.body:
        where = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Compare) and any(
                    isinstance(n, ast.Name) and n.id == "tol"
                    for operand in (node.left, *node.comparators)
                    for n in _outside_calls(operand)):
                yield where, ast.unparse(node)


def _not_a_verdict(where, source):
    return where in ("_decide", "resolve_tol") or (where, source) == (
        "quotient_space", "vals > tol * scale")


def _around(tree, match):
    """The top-level definition or assignment around every node that ``match`` accepts."""
    for top in tree.body:
        for node in ast.walk(top):
            if match(node):
                yield top.name if hasattr(top, "name") else ast.unparse(top.targets[0])


def _calls(name):
    """Whether a node calls a function or method named ``name``."""
    return lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "attr", None), getattr(node.func, "id", None))


def _lattice_arithmetic(node):
    """Whether a node calls ``ldexp`` or ``frexp`` or raises the literal 4 to a power."""
    return _calls("ldexp")(node) or _calls("frexp")(node) or (
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
        and isinstance(node.left, ast.Constant) and node.left.value == 4)


def test_only_the_lattice_table_computes_lattice_offsets():
    assert set(_around(_tree("measure.py"), _lattice_arithmetic)) == {"_LATTICE"}


def test_only_the_tail_panel_calls_the_tail_bound():
    assert set(_around(_tree("measure.py"), _calls("tail"))) == {"_tail_panel"}


def test_only_the_lattice_slice_evaluates_a_density_on_a_mesh():
    assert set(_around(_tree("measure.py"), _calls("_weighted_nodes"))) == {"_lattice_slice"}


def test_only_the_gridded_density_interpolates():
    interp = lambda node: isinstance(node, ast.Attribute) and node.attr == "interp"
    assert set(_around(_tree("measure.py"), interp)) == {"GriddedDensity"}


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py") if p.name != "kernelcheck.py"))
def test_only_kernelcheck_picks_the_kernel_of_a_window(name):
    picks = lambda node: _calls("gram_minus")(node) or _calls("gram_plus")(node)
    assert list(_around(_tree(name), picks)) == []


def test_measure_imports_no_module_built_on_it():
    assert ABOVE_MEASURE.isdisjoint(_imported_modules(_tree("measure.py")))


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py") if p.name != "measure.py"))
def test_only_measure_reads_the_density_format(name):
    assert list(_density_format_uses(_tree(name), name == "__init__.py")) == []


@pytest.mark.parametrize("name", VERDICT_MODULES)
def test_every_verdict_goes_through_decide(name):
    found = [hit for hit in _tol_comparisons(_tree(name)) if not _not_a_verdict(*hit)]
    assert found == []


def test_the_exempt_comparisons_are_still_there():
    """The exemptions name real code, so a rename cannot empty the rule."""
    hits = set(_tol_comparisons(_tree("kernelcheck.py")))
    assert {where for where, _ in hits} == {"_decide", "resolve_tol", "quotient_space"}
    assert ("quotient_space", "vals > tol * scale") in hits
