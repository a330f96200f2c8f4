"""Layering: only ``measure`` knows how a density stores its bounds.

The density classes and their bound fields (``head``, ``tail_env``) are
named in ``measure.py`` alone, apart from the re-exports in
``__init__.py``, and ``measure`` imports none of the modules built on it.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "posdefkit"
DENSITY_CLASSES = {"HeadBound", "Envelope", "FuncDensity", "GriddedDensity"}
DENSITY_FIELDS = {"head", "tail_env"}
ABOVE_MEASURE = {"catalog", "levykhin", "reflection", "cli"}


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


def test_measure_imports_no_module_built_on_it():
    assert ABOVE_MEASURE.isdisjoint(_imported_modules(_tree("measure.py")))


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py") if p.name != "measure.py"))
def test_only_measure_reads_the_density_format(name):
    assert list(_density_format_uses(_tree(name), name == "__init__.py")) == []
