"""The package stays stdlib-only: numpy and friends may be installed, but
nothing under src/cellint may import them."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "cellint").glob("*.py"))


def _absolute_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_package_imports_only_the_standard_library(source):
    tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
    outside = {name for name in _absolute_imports(tree)
               if name.split(".")[0] not in sys.stdlib_module_names}
    assert not outside, f"{source.name} imports {sorted(outside)}"


def test_sources_are_found():
    assert len(SOURCES) > 5


def test_the_expression_language_imports_no_private_name_of_the_package():
    """formula_dsl is the language alone (AST, parser, printer, compile_expr):
    it reads the package through public names only, so the integer walk's
    machinery (views, Taylor coefficients) stays in cells and the monomial
    order (_order) in polynomials."""
    source = next(path for path in SOURCES if path.name == "formula_dsl.py")
    tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").split(".")[0] == "cellint")
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"formula_dsl imports {private}"
