"""The package imports nothing outside the standard library, and holds no
``assert``.

networkx and scipy may be installed where the tests run, so an import of
either would pass every other test and break on a bare interpreter.  Each
absolute import in ``src/twodist`` must name a standard library module or
the package itself; relative imports stay inside the package.  The
package's invariants must hold under ``python -O`` too, which strips every
``assert``, so each check it makes raises an error of its own instead.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "twodist").glob("*.py"))


def nodes(path: Path) -> list[ast.AST]:
    """Every node of one source file's syntax tree."""
    return list(ast.walk(ast.parse(path.read_text(), str(path))))


def absolute_imports(path: Path) -> list[str]:
    """The top-level module of every absolute import in one source file."""
    names = []
    for node in nodes(path):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return [name.partition(".")[0] for name in names]


def test_there_are_sources():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    allowed = sys.stdlib_module_names | {"twodist"}
    assert [name for name in absolute_imports(path) if name not in allowed] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_holds_no_assert_statement(path):
    assert [node.lineno for node in nodes(path) if isinstance(node, ast.Assert)] == []
