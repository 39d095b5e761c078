"""The package imports nothing outside the standard library.

networkx and scipy may be installed where the tests run, so an import of
either would pass every other test and break on a bare interpreter.  Each
absolute import in ``src/twodist`` must name a standard library module or
the package itself; relative imports stay inside the package.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "twodist").glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    """The top-level module of every absolute import in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
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
