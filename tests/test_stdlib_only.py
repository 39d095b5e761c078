"""The package imports nothing outside the standard library, holds no
``assert`` and leaves the garbage collector alone.

networkx and scipy may be installed where the tests run, so an import of
either would pass every other test and break on a bare interpreter.  Each
absolute import in ``src/twodist`` must name a standard library module or
the package itself; relative imports stay inside the package.  The
package's invariants must hold under ``python -O`` too, which strips every
``assert``, so each check it makes raises an error of its own instead.
A library must not change process-wide settings such as the cyclic
garbage collector's, so the package imports no ``gc``, and coloring and
hunting leave its state as they found it.
"""

import ast
import gc
import sys
from pathlib import Path

import pytest

from twodist import color, gen_planar, hunt

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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_no_gc(path):
    assert "gc" not in absolute_imports(path)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "run",
    [lambda: color(gen_planar(300, 6, 1)), lambda: hunt(1, 60, 6, 1)],
    ids=["color", "hunt"],
)
def test_leaves_the_garbage_collector_as_it_found_it(run, enabled):
    was = gc.isenabled(), gc.get_threshold()
    (gc.enable if enabled else gc.disable)()
    gc.set_threshold(1234, 7, 9)
    try:
        before = gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()
        run()
        assert (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()) == before
    finally:
        (gc.enable if was[0] else gc.disable)()
        gc.set_threshold(*was[1])
