"""Which functions of the package take either graph class.

A validated ``PlanarGraph`` is the API boundary and the engine's
``Embedding`` its one working structure, so a function that accepts both
is a fork to be justified.  This pins the list of those that remain, read
from the parameter annotations of ``src/twodist``, so that a new one
shows up here: only the vertex classification, which the from-scratch
audit and the live ledger must share.  The from-scratch audit reads only
a ``PlanarGraph``, so the live ledger has a reference that shares no graph
walk with it.
The ``PlanarGraph``-level surgery wrappers are kept for the bench tracer
and the tests alone: no code in the package calls them.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "twodist").glob("*.py"))


def functions() -> list[tuple[str, ast.FunctionDef]]:
    """(module.name, node) for every function and method of the package."""
    return [
        (f"{path.stem}.{node.name}", node)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def parameter_annotations(fn: ast.FunctionDef) -> list[ast.expr | None]:
    a = fn.args
    params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
    return [p.annotation for p in params]


def names(annotations) -> set[str]:
    """The names read anywhere in these annotations."""
    return {
        node.id
        for annotation in annotations
        if annotation is not None
        for node in ast.walk(annotation)
        if isinstance(node, ast.Name)
    }


def test_the_functions_that_take_either_class():
    both = sorted(
        name for name, fn in functions()
        if {"PlanarGraph", "Embedding"} <= names(parameter_annotations(fn))
    )
    assert both == ["classify.classify_all", "classify.classify_vertex"]


def test_the_audit_reads_only_a_planar_graph():
    found = dict(functions())
    for name in ("initial_charges", "apply_rules", "audit"):
        fn = found[f"discharge.{name}"]
        params = names(parameter_annotations(fn))
        assert "PlanarGraph" in params
        assert "Embedding" not in params | names([fn.returns])


WRAPPERS = {"surgery", "split_at", "articulation_points", "trace_faces", "apply_reduction"}


def test_the_package_calls_no_surgery_wrapper():
    calls = sorted(
        f"{path.stem}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in WRAPPERS
    )
    assert calls == []
