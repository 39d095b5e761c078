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
alone: no code in the package or the tests calls them, and the files
that name them are pinned, so that the list can only shrink.  The
package's public surface is pinned too: the boundary types and the entry
points through which the paper's claims are checked.
"""

import ast
import types
from pathlib import Path

import twodist

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "twodist").glob("*.py"))


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


def named(tree: ast.AST) -> set[str]:
    """The names a module binds, reads, imports or spells as a string."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.FunctionDef):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_the_files_that_name_a_surgery_wrapper():
    files = sorted(
        str(path.relative_to(ROOT))
        for folder in ("src/twodist", "bench", "tests")
        for path in (ROOT / folder).glob("*.py")
        if path != Path(__file__).resolve()
        and WRAPPERS & named(ast.parse(path.read_text(), str(path)))
    )
    assert files == ["bench/layers.py", "src/twodist/planar.py"]


def test_the_public_surface():
    public = sorted(
        name for name, value in vars(twodist).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == [
        "BudgetExhausted", "Coloring", "DegreeBudgetExceeded", "Embedding",
        "EmbeddingInvalid", "GenerationFailed", "InvariantViolated", "NoSafeColor",
        "NotACutVertex", "NotConnected", "ParseError", "PermutationInfeasible",
        "PlanarGraph", "Reduction", "RunTrace", "SurgeryDisconnects", "SurgeryNotPlanar",
        "TwodistError", "UnknownVertex", "audit", "check_properness", "chi2_exact",
        "classify_all", "color", "find_reduction", "gen_planar", "hunt", "match_case",
        "parse_coloring", "parse_graph", "reduce_in_place", "verify_coloring",
        "write_coloring", "write_graph",
    ]
