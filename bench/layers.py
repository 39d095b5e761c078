"""Per-layer tracing of twodist, done from outside the program.

A Tracer wraps public functions of the twodist modules at every place a
caller looks them up (``colorer`` imports ``find_reduction`` by name, so
patching ``reductions`` alone would miss the engine's calls).  For each
wrapped function it records the number of calls and the self time: the
call's duration minus the time spent in wrapped calls it made.  Exact
counts (matcher calls, rule fires, oracle nodes, audit transfers, bytes
written) are read from arguments and return values.  Nothing here changes
what the program computes, and ``uninstall`` restores every binding.
"""

from __future__ import annotations

import time

from twodist import (
    classify,
    cli,
    colorer,
    discharge,
    oracle,
    planar,
    reductions,
    workbench,
)
import twodist

MODULES = (twodist, planar, classify, reductions, colorer, discharge, oracle, workbench, cli)

# (defining module, function); the module's name is the layer's
SPANS = (
    (planar, "surgery"),
    (planar, "split_at"),
    (planar, "articulation_points"),
    (planar, "square"),
    (planar, "trace_faces"),
    (reductions, "find_reduction"),
    (colorer, "color"),
    (colorer, "extend"),
    (colorer, "merge_at_cut"),
    (colorer, "verify_coloring"),
    (oracle, "chi2_exact"),
    (oracle, "greedy_square"),
    (discharge, "audit"),
    (discharge, "apply_rules"),
    (classify, "classify_all"),
    (workbench, "gen_planar"),
    (workbench, "parse_graph"),
    (workbench, "write_graph"),
)

RULE_TAGS = tuple(tag for tag, _ in reductions.MATCHER_ORDER)

COUNTS = (
    "colorer.steps",
    "colorer.splits",
    "reductions.gaps",
    "reductions.matcher_calls",
    "oracle.nodes_explored",
    "discharge.transfers",
    "workbench.graph_bytes",
) + tuple(f"reductions.fires.{tag}" for tag in RULE_TAGS)


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def span_names() -> tuple[str, ...]:
    return ("planar.PlanarGraph",) + tuple(f"{_layer(m)}.{fn}" for m, fn in SPANS)


def metric_names() -> tuple[tuple[str, str], ...]:
    """Every per-layer metric the tracer reports, with its unit."""
    names: list[tuple[str, str]] = []
    for span in span_names():
        names.append((f"{span}.calls", "count"))
        names.append((f"{span}.self_s", "s"))
    names.extend((c, "count") for c in COUNTS)
    names.append(("reductions.matcher_calls_per_step", "calls/step"))
    return tuple(names)


class Tracer:
    """Call counts and self times for the wrapped twodist functions."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {s: 0 for s in span_names()}
        self.self_s: dict[str, float] = {s: 0.0 for s in span_names()}
        self.counts: dict[str, int] = {c: 0 for c in COUNTS}
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += spent - child[0]
                if stack:
                    stack[-1][0] += spent
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _bind(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        hooks = {
            "reductions.find_reduction": self._on_outcome,
            "oracle.chi2_exact": self._on_oracle,
            "discharge.apply_rules": self._on_ledger,
            "workbench.write_graph": self._on_text,
        }
        self._bind(
            planar.PlanarGraph,
            "__init__",
            self._span("planar.PlanarGraph", planar.PlanarGraph.__init__),
        )
        for home, fn_name in SPANS:
            name = f"{_layer(home)}.{fn_name}"
            original = getattr(home, fn_name)
            wrapped = self._span(name, original, hooks.get(name))
            for module in MODULES:
                if getattr(module, fn_name, None) is original:
                    self._bind(module, fn_name, wrapped)
        self._bind(
            reductions,
            "MATCHER_ORDER",
            tuple((tag, self._matcher(tag, fn)) for tag, fn in reductions.MATCHER_ORDER),
        )

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- exact counts from return values ------------------------------------

    def _matcher(self, tag: str, fn):
        counts = self.counts
        fired = f"reductions.fires.{tag}"

        def matcher(ctx):
            counts["reductions.matcher_calls"] += 1
            hit = fn(ctx)
            if hit is not None:
                counts[fired] += 1
            return hit

        return matcher

    def _on_outcome(self, outcome) -> None:
        if isinstance(outcome, reductions.Reduction):
            self.counts["colorer.steps"] += 1
            if outcome.split is not None:
                self.counts["colorer.splits"] += 1
        else:
            self.counts["reductions.gaps"] += 1

    def _on_oracle(self, result) -> None:
        self.counts["oracle.nodes_explored"] += result.nodes_explored

    def _on_ledger(self, ledger) -> None:
        self.counts["discharge.transfers"] += len(ledger.transfers)

    def _on_text(self, text: str) -> None:
        self.counts["workbench.graph_bytes"] += len(text.encode())

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span in span_names():
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_s"] = self.self_s[span]
        out.update(self.counts)
        steps = self.counts["colorer.steps"]
        out["reductions.matcher_calls_per_step"] = (
            self.counts["reductions.matcher_calls"] / steps if steps else 0.0
        )
        return out

    def exact_counts(self) -> dict[str, int]:
        """The numbers that repeat exactly for a given seed."""
        counts = {f"{span}.calls": self.calls[span] for span in span_names()}
        counts.update(self.counts)
        return counts
