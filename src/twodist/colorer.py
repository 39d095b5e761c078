"""2-distance coloring engine: the induction of the proof, run as a loop.

Shrink the graph with the first catalog reduction, color the smaller graph
with the same palette, pull the coloring back and give every pending vertex
the smallest safe color.  Cut vertices split the graph in two; the halves
are colored independently and reconciled by a color permutation.  Tiny
graphs are colored directly by the exact oracle.  Steps waiting for their
smaller graphs sit on an explicit stack, so depth costs no recursion.

The palette stays fixed at 3*Delta + 2 throughout (properness keeps the
maximum degree from growing, so the budget never needs to).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import (
    BudgetExhausted,
    DegreeBudgetExceeded,
    NoSafeColor,
    PermutationInfeasible,
)
from .planar import PlanarGraph, SurgeryResult, distance_profile, split_at, square
from .reductions import (
    ProofGapReport,
    Reduction,
    apply_reduction,
    find_reduction,
)

BASE_N = 10  # below this the oracle colors directly
BASE_ORACLE_BUDGET = 300_000


@dataclass
class Coloring:
    """Partial or total assignment vertex -> color in 1..budget."""

    assignment: dict[int, int]
    budget: int

    @property
    def colors_used(self) -> int:
        return len(set(self.assignment.values()))


@dataclass
class ColorReport:
    valid: bool
    violations: list[tuple[int, int, int, int]]  # (u, v, dist, shared color)
    uncolored: list[int]  # vertices of g without a color
    unknown: list[int]  # colored ids that are not vertices of g
    colors_used: int
    budget: int


@dataclass
class RunTrace:
    """Optional instrumentation for one color() run."""

    steps: list[tuple[str, int, int, int]] = field(default_factory=list)
    extensions: list[tuple[int, str, int, int | None]] = field(default_factory=list)
    gaps: list[ProofGapReport] = field(default_factory=list)
    graph_hook: Callable[[PlanarGraph, object], None] | None = None

    def lemma_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for lemma, *_ in self.steps:
            counts[lemma] = counts.get(lemma, 0) + 1
        return counts


def verify_coloring(g: PlanarGraph, c: Coloring) -> ColorReport:
    """Exhaustive distance-2 check, independent of how c was produced.

    Valid means total on the vertices of g and nothing else, every color in
    1..budget, and no two vertices within distance 2 sharing a color.
    """
    uncolored = [v for v in g.vertices() if v not in c.assignment]
    unknown = sorted(v for v in c.assignment if not 1 <= v <= g.n)
    violations: list[tuple[int, int, int, int]] = []
    for v in sorted(c.assignment):
        col = c.assignment[v]
        if not (1 <= col <= c.budget):
            violations.append((v, v, 0, col))
    sq = square(g)
    for u in sorted(sq):
        cu = c.assignment.get(u)
        if cu is None:
            continue
        for w in sorted(sq[u]):
            if w <= u:
                continue
            if c.assignment.get(w) == cu:
                dist = 1 if g.has_edge(u, w) else 2
                violations.append((u, w, dist, cu))
    return ColorReport(
        valid=not (violations or uncolored or unknown),
        violations=violations,
        uncolored=uncolored,
        unknown=unknown,
        colors_used=c.colors_used,
        budget=c.budget,
    )


def extend(
    partial: Coloring,
    g: PlanarGraph,
    pending: tuple[int, ...],
    reduction: Reduction | None = None,
    trace: RunTrace | None = None,
) -> Coloring:
    """Color each pending vertex with the smallest color unused within
    distance 2, in order; later pending vertices see the earlier choices."""
    assignment = dict(partial.assignment)
    k = partial.budget
    for v in pending:
        forbidden = {
            assignment[u]
            for u in distance_profile(g, v)
            if u in assignment
        }
        if trace is not None:
            bound = reduction.d2_bound if reduction is not None else None
            lemma = reduction.lemma if reduction is not None else "-"
            trace.extensions.append((v, lemma, len(forbidden), bound))
        if len(forbidden) >= k:
            detail = (
                f" (rule {reduction.lemma}, claimed bound {reduction.d2_bound})"
                if reduction is not None
                else ""
            )
            raise NoSafeColor(
                f"all {k} colors forbidden at vertex {v}{detail}"
            )
        c = 1
        while c in forbidden:
            c += 1
        assignment[v] = c
    return Coloring(assignment, k)


def merge_at_cut(
    c1: Coloring, c2: Coloring, v: int, g: PlanarGraph
) -> Coloring:
    """Combine colorings of the two sides of a cut vertex.

    A global color permutation is applied to the second side so that v keeps
    its first-side color and the second side's neighbor colors land on
    colors unused around v on the first side.  Every cross-side pair within
    distance 2 runs through v, so that is enough.
    """
    k = c1.budget
    base = c1.assignment[v]
    nbr1_colors = {
        c1.assignment[u] for u in g.adj(v) if u in c1.assignment
    }
    nbr2_colors = sorted(
        {c2.assignment[u] for u in g.adj(v) if u in c2.assignment}
        - {c2.assignment[v]}
    )
    blocked = nbr1_colors | {base}
    perm: dict[int, int] = {c2.assignment[v]: base}
    taken = {base}
    free = [c for c in range(1, k + 1) if c not in blocked]
    it = iter(free)
    for src in nbr2_colors:
        if src in perm:
            continue
        dst = next((t for t in it if t not in taken), None)
        if dst is None:
            raise PermutationInfeasible(
                f"palette of {k} too small to merge at vertex {v}"
            )
        perm[src] = dst
        taken.add(dst)

    # complete to a bijection on 1..k, keeping untouched colors fixed
    remaining_targets = [c for c in range(1, k + 1) if c not in taken]
    rt = set(remaining_targets)
    unmapped = [c for c in range(1, k + 1) if c not in perm]
    for c in unmapped:
        if c in rt:
            perm[c] = c
            rt.remove(c)
    spare = sorted(rt)
    for c, t in zip([c for c in unmapped if c not in perm], spare):
        perm[c] = t

    merged = dict(c1.assignment)
    for u, col in c2.assignment.items():
        if u != v:
            merged[u] = perm[col]
    return Coloring(merged, k)


def color(
    g: PlanarGraph, k: int | None = None, trace: RunTrace | None = None
) -> Coloring:
    """2-distance coloring with at most k colors (default 3*Delta + 2).

    The palette suffices for every connected embedded planar graph with
    maximum degree at least 6; smaller graphs are handled best effort and
    may raise BudgetExhausted.
    """
    if k is None:
        k = 3 * g.max_degree() + 2
    # open steps, innermost last: (graph, reduction, parts, part colorings)
    stack: list[
        tuple[PlanarGraph, Reduction, tuple[SurgeryResult, ...], list[Coloring]]
    ] = []
    out = _step(g, k, trace)
    while True:
        if isinstance(out, Coloring):
            if not stack:
                return out
            stack[-1][3].append(out)
        else:
            stack.append((*out, []))
        g, r, parts, done = stack[-1]
        if len(done) < len(parts):
            out = _step(parts[len(done)].graph, k, trace)
            continue
        stack.pop()
        pulled = [
            Coloring(
                {
                    old: c.assignment[new]
                    for old, new in part.old_to_new.items()
                    if old not in r.pending
                },
                k,
            )
            for part, c in zip(parts, done)
        ]
        if r.split is not None:
            out = merge_at_cut(*pulled, r.split, g)
        else:
            out = extend(pulled[0], g, r.pending, reduction=r, trace=trace)


def _step(
    g: PlanarGraph, k: int, trace: RunTrace | None
) -> Coloring | tuple[PlanarGraph, Reduction, tuple[SurgeryResult, ...]]:
    """One induction step: g colored directly (base case or greedy
    fallback), or the reduction that fires on g with the smaller graphs
    that must be colored first, in order."""
    if g.n <= BASE_N:
        if trace is not None and trace.graph_hook is not None:
            trace.graph_hook(g, None)
        return _base_color(g, k)

    outcome = find_reduction(g)
    if trace is not None:
        if isinstance(outcome, Reduction):
            trace.steps.append((outcome.lemma, g.n, g.m, g.max_degree()))
        else:
            trace.gaps.append(outcome)
        if trace.graph_hook is not None:
            trace.graph_hook(g, outcome)

    if isinstance(outcome, ProofGapReport):
        # outside the guarantee the catalog may run dry; fall back to greedy
        return _greedy_fallback(g, k, outcome)

    r = outcome
    if r.split is not None:
        return g, r, split_at(g, r.split)
    try:
        return g, r, (apply_reduction(g, r),)
    except DegreeBudgetExceeded:
        # possible only below the guarantee threshold, where a fan center
        # may sit at the maximum degree already; never with Delta >= 6
        if g.max_degree() >= 6:
            raise
        return _greedy_fallback(g, k, None)


def _greedy_fallback(
    g: PlanarGraph, k: int, gap: ProofGapReport | None
) -> Coloring:
    from .oracle import greedy_square

    greedy = greedy_square(g)
    if greedy.colors_used <= k:
        return Coloring(greedy.assignment, k)
    detail = f" (catalog gap, delta={gap.delta})" if gap is not None else ""
    raise BudgetExhausted(
        f"greedy needs {greedy.colors_used} > {k} colors on n={g.n}{detail}",
        gap=gap,
    )


def _base_color(g: PlanarGraph, k: int) -> Coloring:
    from .oracle import chi2_exact, greedy_square

    if g.n == 0:
        return Coloring({}, k)
    result = chi2_exact(g, node_budget=BASE_ORACLE_BUDGET)
    if result.witness.assignment and result.witness.colors_used <= k:
        return Coloring(dict(result.witness.assignment), k)
    greedy = greedy_square(g)
    if greedy.colors_used <= k:
        return Coloring(greedy.assignment, k)
    raise BudgetExhausted(
        f"base case n={g.n} needs more than {k} colors"
    )
