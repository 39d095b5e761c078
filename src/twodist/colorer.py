"""2-distance coloring engine: the induction of the proof, run as a loop.

Shrink the graph with the first catalog reduction, color the smaller graph
with the same palette and give every pending vertex the smallest color
unused within distance 2 of it before the reduction.  Cut vertices split
the graph in two; the halves are colored independently and reconciled by a
color permutation.  Tiny graphs are colored directly by the exact oracle.
Steps waiting for their smaller graphs sit on an explicit stack.

The whole run works on one Embedding of the input: each step changes it
locally, so vertex ids never change and a step costs time for what it
touches, and each step makes the one before it final, so the run keeps
one undo frame per Embedding.  What a step needs of its graph later
(``Near``) is read before its reduction, as tuples of ids: unlike a set's,
a tuple of ints leaves the cyclic garbage collector's watch after one
collection.  A pending vertex needs only the colors within distance 2 of
it, so its tuple is its ``distance_walk``: its neighbors, then their
neighbors, repeats and the vertex itself left in, as no set is built to
drop them.  Only a split's smaller side is colored on an Embedding of its
own, copied out in the same ids (``Embedding.part``).  Base cases and
the greedy fallback are colored on the Embedding at hand too, so a run
builds no PlanarGraph of its own (only a catalog gap report holds one).
A graph hook gets the live Embedding.

The palette stays fixed at 3*Delta + 2 throughout (properness keeps the
maximum degree from growing, so the budget never needs to).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import filterfalse, islice
from typing import Callable, Collection

from .errors import (
    BudgetExhausted,
    DegreeBudgetExceeded,
    NoSafeColor,
    PermutationInfeasible,
)
from .planar import Embedding, PlanarGraph, distance_walk
from .reductions import (
    ProofGapReport,
    Reduction,
    find_reduction,
    reduce_in_place,
)

BASE_N = 10  # below this the oracle colors directly
BASE_ORACLE_BUDGET = 300_000

# What a step reads of its graph before its reduction, as tuples of ids: each
# pending vertex's distance_walk (its distance-2 ids, with repeats and the
# vertex itself), or a split's cut vertex's neighbors.
Near = dict[int, tuple[int, ...]] | tuple[int, ...]


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
    violations: list[tuple]  # (u, v, dist, shared color); dist 0: a bad color
    uncolored: list[int]  # vertices of g without a color
    unknown: list  # colored ids that are not vertices of g
    colors_used: int
    budget: int


@dataclass
class RunTrace:
    """Optional instrumentation for one color() run.

    ``extensions`` name vertices by their ids in the input graph.  The hook
    gets every intermediate graph as the engine's live Embedding, which
    keeps those ids, with the catalog's outcome on it (None for a base
    case).  It may read the Embedding only during the call; ``e.snapshot()``
    gives it as a validated PlanarGraph, the ids renumbered 1..n in
    ascending order.  On its first call it
    may attach a ``discharge.LiveCharges`` as ``e.charges``, which the
    engine's applies then keep current.  A split's smaller part reaches the
    hook as an Embedding of its own, with ``charges`` None at its first call.
    """

    steps: list[tuple[str, int, int, int]] = field(default_factory=list)
    # (vertex, rule, colors forbidden, vertices within distance 2, bound)
    extensions: list[tuple[int, str, int, int, int | None]] = field(default_factory=list)
    gaps: list[ProofGapReport] = field(default_factory=list)
    graph_hook: Callable[[Embedding, object], None] | None = None


def verify_coloring(g: PlanarGraph, c: Coloring) -> ColorReport:
    """Exhaustive distance-2 check, independent of how c was produced.

    Valid means total on the vertices of g and nothing else, every color an
    int in 1..budget, and no two vertices within distance 2 sharing a color.
    Ids and colors must be plain ints (a bool is not one), and so must the
    budget.  Ids that are not vertices of g go in ``unknown`` and colors that
    are not ints in 1..budget are violations, whatever their type; a budget
    that is not an int makes every color a violation.  ``colors_used``
    counts the distinct colors that are not violations.

    Two vertices are within distance 2 exactly when both lie in the closed
    neighborhood N[x] of some vertex x, so checking every N[x] checks every
    pair, in O(m) when the colors of each N[x] are distinct.  Only an N[x]
    that repeats a color (or holds an unhashable one) is compared pairwise
    with ``==``.  A clash is reported once, as (u, w) with u < w, in
    ascending order, with u's color.
    """
    colors = {}  # the assignment restricted to vertices of g
    unknown = []
    n = g.n
    for v, col in c.assignment.items():
        if type(v) is int and 1 <= v <= n:
            colors[v] = col
        else:
            unknown.append(v)
    unknown.sort(key=_mixed_order)
    uncolored = [v for v in g.vertices() if v not in colors]
    budget = c.budget if type(c.budget) is int else 0
    good: set[int] = set()
    bad = []
    for v, col in c.assignment.items():
        if type(col) is int and 1 <= col <= budget:
            good.add(col)
        else:
            bad.append((v, col))
    bad.sort(key=lambda vc: _mixed_order(vc[0]))
    violations: list[tuple] = [(v, v, 0, col) for v, col in bad]
    clashes: set[tuple[int, int]] = set()
    get = colors.get
    for x, nbrs in enumerate(g.rotation, 1):
        near = (x, *nbrs)  # N[x]: any two of these are within distance 2
        cols = list(map(get, near))
        try:
            if len(set(cols)) == len(cols):
                continue  # no two alike: no clash
        except TypeError:
            pass  # an unhashable color: compare pairwise below
        for i, a in enumerate(near):
            for b in near[i + 1:]:
                u, w = (a, b) if a < b else (b, a)
                cu = get(u)
                if cu is not None and get(w) == cu:
                    clashes.add((u, w))
    for u, w in sorted(clashes):
        violations.append((u, w, 1 if g.has_edge(u, w) else 2, colors[u]))
    return ColorReport(
        valid=not (violations or uncolored or unknown),
        violations=violations,
        uncolored=uncolored,
        unknown=unknown,
        colors_used=len(good),
        budget=c.budget,
    )


def _mixed_order(x: object) -> tuple:
    """A total order on ids of any type: by type name, ints by value and
    everything else by repr."""
    return type(x).__name__, x if isinstance(x, int) else repr(x)


def extend(
    partial: Coloring,
    near: dict[int, Collection[int]],
    reduction: Reduction | None = None,
    trace: RunTrace | None = None,
) -> Coloring:
    """Color each pending vertex, the keys of ``near`` in order, with the
    smallest color unused on ``near[v]``, the vertices within distance 2
    of it; later pending vertices see the earlier choices.  ``near[v]``
    may repeat ids and hold v or other uncolored ids, which forbid
    nothing (``color`` passes each ``distance_walk``); a trace counts the
    distinct ids other than v.  The colors are added to partial in place,
    which is returned.  The forbidden colors are gathered by C-level set
    work; the first free one is found by counting up from 1, which costs
    less than a set of candidates."""
    assignment = partial.assignment
    k = partial.budget
    get = assignment.get
    lemma, bound = ("-", None) if reduction is None else (reduction.lemma, reduction.d2_bound)
    for v, profile in near.items():
        forbidden = set(map(get, profile))
        forbidden.discard(None)  # an uncolored vertex forbids nothing
        if trace is not None:
            trace.extensions.append((v, lemma, len(forbidden), len(set(profile) - {v}), bound))
        if len(forbidden) >= k:
            detail = "" if reduction is None else f" (rule {lemma}, claimed bound {bound})"
            raise NoSafeColor(f"all {k} colors forbidden at vertex {v}{detail}")
        c = 1
        while c in forbidden:
            c += 1
        assignment[v] = c
    return partial


def merge_at_cut(
    c1: Coloring, c2: Coloring, v: int, nbrs: Collection[int]
) -> Coloring:
    """Combine colorings of the two sides of cut vertex v, whose neighbors
    on both sides are ``nbrs``, adding the second to c1 in place, in time for
    it alone: c1 is returned with its key order kept, or unchanged on failure.

    A global color permutation is applied to the second side so that v keeps
    its first-side color and the second side's neighbor colors land on
    colors unused around v on the first side.  Every cross-side pair within
    distance 2 runs through v, so that is enough.  The palette work runs in
    C-level builtins and touches only the colors that move, never all k.
    """
    k = c1.budget
    first, second = c1.assignment, c2.assignment
    base, was = first[v], second[v]
    nbr2_colors = sorted(set(map(second.get, nbrs)) - {None, was})
    # the first free colors in order: neither v's nor around v on the first side
    taken = set(map(first.get, nbrs))
    taken.add(base)
    free = list(islice(filterfalse(taken.__contains__, range(1, k + 1)), len(nbr2_colors)))
    if len(nbr2_colors) > len(free):
        raise PermutationInfeasible(
            f"palette of {k} too small to merge at vertex {v}"
        )
    perm = dict(zip(nbr2_colors, free))
    perm[was] = base

    # complete to a bijection on 1..k: a color neither moved nor a target
    # stays fixed (perm.get's default), and the targets that do not move
    # go, in order, to the moved colors that are no target
    targets = set(perm.values())
    perm.update(zip(sorted(targets - perm.keys()), sorted(perm.keys() - targets)))

    # v keeps its key position, and perm takes its second-side color to base
    colors = second.values()
    first.update(zip(second, map(perm.get, colors, colors)))
    return c1


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
    # open steps, innermost last: (reduction, what it read of its graph,
    # the graphs it left still to color, the colorings of those done)
    stack: list[tuple[Reduction, Near, list[Embedding], list[Coloring]]] = []
    out = _step(Embedding(g), k, trace)
    while True:
        if isinstance(out, Coloring):
            if not stack:
                return out
            stack[-1][3].append(out)
        else:
            stack.append(out)
        r, near, todo, done = stack[-1]
        if todo:
            out = _step(todo.pop(0), k, trace)
            continue
        stack.pop()
        if r.split is not None:
            out = merge_at_cut(*done, r.split, near)
        else:
            (c,) = done
            for v in near:
                c.assignment.pop(v, None)
            out = extend(c, near, reduction=r, trace=trace)


def _step(
    e: Embedding, k: int, trace: RunTrace | None
) -> Coloring | tuple[Reduction, Near, list[Embedding], list[Coloring]]:
    """One induction step: e colored directly (base case or greedy
    fallback), or the reduction that fires on e, applied, with its
    ``Near``, the graphs it leaves to color (``reduce_in_place``) and an
    empty list for their colorings: the open step ``color`` stacks."""
    hook = trace.graph_hook if trace is not None else None
    if len(e.rot) <= BASE_N:
        if hook is not None:
            hook(e, None)
        return _base_color(e, k)

    outcome = find_reduction(e)
    if trace is not None:
        if isinstance(outcome, Reduction):
            trace.steps.append((outcome.lemma, e.n, e.m, e.max_degree()))
        else:
            trace.gaps.append(outcome)
        if hook is not None:
            hook(e, outcome)

    if isinstance(outcome, ProofGapReport):
        # outside the guarantee the catalog may run dry; fall back to greedy
        return _greedy_fallback(e, k, outcome)

    r = outcome
    if r.split is None:
        near: Near = {}
        for v in r.pending:
            near[v] = distance_walk(e, v)
    else:
        near = tuple(e.adj(r.split))
    try:
        todo = reduce_in_place(e, r)
    except DegreeBudgetExceeded:
        # possible only below the guarantee threshold, where a fan center
        # may sit at the maximum degree already; never with Delta >= 6.
        # reduce_in_place has undone the apply it refused.
        if e.max_degree() >= 6:
            raise
        return _greedy_fallback(e, k, None)
    return r, near, todo, []


def _greedy_fallback(
    e: Embedding, k: int, gap: ProofGapReport | None
) -> Coloring:
    from .oracle import greedy_square

    greedy = greedy_square(e)
    if greedy.colors_used <= k:
        return Coloring(greedy.assignment, k)
    detail = f" (catalog gap, delta={gap.delta})" if gap is not None else ""
    raise BudgetExhausted(
        f"greedy needs {greedy.colors_used} > {k} colors on n={e.n}{detail}",
        gap=gap,
    )


def _base_color(e: Embedding, k: int) -> Coloring:
    from .oracle import chi2_exact

    if e.n == 0:
        return Coloring({}, k)
    # the search starts from greedy_square's coloring and only ever trades
    # it for one with fewer colors, so a greedy retry could not do better
    result = chi2_exact(e, node_budget=BASE_ORACLE_BUDGET)
    if result.witness.colors_used <= k:
        return Coloring(dict(result.witness.assignment), k)
    raise BudgetExhausted(
        f"base case n={e.n} needs more than {k} colors"
    )
