"""Exact 2-distance chromatic number for small graphs.

chi2 of a graph equals the chromatic number of its square, computed here by
saturation-ordered branch and bound between a greedy clique lower bound and
a greedy coloring upper bound, the search's own first descent, refined by
bisection.

chi2_exact and greedy_square read an Embedding: the coloring engine's,
whose ids have gaps where vertices were deleted, or ``Embedding(g)`` in
g's ids.  Every tie is broken toward the smaller id, so an ascending
rename of the vertices renames the result and changes nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colorer import Coloring
from .planar import Embedding, square

Adjacency = dict[int, set[int]]

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass
class OracleResult:
    chi2: int
    witness: Coloring
    nodes_explored: int
    exact: bool


class _Budget:
    __slots__ = ("left", "used")

    def __init__(self, limit: int):
        self.left = limit
        self.used = 0

    def spend(self) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        self.used += 1
        return True


def greedy_clique(adj: Adjacency) -> list[int]:
    """Largest clique found by seeded greedy growth; a valid lower bound."""
    best: list[int] = []
    order = sorted(adj, key=lambda v: (-len(adj[v]), v))
    for seed in order:
        if len(adj[seed]) + 1 <= len(best):
            continue
        clique = [seed]
        for v in sorted(adj[seed], key=lambda v: (-len(adj[v]), v)):
            if all(v in adj[c] for c in clique):
                clique.append(v)
        if len(clique) > len(best):
            best = clique
    return best


def greedy_square(e: Embedding) -> Coloring:
    """Valid 2-distance coloring by greedy on the square, in e's ids; never
    more colors than max d2(v) + 1."""
    sq = square(e)
    if not sq:
        return Coloring({}, budget=0)
    colors = _greedy_colors(sq)
    budget = max(len(n2) for n2 in sq.values()) + 1
    return Coloring(colors, budget=max(budget, max(colors.values())))


def _feasible(adj: Adjacency, k: int, budget: _Budget) -> tuple[str, dict[int, int]]:
    """Search for a proper k-coloring of adj.

    Returns ("found", coloring), ("infeasible", {}) or ("abort", {}).
    Depth first over an explicit stack of choices, so deep searches need no
    recursion.  Branches on the most saturated vertex, ties toward higher
    degree then smaller id; only colors up to one past the current maximum
    are tried.
    """
    colors: dict[int, int] = {}
    neighbor_colors: dict[int, set[int]] = {v: set() for v in adj}
    uncolored = set(adj)
    max_used = 0
    # one entry per colored vertex: (vertex, color, newly blocked, max before)
    stack: list[tuple[int, int, list[int], int]] = []
    while uncolored:
        v = min(uncolored, key=lambda u: (-len(neighbor_colors[u]), -len(adj[u]), u))
        c = 1
        while True:  # next color for v, undoing earlier choices when none is left
            limit = min(k, max_used + 1)
            while c <= limit and c in neighbor_colors[v]:
                c += 1
            if c <= limit:
                break
            if not stack:
                return ("infeasible", {})
            v, c, bumped, max_used = stack.pop()
            del colors[v]
            uncolored.add(v)
            for u in bumped:
                neighbor_colors[u].discard(c)
            c += 1
        if not budget.spend():
            return ("abort", {})
        colors[v] = c
        uncolored.discard(v)
        bumped = [u for u in adj[v] if c not in neighbor_colors[u]]
        for u in bumped:
            neighbor_colors[u].add(c)
        stack.append((v, c, bumped, max_used))
        max_used = max(max_used, c)
    return ("found", dict(colors))


def _greedy_colors(adj: Adjacency) -> dict[int, int]:
    """Saturation-greedy coloring of an adjacency structure: the first
    descent of ``_feasible``, which with n colors never backtracks."""
    n = len(adj)
    return _feasible(adj, n, _Budget(n))[1]


def chi2_exact(
    e: Embedding, node_budget: int = DEFAULT_NODE_BUDGET
) -> OracleResult:
    """chi2(e) by branch and bound on the square graph; the witness is in
    e's ids.

    When the node budget runs out the result carries exact=False and the
    best coloring found so far.
    """
    sq = square(e)
    n = len(sq)
    if n == 0:
        return OracleResult(0, Coloring({}, budget=0), 0, True)

    budget = _Budget(node_budget)
    lower = len(greedy_clique(sq))
    best = _greedy_colors(sq)
    upper = max(best.values())

    lo, hi = lower, upper
    exact = True
    while lo < hi:
        mid = (lo + hi) // 2
        verdict, witness = _feasible(sq, mid, budget)
        if verdict == "found":
            best = witness
            hi = max(witness.values())
        elif verdict == "infeasible":
            lo = mid + 1
        else:
            exact = False
            break

    chi2 = max(best.values())
    return OracleResult(
        chi2=chi2,
        witness=Coloring(best, budget=chi2),
        nodes_explored=budget.used,
        exact=exact and lo >= hi,
    )
