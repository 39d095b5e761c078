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


def greedy_clique(adj: Adjacency) -> list[int]:
    """Largest clique found by seeded greedy growth; a valid lower bound."""
    best: list[int] = []
    order = sorted(adj, key=lambda v: (-len(adj[v]), v))
    rank = {v: i for i, v in enumerate(order)}  # higher degree first, then smaller id
    for seed in order:
        if len(adj[seed]) + 1 <= len(best):
            continue
        clique = [seed]
        common = set(adj[seed])  # the vertices adjacent to the whole clique
        for v in sorted(adj[seed], key=rank.__getitem__):
            if v in common:
                clique.append(v)
                common &= adj[v]
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
    return Coloring(colors, budget=max(len(n2) for n2 in sq.values()) + 1)


def _feasible(adj: Adjacency, k: int, left: int) -> tuple[str, dict[int, int], int]:
    """Search for a proper k-coloring of adj in at most ``left`` nodes, one
    per color choice.

    Returns the verdict, the coloring and the nodes left: ("found",
    coloring, left), ("infeasible", {}, left) or ("abort", {}, left).

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
                return ("infeasible", {}, left)
            v, c, bumped, max_used = stack.pop()
            del colors[v]
            uncolored.add(v)
            for u in bumped:
                neighbor_colors[u].discard(c)
            c += 1
        if left <= 0:
            return ("abort", {}, left)
        left -= 1
        colors[v] = c
        uncolored.discard(v)
        bumped = [u for u in adj[v] if c not in neighbor_colors[u]]
        for u in bumped:
            neighbor_colors[u].add(c)
        stack.append((v, c, bumped, max_used))
        max_used = max(max_used, c)
    return ("found", dict(colors), left)


def _greedy_colors(adj: Adjacency) -> dict[int, int]:
    """Saturation-greedy coloring of an adjacency structure: the first
    descent of ``_feasible``, which with n colors never backtracks."""
    n = len(adj)
    return _feasible(adj, n, n)[1]


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

    left = node_budget
    lower = len(greedy_clique(sq))
    best = _greedy_colors(sq)
    upper = max(best.values())

    lo, hi = lower, upper
    exact = True
    while lo < hi:
        mid = (lo + hi) // 2
        verdict, witness, left = _feasible(sq, mid, left)
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
        nodes_explored=node_budget - left,
        exact=exact,
    )
