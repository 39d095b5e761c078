"""Independent reference implementations.

Everything here recomputes results from first principles (plain BFS,
exhaustive enumeration) without touching the package's own square/oracle
code paths, so tests can use these as ground truth.
"""

from __future__ import annotations

from collections import deque

from twodist import PlanarGraph


def bfs_distances(g: PlanarGraph, source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in g.adj(v):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def pairs_within_two(g: PlanarGraph) -> set[tuple[int, int]]:
    """All unordered pairs at distance 1 or 2, by full BFS per vertex."""
    out = set()
    for v in g.vertices():
        for u, d in bfs_distances(g, v).items():
            if u > v and 1 <= d <= 2:
                out.add((v, u))
    return out


def square_adjacency(g: PlanarGraph) -> dict[int, set[int]]:
    sq: dict[int, set[int]] = {v: set() for v in g.vertices()}
    for (u, v) in pairs_within_two(g):
        sq[u].add(v)
        sq[v].add(u)
    return sq


def _exists_coloring(adj: dict[int, set[int]], k: int) -> bool:
    """Plain backtracking over vertices in id order; no heuristics."""
    order = sorted(adj)
    colors: dict[int, int] = {}

    def walk(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        taken = {colors[u] for u in adj[v] if u in colors}
        for c in range(1, k + 1):
            if c not in taken:
                colors[v] = c
                if walk(i + 1):
                    return True
                del colors[v]
        return False

    return walk(0)


def brute_chi2(g: PlanarGraph) -> int:
    """Smallest k admitting a 2-distance k-coloring, for tiny graphs."""
    if g.n > 9:
        raise ValueError("exhaustive search is for n <= 9 only")
    if g.n == 0:
        return 0
    adj = square_adjacency(g)
    k = 1
    while not _exists_coloring(adj, k):
        k += 1
    return k


def properness_exhaustive(
    g: PlanarGraph,
    h: PlanarGraph,
    old_to_new: dict[int, int],
    pending: tuple[int, ...],
    ) -> bool:
    """Full-square properness reference: every surviving non-pending pair at
    distance <= 2 in g keeps distance <= 2 in h, and the maximum degree does
    not grow."""
    if h.max_degree() > g.max_degree():
        return False
    skip = set(pending)
    common = [v for v in g.vertices() if v in old_to_new and v not in skip]
    for i, a in enumerate(common):
        dist_g = bfs_distances(g, a)
        dist_h = bfs_distances(h, old_to_new[a])
        for b in common[i + 1:]:
            if dist_g.get(b, 99) <= 2 and dist_h.get(old_to_new[b], 99) > 2:
                return False
    return True
