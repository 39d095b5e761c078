"""Connected simple planar graphs carried as rotation systems.

A graph is stored as one counterclockwise neighbor cycle per vertex.  Faces
are derived by tracing the rotation system, never stored as ground truth;
the Euler count n - m + f == 2 is what certifies that the input really is a
planar embedding of a connected graph.  Vertex ids are dense 1..n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    DegreeBudgetExceeded,
    EmbeddingInvalid,
    NotACutVertex,
    NotConnected,
    SurgeryDisconnects,
    SurgeryNotPlanar,
    UnknownVertex,
)

Edge = tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def reachable(
    nbrs: Callable[[int], Iterable[int]], n: int, start: int, avoid: int = 0
) -> list[int]:
    """Vertices reachable from start without passing through avoid, in
    breadth-first order; every id involved lies in 1..n."""
    seen = [False] * (n + 1)
    seen[avoid] = seen[start] = True
    order = [start]
    for v in order:  # order grows while it is walked: a breadth-first queue
        for u in nbrs(v):
            if not seen[u]:
                seen[u] = True
                order.append(u)
    return order


def _trace_rotation(rot: Mapping[int, Sequence[int]]) -> list[list[Edge]]:
    """Trace the faces of a rotation system given as vertex -> neighbor cycle.

    Each face is returned as its dart cycle [(u, v), ...]; the successor of
    dart (u, v) is (v, w) where w follows u in the cycle at v.  Every dart
    belongs to exactly one face.
    """
    pos: dict[int, dict[int, int]] = {}
    for v in rot:
        pos[v] = {u: i for i, u in enumerate(rot[v])}
    seen: set[Edge] = set()
    faces: list[list[Edge]] = []
    for start_v in sorted(rot):
        for start_u in rot[start_v]:
            dart = (start_v, start_u)
            if dart in seen:
                continue
            cycle: list[Edge] = []
            while dart not in seen:
                seen.add(dart)
                cycle.append(dart)
                u, v = dart
                nbrs = rot[v]
                dart = (v, nbrs[(pos[v][u] + 1) % len(nbrs)])
            faces.append(cycle)
    return faces


@dataclass(frozen=True)
class Face:
    """One face of an embedding, as the closed walk of its boundary.

    The boundary lists each visited vertex once per visit, so its length is
    the face degree.  Boundaries are closed walks, not necessarily cycles:
    a vertex may repeat when the graph has a cut vertex.
    """

    boundary: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.boundary)

    def canonical_key(self) -> tuple[int, ...]:
        """Lexicographically smallest rotation of the boundary walk."""
        b = self.boundary
        n = len(b)
        return min(tuple(b[i:] + b[:i]) for i in range(n))


class PlanarGraph:
    """Immutable embedded planar graph.

    ``rotation[v - 1]`` is the counterclockwise cycle of neighbors of vertex
    ``v``.  Construction validates symmetry, simplicity, connectivity and the
    Euler face count, so every live instance is a certified embedding.
    """

    __slots__ = ("rotation", "m", "_adj", "_faces", "_dart_face", "_square")

    def __init__(self, rotation: Sequence[Sequence[int]]):
        rot = tuple(tuple(nbrs) for nbrs in rotation)
        self.rotation: tuple[tuple[int, ...], ...] = rot
        n = len(rot)
        seen_edges = 0
        for v in range(1, n + 1):
            nbrs = rot[v - 1]
            if len(set(nbrs)) != len(nbrs):
                raise EmbeddingInvalid(f"repeated neighbor in rotation of {v}")
            for u in nbrs:
                if not (1 <= u <= n):
                    raise EmbeddingInvalid(f"vertex {v} lists unknown neighbor {u}")
                if u == v:
                    raise EmbeddingInvalid(f"self-loop at {v}")
            seen_edges += len(nbrs)
        if seen_edges % 2:
            raise EmbeddingInvalid("odd number of darts")
        self.m: int = seen_edges // 2
        self._adj: tuple[frozenset[int], ...] = tuple(
            frozenset(nbrs) for nbrs in rot
        )
        for v in range(1, n + 1):
            for u in rot[v - 1]:
                if v not in self._adj[u - 1]:
                    raise EmbeddingInvalid(
                        f"asymmetric adjacency: {v} lists {u} but not vice versa"
                    )
        if n and len(reachable(lambda v: rot[v - 1], n, 1)) != n:
            raise NotConnected("graph is not connected")
        self._faces: tuple[Face, ...] | None = None
        self._dart_face: dict[Edge, int] | None = None
        self._square: dict[int, frozenset[int]] | None = None
        self._check_euler()

    # -- basic accessors -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.rotation)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return self.rotation[v - 1]

    def adj(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return self._adj[v - 1]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self.rotation[v - 1])

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u - 1]

    def edges(self) -> Iterator[Edge]:
        for v in self.vertices():
            for u in self.rotation[v - 1]:
                if v < u:
                    yield (v, u)

    def max_degree(self) -> int:
        return max((len(r) for r in self.rotation), default=0)

    def min_degree(self) -> int:
        return min((len(r) for r in self.rotation), default=0)

    def size(self) -> int:
        """|V| + |E|, the measure every reduction strictly decreases."""
        return self.n + self.m

    def _check_vertex(self, v: int) -> None:
        if not (isinstance(v, int) and 1 <= v <= self.n):
            raise UnknownVertex(f"vertex {v} not in 1..{self.n}")

    # -- equality is structural ------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PlanarGraph) and self.rotation == other.rotation

    def __hash__(self) -> int:
        return hash(self.rotation)

    def __repr__(self) -> str:
        return f"PlanarGraph(n={self.n}, m={self.m})"

    # -- faces -------------------------------------------------------------

    def _check_euler(self) -> None:
        n = self.n
        if n <= 1:
            # A single vertex (or the empty graph) carries no darts; treat it
            # as the degenerate sphere embedding with no traced faces.
            self._faces = ()
            self._dart_face = {}
            return
        faces = self._trace()
        f = len(faces)
        if n - self.m + f != 2:
            raise EmbeddingInvalid(
                f"Euler count failed: n={n} m={self.m} f={f} "
                f"(n - m + f = {n - self.m + f}, expected 2)"
            )

    def _trace(self) -> tuple[Face, ...]:
        if self._faces is None:
            rot = {v: self.rotation[v - 1] for v in self.vertices()}
            cycles = _trace_rotation(rot)
            faces = []
            dart_face: dict[Edge, int] = {}
            for idx, cycle in enumerate(cycles):
                faces.append(Face(tuple(u for (u, _) in cycle)))
                for dart in cycle:
                    dart_face[dart] = idx
            self._faces = tuple(faces)
            self._dart_face = dart_face
        return self._faces

    def dart_face_map(self) -> dict[Edge, int]:
        """Map each dart (u, v) to the index of the face it borders."""
        self._trace()
        assert self._dart_face is not None
        return self._dart_face

    def corner_faces(self, v: int) -> tuple[int, ...]:
        """Face indices around v; entry i sits between rotation neighbors
        i and i+1 (cyclically)."""
        self._check_vertex(v)
        dart_face = self.dart_face_map()
        nbrs = self.rotation[v - 1]
        k = len(nbrs)
        return tuple(dart_face[(v, nbrs[(i + 1) % k])] for i in range(k))


def trace_faces(g: PlanarGraph) -> tuple[Face, ...]:
    """All faces of the embedding.  Each directed edge lies on exactly one
    boundary and the face degrees sum to 2m."""
    return g._trace()


def distance_profile(g: PlanarGraph, v: int) -> frozenset[int]:
    """Exact set of vertices at distance 1 or 2 from v."""
    g._check_vertex(v)
    first = g.adj(v)
    reach = set(first)
    for u in first:
        reach.update(g.adj(u))
    reach.discard(v)
    return frozenset(reach)


def square(g: PlanarGraph) -> dict[int, set[int]]:
    """Adjacency of the square graph: u ~ v iff their distance in g is 1 or 2.

    Plain adjacency only; the square of a planar graph is generally not
    planar so no embedding is produced.
    """
    if g._square is None:
        sq: dict[int, frozenset[int]] = {}
        for v in g.vertices():
            sq[v] = distance_profile(g, v)
        g._square = sq
    return {v: set(n2) for v, n2 in g._square.items()}


@dataclass(frozen=True)
class SurgeryResult:
    """New graph plus the dense-id rename applied to surviving vertices."""

    graph: PlanarGraph
    old_to_new: dict[int, int]


def surgery(
    g: PlanarGraph,
    delete_vertices: Iterable[int] = (),
    delete_edges: Iterable[Edge] = (),
    add_edges: Iterable[Edge] = (),
    max_degree: int | None = None,
) -> SurgeryResult:
    """Delete vertices and edges, then draw new edges into shared faces.

    Each added edge must join two surviving vertices that lie on a common
    face of the post-deletion embedding; it is inserted into that face,
    splitting it, which keeps the rotation system planar.  An edge that is
    already present is skipped silently.  When several faces are shared, the
    one touched by the deletions wins (most boundary vertices that lost a
    neighbor), with the smallest face index breaking ties.  Survivors are
    renamed to dense ids 1..n'; the rename map is returned alongside.
    """
    dels = set(delete_vertices)
    for v in dels:
        g._check_vertex(v)
    del_edges = {edge_key(u, v) for (u, v) in delete_edges}
    for (u, v) in del_edges:
        g._check_vertex(u)
        g._check_vertex(v)
        if not g.has_edge(u, v):
            raise UnknownVertex(f"edge {u}-{v} not in graph")

    rot: dict[int, list[int]] = {}
    scarred: set[int] = set()
    for v in g.vertices():
        if v in dels:
            continue
        kept = [
            u
            for u in g.rotation[v - 1]
            if u not in dels and edge_key(u, v) not in del_edges
        ]
        if len(kept) != g.degree(v):
            scarred.add(v)
        rot[v] = kept

    additions = []
    for (a, b) in add_edges:
        if a in dels or b in dels or a not in rot or b not in rot:
            raise UnknownVertex(f"added edge {a}-{b} touches a missing vertex")
        if a == b:
            raise SurgeryNotPlanar("cannot add a self-loop")
        additions.append((a, b))

    if rot and len(reachable(rot.__getitem__, g.n, next(iter(rot)))) != len(rot):
        raise SurgeryDisconnects(
            f"deleting {sorted(dels)} / {sorted(del_edges)} disconnects the graph"
        )

    for (a, b) in additions:
        if b in rot[a]:
            continue  # already adjacent: the distance requirement is met
        _insert_edge(rot, a, b, scarred)
        if max_degree is not None and (
            len(rot[a]) > max_degree or len(rot[b]) > max_degree
        ):
            raise DegreeBudgetExceeded(
                f"adding {a}-{b} exceeds the degree cap {max_degree}"
            )

    survivors = sorted(rot)
    old_to_new = {old: i + 1 for i, old in enumerate(survivors)}
    new_rotation = [
        tuple(old_to_new[u] for u in rot[old]) for old in survivors
    ]
    return SurgeryResult(graph=PlanarGraph(new_rotation), old_to_new=old_to_new)


def _insert_edge(
    rot: dict[int, list[int]], a: int, b: int, scarred: set[int]
) -> None:
    """Insert edge a-b into a face shared by a and b.

    The new neighbor goes immediately after the boundary predecessor of the
    chosen face in each endpoint's rotation; that is the unique position
    that splits the face instead of breaking the map.
    """
    faces = _trace_rotation(rot)
    candidates = []
    for idx, cycle in enumerate(faces):
        tails = [u for (u, _) in cycle]
        if a in tails and b in tails:
            scar_count = len(scarred.intersection(tails))
            candidates.append((-scar_count, idx, cycle))
    if not candidates:
        raise SurgeryNotPlanar(f"{a} and {b} share no face; cannot add edge")
    candidates.sort(key=lambda t: (t[0], t[1]))
    cycle = candidates[0][2]

    pred_a = next(u for (u, w) in cycle if w == a)
    pred_b = next(u for (u, w) in cycle if w == b)
    if not rot[a] or not rot[b]:
        raise SurgeryNotPlanar(f"cannot attach edge {a}-{b} to an isolated vertex")
    rot[a].insert(rot[a].index(pred_a) + 1, b)
    rot[b].insert(rot[b].index(pred_b) + 1, a)


def is_cut_vertex(g: PlanarGraph, v: int) -> bool:
    """True when removing v disconnects the graph."""
    g._check_vertex(v)
    n = g.n
    if n <= 2:
        return False
    start = 1 if v != 1 else 2
    return len(reachable(g.adj, n, start, avoid=v)) != n - 1


def articulation_points(g: PlanarGraph) -> set[int]:
    """All cut vertices, via one iterative lowpoint DFS."""
    n = g.n
    if n <= 2:
        return set()
    disc = [0] * (n + 1)
    low = [0] * (n + 1)
    parent = [0] * (n + 1)
    cuts: set[int] = set()
    timer = 1
    disc[1] = low[1] = timer
    root_children = 0
    stack: list[tuple[int, int]] = [(1, 0)]
    while stack:
        v, i = stack[-1]
        nbrs = g.rotation[v - 1]
        if i < len(nbrs):
            stack[-1] = (v, i + 1)
            u = nbrs[i]
            if not disc[u]:
                parent[u] = v
                if v == 1:
                    root_children += 1
                timer += 1
                disc[u] = low[u] = timer
                stack.append((u, 0))
            elif u != parent[v]:
                low[v] = min(low[v], disc[u])
        else:
            stack.pop()
            p = parent[v]
            if p:
                low[p] = min(low[p], low[v])
                if p != 1 and low[v] >= disc[p]:
                    cuts.add(p)
    if root_children >= 2:
        cuts.add(1)
    return cuts


def split_at(g: PlanarGraph, v: int) -> tuple[SurgeryResult, SurgeryResult]:
    """Split at a cut vertex into two surgery results: the first keeps the
    component of G - v containing the smallest vertex id, the second keeps
    the rest; both keep v and inherit the induced rotation order."""
    g._check_vertex(v)
    rest = set(g.vertices()) - {v}
    first = set(reachable(g.adj, g.n, min(rest), avoid=v)) if rest else set()
    rest -= first
    if not rest:
        raise NotACutVertex(f"{v} is not a cut vertex")
    return surgery(g, delete_vertices=rest), surgery(g, delete_vertices=first)
