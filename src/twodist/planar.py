"""Connected simple planar graphs carried as rotation systems.

A graph is stored as one counterclockwise neighbor cycle per vertex, and
that rotation is the only ground truth.  A PlanarGraph traces its faces
once, at construction, and keeps them as derived data in the shape the
Embedding uses too: ``face[v][u]``, the face of dart (v, u), and ``fdeg``,
the degree of each face; ``faces`` holds each face's boundary walk, a
tuple of vertex ids, for the audit.  The trace doubles as the symmetry
check, and the Euler count n - m + f == 2 is what certifies that the
input really is a planar embedding of a connected graph.  Vertex ids are
dense 1..n.  The coloring engine works on an Embedding instead: a mutable
copy with stable ids that keeps its faces, degrees and cut vertices up to
date locally as surgery edits it in place, testing only the cut flags that
can move.  It logs the inverse of each edit, a function and its arguments,
so undoing a surgery is replaying those, newest first, and re-deriving the
flags of the vertices it touched; a later surgery drops the log.  Only this
module writes or reads it: an undo re-derives an attached charge ledger.
One side of a cut vertex is copied out as an Embedding of its own
(``Embedding.part``), and ``Embedding.snapshot`` gives the current graph
as a validated PlanarGraph, the live ids renumbered 1..n in ascending
order.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import chain, compress, islice
from operator import eq, itemgetter
from typing import Callable, Iterable, Iterator, KeysView, NoReturn, Sequence

from .errors import (
    EmbeddingInvalid,
    InvariantViolated,
    NoApplyInForce,
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


_INT = {int}
_first = itemgetter(0)  # a dart's tail, or the smallest id of a degree bucket


def _repeats(fv: dict[int, int]) -> bool:
    """The cut test: whether two of a vertex's darts lie on one face."""
    return len(set(fv.values())) < len(fv)


def _reject_rotations(rot: tuple) -> NoReturn:
    """Name the first fault in the rotations, which a whole-graph test
    found: vertex by vertex, per neighbor in rotation order an unknown id
    (anything but an int in 1..n) or a self-loop, then a repeated
    neighbor."""
    n = len(rot)
    for v, nbrs in enumerate(rot, 1):
        for u in nbrs:
            if type(u) is not int or not 1 <= u <= n:
                raise EmbeddingInvalid(f"vertex {v} lists unknown neighbor {u!r}")
            if u == v:
                raise EmbeddingInvalid(f"self-loop at {v}")
        if len(set(nbrs)) != len(nbrs):
            raise EmbeddingInvalid(f"repeated neighbor in rotation of {v}")
    raise InvariantViolated("a rotation test failed on valid rotations")


def _reject_asymmetry(rot: tuple, nxt: dict[int, dict[int, int]]) -> NoReturn:
    """Name the first dart (v, u), in vertex then rotation order, whose
    reverse is missing; the face trace found that one exists."""
    v, u = next((v, u) for v, nbrs in enumerate(rot, 1) for u in nbrs if v not in nxt[u])
    raise EmbeddingInvalid(f"asymmetric adjacency: {v} lists {u} but not vice versa")


class PlanarGraph:
    """Immutable embedded planar graph.

    ``rotation[v - 1]`` is the counterclockwise cycle of neighbors of vertex
    ``v``.  Construction validates ids, simplicity, symmetry and
    connectivity, traces the faces and checks the Euler face count, so
    every live instance is a certified embedding.  The faces are kept in
    the Embedding's shape: ``face[v][u]`` is the index of the face that
    dart (v, u) borders and ``fdeg[i]`` the degree of face i.  ``faces``
    lists the face boundary walks in index order, which is the order the
    trace meets them: vertex by vertex, each vertex's darts in rotation
    order.  A walk is a tuple of vertex ids, one per visit, so its length
    is the face degree; only a cut vertex can repeat on it.
    The keys of ``face[v]`` are v's neighbors, so they serve as its
    adjacency set, as on the Embedding.
    """

    __slots__ = ("rotation", "m", "faces", "face", "fdeg", "_delta")

    def __init__(self, rotation: Sequence[Sequence[int]]):
        rot = tuple(map(tuple, rotation))
        self.rotation: tuple[tuple[int, ...], ...] = rot
        n = len(rot)
        listed = list(chain.from_iterable(rot))  # every id in every rotation
        if listed and not (
            set(map(type, listed)) <= _INT and 1 <= min(listed) and max(listed) <= n
        ):
            _reject_rotations(rot)
        # nxt[v][u] follows u in the rotation at v: the dart after (u, v)
        # on its face is (v, nxt[v][u])
        nxt = {v: dict(zip(nbrs, nbrs[1:] + nbrs[:1])) for v, nbrs in enumerate(rot, 1)}
        degrees = list(map(len, rot))
        # a repeated neighbor shrinks a map; a self-loop puts v in nxt[v]
        if list(map(len, nxt.values())) != degrees or any(
            map(dict.__contains__, nxt.values(), nxt)
        ):
            _reject_rotations(rot)
        if len(listed) % 2:
            raise EmbeddingInvalid("odd number of darts")
        self.m: int = len(listed) // 2
        self._delta = max(degrees, default=0)
        face: dict[int, dict[int, int]] = {v: {} for v in nxt}
        walks: list[tuple[int, ...]] = []
        try:
            for v, nbrs in enumerate(rot, 1):
                fv = face[v]
                for u in nbrs:
                    if u in fv:
                        continue
                    idx, walk = len(walks), []
                    x, y, fx = v, u, fv
                    while y not in fx:
                        fx[y] = idx
                        walk.append(x)
                        # a missing reverse dart is the asymmetry check
                        x, y = y, nxt[y][x]
                        fx = face[x]
                    walks.append(tuple(walk))
        except KeyError:
            _reject_asymmetry(rot, nxt)
        if n and len(reachable(nxt.__getitem__, n, 1)) != n:
            raise NotConnected("graph is not connected")
        self.face: dict[int, dict[int, int]] = face
        self.fdeg: tuple[int, ...] = tuple(map(len, walks))
        self.faces: tuple[tuple[int, ...], ...] = tuple(walks)
        # a single vertex (or the empty graph) carries no darts: the
        # degenerate sphere embedding, with no traced faces
        f = len(walks)
        if n > 1 and n - self.m + f != 2:
            raise EmbeddingInvalid(
                f"Euler count failed: n={n} m={self.m} f={f} "
                f"(n - m + f = {n - self.m + f}, expected 2)"
            )

    # -- basic accessors -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.rotation)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return self.rotation[v - 1]

    def adj(self, v: int) -> KeysView[int]:
        self._check_vertex(v)
        return self.face[v].keys()

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self.rotation[v - 1])

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self.face[u]

    def edges(self) -> Iterator[Edge]:
        for v in self.vertices():
            for u in self.rotation[v - 1]:
                if v < u:
                    yield (v, u)

    def max_degree(self) -> int:
        return self._delta

    def size(self) -> int:
        """|V| + |E|, the measure every reduction strictly decreases."""
        return self.n + self.m

    def _check_vertex(self, v: int) -> None:
        if not (type(v) is int and 1 <= v <= self.n):
            raise UnknownVertex(f"vertex {v} not in 1..{self.n}")

    # -- equality is structural ------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PlanarGraph) and self.rotation == other.rotation

    def __hash__(self) -> int:
        return hash(self.rotation)

    def __repr__(self) -> str:
        return f"PlanarGraph(n={self.n}, m={self.m})"


def distance_walk(e: Embedding, v: int) -> tuple[int, ...]:
    """The vertices at distance 1 or 2 from v, in e's own ids, as one
    concatenation read off the face map: v's neighbors, then each
    neighbor's neighbors.  Ids may repeat, and v itself appears once per
    neighbor; the set of the rest is ``distance_profile(e, v)``."""
    e._check_vertex(v)
    face = e.face
    first = face[v]  # its keys are v's neighbors
    return (*first, *chain.from_iterable(map(face.__getitem__, first)))


def distance_profile(e: Embedding, v: int) -> set[int]:
    """Exact set of vertices at distance 1 or 2 from v, in e's own ids:
    ``distance_walk`` as a set, less v, so N2(v) is read off the face map
    in one place.  A new set, the caller's to keep or change."""
    reach = set(distance_walk(e, v))
    reach.discard(v)
    return reach


def square(e: Embedding) -> dict[int, set[int]]:
    """Adjacency of the square graph: u ~ v iff their distance in e is 1 or 2.

    Keyed by e's own vertex ids, which are those of the graph it was built
    from.  Plain adjacency only; the square of a planar graph is generally
    not planar so no embedding is produced.
    """
    return {v: distance_profile(e, v) for v in e.face}


# One undo-log entry per edit made in place, newest last: a module-level
# function and the arguments whose call inverts the edit, such as
# (_put_back, kept, fx, i, u, f) for neighbor u deleted from position i of
# a rotation list with its dart on face f, or (dict.update, fdeg, degrees)
# for the faces a deletion popped: one tuple, and no bound method.
LogEntry = tuple


def _put_back(kept: list[int], fx: dict[int, int], i: int, u: int, f: int) -> None:
    kept.insert(i, u)
    fx[u] = f


def _unborn(face: dict, fdeg: dict, new: int, darts: list[Edge], ids: list[int]) -> None:
    """Put each dart of the born face back on the face of the same index in ids."""
    del fdeg[new]
    for (x, y), f in zip(darts, ids):
        face[x][y] = f


def _entry(walk: list[Edge], v: int, starts: list[Edge]) -> int:
    """The tail of the dart by which a face's walk enters v: at the visit
    whose next dart is one of ``starts``, where v lost neighbors, or at its
    first visit when none is."""
    visits = [i for i, (_, y) in enumerate(walk) if y == v]
    i = next((i for i in visits if walk[i + 1 - len(walk)] in starts), visits[0])
    return walk[i][0]


class Change:
    """What one ``Embedding.apply`` on e did, as its primitives record it;
    it is also the apply's undo frame.

    ``log`` is its undo log, ``m`` and ``faces`` e's edge count and face
    counter before it, and ``touched`` the vertices whose darts it
    changed: an undo re-derives their degree and cut flags; ``recheck``
    those on a face born visiting some vertex twice.  ``dels`` are the
    deleted ids, ``lost`` maps each survivor to the neighbors it lost,
    ``popped`` holds the face ids removed and ``born`` each face walked
    into being with its darts then (a later link may split it); ``starts``
    has the dart from each survivor to the neighbor after each run of
    neighbors it lost, which marks the corner where they were.  ``links``
    has one (face, dart) pair per edge drawn, in order: the face the link
    shrank in place and the new edge's dart left on it.
    """

    __slots__ = ("log", "m", "faces", "touched", "recheck", "dels", "lost", "popped", "born",
                 "starts", "links")

    def __init__(self, e: Embedding, dels: set[int]):
        self.log: list[LogEntry] = []
        self.m, self.faces = e.m, e._faces
        self.touched: set[int] = set()
        self.recheck: set[int] = set()
        self.dels = dels
        self.lost: dict[int, set[int]] = {}
        self.popped: set[int] = set()
        self.born: dict[int, list[Edge]] = {}
        self.starts: list[Edge] = []
        self.links: tuple[tuple[int, Edge], ...] = ()


class Embedding:
    """A mutable working copy of a PlanarGraph.

    Vertex ids stay those of the graph it was built from.  Alongside the
    rotation lists it keeps, up to date after every change:

    - ``face[v][u]``: the face that dart (v, u) borders, and ``fdeg`` the
      degree of every face (so ``len(fdeg)`` is the face count f);
    - ``bydeg``: the vertices of each degree, each bucket an ascending
      list that ``of_degree`` hands out as it is, to be read only; the
      degrees present are kept in an ascending list as well, so the
      minimum and maximum degree take no scan;
    - ``cuts``: the cut vertices.  In a connected plane graph a vertex is a
      cut vertex exactly when it repeats on some face boundary walk, that is
      when two of its corners lie in one face (Mohar and Thomassen,
      *Graphs on Surfaces*);
    - ``m``, the edge count (n is the number of live vertices);
    - ``charges``: None, or a ``discharge.LiveCharges``.  Each successful
      ``apply`` hands it the ``Change`` its primitives recorded, and the
      ledger brings itself up to date from that record alone; each
      ``undo`` replaces it with one derived afresh, in O(n).

    What a change costs:

    - Deleting a vertex or an edge edits, in place, the rotation list and
      dart-face dict of each survivor that loses a neighbor.  Losing one
      costs one ``list.index``, one ``del`` and one log entry; losing
      several, one pass over the rotation list and two log entries.  Only
      the faces that replace the ones the deletion touched are walked,
      starting at the corner after each run of lost neighbors; a walk
      reads each successor in line.  A face born takes its darts over in
      one pass and logs one entry for them all.
    - A split finds the smaller side of its cut vertex v (``smaller_side``)
      by walks started from the runs of v's rotation: a pass over that
      rotation, and time for the smaller side when G - v has two
      components (for all but the largest component of G - v in general).
      It copies the side out (``part``) and deletes it, so no split copies
      or deletes the larger side.
    - Adding an edge walks the smaller of the two faces it splits.
    - The degree buckets and cut flags are re-derived once per ``apply``,
      in one pass over the vertices whose darts changed: the cut test, a
      C-level set over a vertex's dart faces, runs only where a flag can
      move (``_refresh``), and only a vertex whose degree changed moves.  A
      new Embedding, or a ``part``, fills its buckets in one ascending pass.

    A successful ``apply`` keeps its ``Change`` as the undo frame ``_last``,
    replacing the one before, which is final from then on: the inverse of
    every edit, m and the face counter it started from, and the vertices it
    touched.  ``undo`` replays the inverses, newest first, restores m and the
    counter, and re-derives the flags of those vertices: the embedding is
    back exactly, rotation order included (a dict key put back iterates last).
    """

    __slots__ = (
        "rot", "face", "fdeg", "m", "bydeg", "cuts", "charges", "_deg", "_degs", "_faces",
        "_last",
    )

    def __init__(self, g: PlanarGraph):
        self.rot: dict[int, list[int]] = {
            v: list(r) for v, r in enumerate(g.rotation, 1)
        }
        self.face: dict[int, dict[int, int]] = {v: dict(fv) for v, fv in g.face.items()}
        self.fdeg: dict[int, int] = dict(enumerate(g.fdeg))
        self._faces = len(self.fdeg)  # face ids handed out so far
        self._start()

    def _start(self) -> None:
        """Derive m, the degree buckets and the cut flags; no apply, no ledger."""
        rot, face = self.rot, self.face
        self._deg = deg = dict(zip(rot, map(len, rot.values())))
        self.m = sum(deg.values()) // 2
        self.bydeg: dict[int, list[int]] = {}
        for v in sorted(deg):
            self.bydeg.setdefault(deg[v], []).append(v)
        self._degs = sorted(self.bydeg)  # the degrees present, ascending
        self.cuts = set(compress(face, map(_repeats, face.values())))
        self._last: Change | None = None  # the undo frame of the last apply
        self.charges = None  # a discharge.LiveCharges, when one is attached

    # -- reads, shaped like PlanarGraph's ----------------------------------

    @property
    def n(self) -> int:
        return len(self.rot)

    def of_degree(self, k: int) -> Sequence[int]:
        """The vertices of degree k, ascending: the live bucket, read only."""
        return self.bydeg.get(k, ())

    def neighbors(self, v: int) -> list[int]:
        return self.rot[v]

    def adj(self, v: int) -> KeysView[int]:
        return self.face[v].keys()

    def degree(self, v: int) -> int:
        return len(self.rot[v])

    def max_degree(self) -> int:
        return self._degs[-1] if self._degs else 0

    def min_degree(self) -> int:
        return self._degs[0] if self._degs else 0

    def face_degree(self, u: int, v: int) -> int:
        return self.fdeg[self.face[u][v]]

    def corner_degrees(self, v: int) -> tuple[int, ...]:
        """Face degrees around v, in rotation order: entry i is the degree
        of the face between rotation neighbors i and i+1 (cyclically)."""
        r = self.rot[v]
        return tuple(map(self.fdeg.__getitem__, map(self.face[v].__getitem__, r[1:] + r[:1])))

    def _check_vertex(self, v: int) -> None:
        if not (type(v) is int and v in self.rot):
            raise UnknownVertex(f"vertex {v} not in the graph")

    def _pairs(self, edges: object) -> Sequence[Edge]:
        """edges as pairs of live vertex ids, or UnknownVertex.  A tuple of
        int pairs, the shape a catalog reduction passes, is tested pair by
        pair and returned as it is; at the first pair that fails a test,
        and for any other input, the general path below checks and reports."""
        if type(edges) is tuple:  # a truth test would pass 0 as the default ()
            rot = self.rot
            for p in edges:
                if type(p) is not tuple or len(p) != 2:
                    break
                u, v = p
                if not (type(u) is int and type(v) is int and u in rot and v in rot):
                    break
            else:
                return edges
        try:
            pairs = [(u, v) for u, v in edges]
        except (TypeError, ValueError):  # not iterable, or an edge that is not a pair
            raise UnknownVertex(f"{edges!r} is not a collection of vertex id pairs") from None
        self._ids(list(chain.from_iterable(pairs)))
        return pairs

    def _ids(self, vertices: object) -> set[int]:
        """vertices as a set of live vertex ids, or UnknownVertex naming the
        first id, in the order given, that is not an int in the graph.  The
        ids are tested before the set merges them: True and 1.0 equal 1, so
        they would hide in a set that holds 1."""
        try:
            # a tuple, the catalog's shape, is read as it is, not copied
            listed = vertices if type(vertices) is tuple else list(vertices)
            ids = set(listed)
        except TypeError:  # not iterable, or an unhashable id
            raise UnknownVertex(f"{vertices!r} is not a set of vertex ids") from None
        rot = self.rot
        for v in listed:
            if not (type(v) is int and v in rot):  # the type test keeps True (== 1) out
                self._check_vertex(v)
        return ids

    def snapshot(self) -> PlanarGraph:
        """The current graph, fully validated, with the live ids renumbered
        1..n in ascending order."""
        old_to_new = {v: i for i, v in enumerate(sorted(self.rot), 1)}
        return PlanarGraph([[old_to_new[u] for u in self.rot[v]] for v in old_to_new])

    def smaller_side(self, v: int) -> tuple[set[int], bool]:
        """The smaller side of cut vertex v, and whether it holds the
        smallest other id.  The two sides are the component of G - v holding
        that id and every other vertex but v; on a tie the second is taken.

        Two neighbors of v that follow each other round v, at a corner whose
        face v meets only once, are joined round that face without passing
        v.  So one breadth-first walk in G - v starts at the head of each run
        of such neighbors in v's rotation.  The walks take turns expanding
        one vertex each, and two walks that meet merge into one (Even and
        Shiloach, "An on-line edge-deletion problem", JACM 1981).  Once at
        most one walk still grows, every finished walk is a whole component,
        and the growing one's component is all the rest, of size n - 1 less
        theirs.  It is walked out only when it lies in the smaller side.  The smallest
        other id is read off the heads of the degree buckets.  So the Python
        work is about the number of runs times what G - v holds outside its
        largest component: the smaller side, when G - v has two components.
        """
        self._check_vertex(v)
        if v not in self.cuts:
            raise NotACutVertex(f"{v} is not a cut vertex")
        rot = self.rot
        r = rot[v]
        corners = list(map(self.face[v].__getitem__, r))  # the face before each neighbor
        s = sorted(corners)
        again = set(compress(s, map(eq, s, s[1:])))  # the faces v meets more than once
        starts = list(compress(r, map(again.__contains__, corners)))
        owner = {x: i for i, x in enumerate(starts)}  # vertex -> walk that reached it
        root = list(range(len(starts)))  # walk -> the walk it has merged into
        members = [[i] for i in root]  # root walk -> the walks merged into it
        queue = [[x] for x in starts]  # root walk -> breadth-first order
        pos = [0] * len(starts)  # root walk -> its next vertex to expand
        live = list(root)
        while len(live) > 1:
            for w in live:
                if root[w] != w:
                    continue  # merged into a walk that took its turn already
                q = queue[w]
                x = q[pos[w]]
                pos[w] += 1
                for y in rot[x]:
                    o = owner.get(y)
                    if o is None:
                        if y != v:
                            owner[y] = w
                            q.append(y)
                    elif (o := root[o]) != w:
                        # merge; the walk with more left to expand keeps its queue
                        if len(queue[o]) - pos[o] > len(q) - pos[w]:
                            w, o = o, w
                            q = queue[w]
                        q += queue[o][pos[o]:]
                        for t in members[o]:
                            root[t] = w
                        members[w] += members[o]
            live = [w for w in live if root[w] == w and pos[w] < len(queue[w])]
        grow = live[0] if live else None
        low = min(map(_first, self.bydeg.values()))
        if low == v:  # v heads its own bucket: each bucket's first id but v
            low = min(b[b[0] == v] for b in self.bydeg.values() if b != [v])
        walks = list(map(root.__getitem__, owner.values()))  # the root walk of each vertex
        w0 = owner.get(low)
        r0 = grow if w0 is None else root[w0]  # the walk in low's component
        others = len(rot) - 1
        # low's component: a finished walk, or what the finished walks leave
        low_size = others - len(walks) + walks.count(grow) if r0 == grow else walks.count(r0)
        holds_low = 2 * low_size < others
        if grow is not None and (r0 == grow) == holds_low:
            # the growing walk lies in the smaller side: walk it out
            q = queue[grow]
            for x in islice(q, pos[grow], None):
                for y in rot[x]:
                    if y not in owner and y != v:
                        owner[y] = grow
                        q.append(y)
            walks = list(map(root.__getitem__, owner.values()))
        return set(compress(owner, map(r0.__eq__ if holds_low else r0.__ne__, walks))), holds_low

    def part(self, side: Iterable[int]) -> Embedding:
        """A new Embedding in the same ids holding only side, such as one side
        of a cut vertex with the cut vertex: what deleting every other vertex
        leaves, built in time for side alone.  Its rotation lists and
        dart-face dicts are copies, as new faces are written into them; the
        faces that left side are walked afresh (``_cut``).  Raises
        UnknownVertex or SurgeryDisconnects as ``apply`` does; e is unchanged."""
        keep = self._ids(side)
        rot, face, fdeg = self.rot, self.face, self.fdeg
        ch = Change(self, set())
        ch.lost = {x: gone for x in keep if (gone := face[x].keys() - keep)}
        # a face that leaves side does so by some dart
        old = ch.popped
        for x, gone in ch.lost.items():
            old.update(map(face[x].__getitem__, gone))
        p = Embedding.__new__(Embedding)
        p.rot = {x: rot[x].copy() for x in keep}
        p.face = {x: face[x].copy() for x in keep}
        live = set().union(*map(dict.values, p.face.values())) - old
        p.fdeg = dict(zip(live, map(fdeg.__getitem__, live)))
        p._faces = self._faces
        p._cut(ch)
        p._start()
        if not p._connected(ch):
            raise SurgeryDisconnects(f"keeping only {sorted(keep)} disconnects the graph")
        return p

    # -- surgery -----------------------------------------------------------

    def apply(
        self,
        delete_vertices: Iterable[int] = (),
        delete_edges: Iterable[Edge] = (),
        add_edges: Iterable[Edge] = (),
    ) -> None:
        """Delete vertices and edges, then draw each added edge into a face
        its two surviving ends share, splitting it; an edge already present
        is skipped.  Of several shared faces, the one touched by the
        deletions wins (most boundary vertices that lost a neighbor), then
        the one whose smallest dart comes first.  Ids and edge pairs are
        checked first: on error nothing has changed and the last apply stays
        in force; otherwise ``undo`` reverts this call until the next apply."""
        face = self.face
        dels = self._ids(delete_vertices)
        del_edges = set()
        for u, v in self._pairs(delete_edges):
            if v not in face[u]:
                raise UnknownVertex(f"edge {u}-{v} not in graph")
            del_edges.add(edge_key(u, v))
        additions = self._pairs(add_edges)
        for (a, b) in additions:
            if a in dels or b in dels:
                raise UnknownVertex(f"added edge {a}-{b} touches a missing vertex")
            if a == b:
                raise SurgeryNotPlanar("cannot add a self-loop")

        ch = Change(self, dels)
        try:
            self._remove(del_edges, ch)
            if not self._connected(ch):
                raise SurgeryDisconnects(
                    f"deleting {sorted(dels)} / {sorted(del_edges)} disconnects the graph"
                )
            for (a, b) in additions:
                if b in face[a]:
                    continue  # already adjacent: the distance requirement is met
                self._link(a, b, ch)
        except BaseException:
            self._revert(ch)  # the ledger never followed it
            raise
        self._refresh(ch.touched, ch.recheck)
        self._last = ch
        if self.charges is not None:
            self.charges.follow(self, ch)

    def undo(self) -> None:
        """Revert the latest apply still in force (else NoApplyInForce).

        The logged inverses are replayed, newest first, m and the face
        counter are restored, and the degree buckets and cut flags of the
        vertices the apply touched are re-derived, with the cut test on
        each.  Every dict gets its contents back but not its key order (a
        key put back iterates last), so nothing that reads the graph may
        depend on the order of ``rot`` or ``face[v]``.  An attached charge
        ledger is derived afresh from the result."""
        ch = self._last
        if ch is None:
            raise NoApplyInForce("no apply in force to undo")
        self._last = None
        self._revert(ch)
        if self.charges is not None:
            self.charges = type(self.charges)(self)

    def _revert(self, ch: Change) -> None:
        for inverse, *args in reversed(ch.log):
            inverse(*args)
        self.m, self._faces = ch.m, ch.faces
        self._refresh(ch.touched, ch.touched)

    # -- primitives ----------------------------------------------------------

    def walk(self, dart: Edge) -> list[Edge]:
        """The boundary walk of dart's face, as darts, starting at dart: the
        dart after (x, y) is (y, z), z following x in the rotation at y."""
        rot = self.rot
        darts = [dart]
        x, y = dart
        while True:
            r = rot[y]
            nxt = y, r[r.index(x) + 1 - len(r)]  # a negative index, or 0 to wrap
            if nxt == dart:
                return darts
            darts.append(nxt)
            x, y = nxt

    def _smaller_face(self, p: Edge, q: Edge) -> list[Edge]:
        """Walk the faces of darts p and q in lockstep, as ``walk`` does; the
        darts of the one that closes first."""
        rot = self.rot
        side_p, side_q = [p], [q]
        (a, b), (c, d) = p, q
        while True:
            r = rot[b]
            x = b, r[r.index(a) + 1 - len(r)]
            if x == p:
                return side_p
            r = rot[d]
            y = d, r[r.index(c) + 1 - len(r)]
            if y == q:
                return side_q
            side_p.append(x)
            side_q.append(y)
            (a, b), (c, d) = x, y

    def _new_face(self, darts: list[Edge], ch: Change) -> None:
        """Give one face boundary's darts a fresh face id (one log entry
        undoes it); their tails are touched, and rechecked if one repeats."""
        face, fdeg = self.face, self.fdeg
        new = self._faces
        self._faces += 1
        ch.born[new] = darts
        was = []
        for x, y in darts:
            fx = face[x]
            was.append(fx[y])
            fx[y] = new
        ch.touched |= (tails := set(map(_first, darts)))
        if len(tails) < len(darts):
            ch.recheck |= tails
        ch.log.append((_unborn, face, fdeg, new, darts, was))
        fdeg[new] = len(darts)

    def _remove(self, del_edges: set[Edge], ch: Change) -> None:
        """Delete the vertices ``ch.dels`` and these edges, then walk the
        faces that form from the faces they bordered.  The deleted darts are
        counted as they are met, and the degrees of the faces that lose one
        are popped into the undo log in one pass, in the set's order."""
        dels = ch.dels
        rot, face, fdeg, log = self.rot, self.face, self.fdeg, ch.log
        lost, old = ch.lost, ch.popped  # survivor -> neighbors it loses; faces that lose a dart
        # each deleted edge is counted at both ends: at a deleted vertex, or
        # at a survivor that lost it
        darts = 0
        for (u, v) in del_edges:
            if u not in dels and v not in dels:
                lost.setdefault(u, set()).add(v)
                lost.setdefault(v, set()).add(u)
                old.update((face[u][v], face[v][u]))
                darts += 2
        for s in dels:
            r, fs = rot.pop(s), face.pop(s)
            log += ((dict.__setitem__, rot, s, r), (dict.__setitem__, face, s, fs))
            # a face through a dart (u, s) goes on through a dart out of s
            old.update(fs.values())
            darts += len(r)
            for u in r:
                if u in lost:  # a survivor: lost holds no deleted id
                    lost[u].add(s)
                    darts += 1
                elif u not in dels:
                    lost[u] = {s}
                    darts += 1
        self.m -= darts // 2
        ch.touched.update(dels)  # the survivors that lost a neighbor lie on new faces
        degs = {}
        for f in old:
            degs[f] = fdeg.pop(f)
        log.append((dict.update, fdeg, degs))
        self._cut(ch)

    def _connected(self, ch: Change) -> bool:
        """Whether the graph the deletions ``ch`` records left is connected:
        each component with edges counts 2 in n - m + f, an isolated vertex
        1, and only a survivor that lost a neighbor can be isolated.  The
        Euler count is tested first, then each such survivor in turn."""
        rot = self.rot
        n = len(rot)
        if n < 2:
            return True
        if n - self.m + len(self.fdeg) != 2:
            return False
        for x in ch.lost:
            if not rot[x]:
                return False
        return True

    def _cut(self, ch: Change) -> None:
        """Take the gone neighbors out of each survivor's rotation list and
        dart-face dict, in place, then walk the faces that replace the old
        ones.  Each such face passes a corner that a run of gone neighbors
        leaves, so the walks start only from the dart to the survivor after
        each run, and only while that dart's face is still old.  A survivor
        that loses one neighbor logs one inverse; one that loses several is
        filtered in one pass, and logs one for its list and one for its dict.
        The start darts are kept as ``ch.starts``."""
        rot, face, log, old, starts = self.rot, self.face, ch.log, ch.popped, ch.starts
        for x, gone in ch.lost.items():
            kept, fx = rot[x], face[x]
            if len(gone) == 1:
                (u,) = gone
                i = kept.index(u)
                del kept[i]
                log.append((_put_back, kept, fx, i, u, fx.pop(u)))
                if kept:
                    starts.append((x, kept[i % len(kept)]))
            else:
                # one pass rebuilds the list and finds the survivor after
                # each run of gone neighbors, in rotation order; a run that
                # wraps round the end comes last, as its walk would
                was = kept.copy()
                kept.clear()
                after = False  # whether the neighbor before is gone
                for u in was:
                    if u in gone:
                        after = True
                    else:
                        kept.append(u)
                        if after:
                            starts.append((x, u))
                            after = False
                if after and kept:
                    starts.append((x, kept[0]))
                faces = {u: fx.pop(u) for u in gone}
                log += ((list.__setitem__, kept, slice(None), was), (dict.update, fx, faces))
            if not kept:
                ch.touched.add(x)  # a lone survivor walks no face to reach it
        for x, y in starts:
            if face[x][y] in old:
                self._new_face(self.walk((x, y)), ch)

    def _link(self, a: int, b: int, ch: Change) -> None:
        """Draw edge a-b into a face shared by a and b, splitting it.

        The face touched by the deletions wins (most vertices on its boundary
        that lost a neighbor), then the face whose smallest dart (v, position in rot[v])
        comes first, which is the order in which a full trace meets faces.
        In each endpoint's rotation the new neighbor goes right after the
        boundary predecessor at one visit on the walk from that smallest
        dart: the position that splits the face instead of breaking the map.
        On a walk that visits the endpoint twice, that is the visit where it
        lost neighbors, so a chord replaces the corner a deleted centre
        left, else its first visit (``_entry``).
        """
        rot, face, log = self.rot, self.face, ch.log
        fa = list(map(face[a].__getitem__, rot[a]))
        fb = list(map(face[b].__getitem__, rot[b]))
        shared = set(fa).intersection(fb)
        if not shared:
            raise SurgeryNotPlanar(f"{a} and {b} share no face; cannot add edge")
        f = next(iter(shared))
        if len(shared) == 1 and fa.count(f) == 1 == fb.count(f):
            # one visit each: the predecessor precedes the corner lying in f
            pred_a = rot[a][fa.index(f) - 1]
            pred_b = rot[b][fb.index(f) - 1]
        else:
            ranked = []
            for g in shared:
                walk = self.walk((a, rot[a][fa.index(g)]))
                ranks = [(x, rot[x].index(y)) for x, y in walk]
                first = ranks.index(min(ranks))
                scars = len(ch.lost.keys() & {x for x, _ in walk})
                ranked.append((-scars, ranks[first], g, walk[first:] + walk[:first]))
            _, _, f, walk = min(ranked)
            pred_a = _entry(walk, a, ch.starts)
            pred_b = _entry(walk, b, ch.starts)
        for x, y, pred in ((a, b, pred_a), (b, a, pred_b)):
            r, fx = rot[x], face[x]
            i = r.index(pred) + 1
            r.insert(i, y)
            fx[y] = f
            log += ((list.pop, r, i), (dict.pop, fx, y))
        self.m += 1
        # f is now two faces, one on each side of a-b: the smaller gets a new
        # id, and the reverse of its first dart, a-b or b-a, stays on f
        fdeg = self.fdeg
        total = fdeg[f] + 2
        side = self._smaller_face((a, b), (b, a))
        self._new_face(side, ch)  # a and b both lie on it
        ch.links += ((f, side[0][::-1]),)
        log.append((dict.__setitem__, fdeg, f, fdeg[f]))
        fdeg[f] = total - len(side)

    def _refresh(self, vertices: Iterable[int], recheck: set[int]) -> None:
        """Re-derive the degree and cut flag of each vertex, testing only cut
        vertices and recheck: deletions merge faces and a link splits one,
        so only a face born can newly visit a vertex twice."""
        rot, face, deg, cuts = self.rot, self.face, self._deg, self.cuts
        bydeg, degs = self.bydeg, self._degs
        for v in vertices:
            r = rot.get(v)
            k = None if r is None else len(r)
            if k is None or v in cuts or v in recheck:  # no other flag can move
                (cuts.add if k and _repeats(face[v]) else cuts.discard)(v)
            was = deg.get(v)
            if was == k:
                continue
            if was is not None:
                bucket = bydeg[was]
                del bucket[bisect_left(bucket, v)]
                if not bucket:
                    del bydeg[was]
                    degs.remove(was)
            if k is None:
                del deg[v]
            else:
                deg[v] = k
                if k in bydeg:
                    insort(bydeg[k], v)
                else:
                    bydeg[k] = [v]
                    insort(degs, k)


def is_cut_vertex(g: PlanarGraph, v: int) -> bool:
    """True when removing v disconnects the graph."""
    g._check_vertex(v)
    n = g.n
    if n <= 2:
        return False
    start = 1 if v != 1 else 2
    return len(reachable(g.adj, n, start, avoid=v)) != n - 1


# -- PlanarGraph-level wrappers ---------------------------------------------
# Nothing in the package or the tests calls these four: the benchmark's
# tracer looks each one up by name to time it, and they go when it stops.


def trace_faces(g: PlanarGraph) -> tuple[tuple[int, ...], ...]:
    """All faces of the embedding, as their boundary walks: ``g.faces``."""
    return g.faces


def surgery(
    g: PlanarGraph,
    delete_vertices: Iterable[int] = (),
    delete_edges: Iterable[Edge] = (),
    add_edges: Iterable[Edge] = (),
) -> PlanarGraph:
    """``Embedding.apply`` on a copy of g, then its ``snapshot``."""
    e = Embedding(g)
    e.apply(delete_vertices, delete_edges, add_edges)
    return e.snapshot()


def articulation_points(g: PlanarGraph) -> set[int]:
    """All cut vertices, as the Embedding of g keeps them."""
    return set(Embedding(g).cuts)


def split_at(g: PlanarGraph, v: int) -> tuple[PlanarGraph, PlanarGraph]:
    """The snapshots of the two parts at cut vertex v, in the order
    ``reduce_in_place`` returns them."""
    e = Embedding(g)
    side, holds_low = e.smaller_side(v)
    other = e.rot.keys() - side - {v}
    first, rest = (side, other) if holds_low else (other, side)
    return e.part(first | {v}).snapshot(), e.part(rest | {v}).snapshot()
