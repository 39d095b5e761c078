"""The reducible-configuration catalog.

Each rule in the catalog (tags L2.1 through L2.11, with sub-cases) pairs a
structural pattern around one vertex with a surgery whose output stays
"proper": every surviving pair at distance <= 2 keeps distance <= 2, and
the maximum degree never grows.  Vertices the surgery removes from the
coloring (usually the center) are listed as pending, together with an upper
bound on how many colors can be forbidden when they are re-colored.

Most rules are rows of the RULES table, which hold data and no code: a
vertex shape, degree tests on the neighbors, anchors that label them and
the chords each anchor picks.  L2.1, L2.2, L2.3.1 and L2.11 do not fit
that mould and keep a scan of their own.

Neighbor labels v1..vk always follow the rotation order around the center,
anchored so the pattern's face layout matches; among valid anchors the one
starting at the smallest neighbor id wins, which makes matching
deterministic for every symmetry of a configuration.

The matchers read an ``Embedding`` (a caller holding a ``PlanarGraph`` g
passes ``Embedding(g)``, in g's ids), and a vertex's shape off its
``classify.VertexClass``.  ``reduce_in_place`` and ``check_properness``
apply a reduction to that Embedding in place, in its own vertex ids, as
one ``Embedding.apply``: ``undo`` reverts it until the next apply.
A split deletes its smaller side, which ``reduce_in_place`` hands back as
an Embedding of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

from .classify import VertexClass, classify_vertex, is_special_vertex
from .errors import DegreeBudgetExceeded, InvariantViolated
from .planar import (
    Edge,
    Embedding,
    PlanarGraph,
    distance_profile,
    edge_key,
)


class Reduction(NamedTuple):
    """A matched configuration and the surgery that shrinks it.  L2.1, L2.2
    and L2.3.1, which fire on nearly every step, build it in C with
    ``tuple.__new__`` and all nine fields in order, as ``_make`` does."""

    lemma: str
    case: str | None
    vertex: int
    pending: tuple[int, ...]
    delete_vertices: tuple[int, ...]
    delete_edges: tuple[Edge, ...]
    add_edges: tuple[Edge, ...]
    d2_bound: int | None
    split: int | None = None  # cut vertex for the split rule


@dataclass(frozen=True)
class ProofGapReport:
    """No catalog rule fired.  On a graph with maximum degree >= 6 this
    contradicts the coloring guarantee and points at a catalog bug."""

    graph: PlanarGraph
    delta: int
    reason: str
    nearest_miss: tuple[tuple[str, str], ...]


class _Ctx:
    """Shared per-step scratch for the matchers, read off the embedding;
    ``vclass(v)`` is ``classify_vertex(e, v)``, derived once per step."""

    __slots__ = ("e", "delta", "_classes")

    def __init__(self, e: Embedding):
        self.e = e
        self.delta = e.max_degree()
        self._classes: dict[int, VertexClass] = {}

    def vclass(self, v: int) -> VertexClass:
        vc = self._classes.get(v)
        if vc is None:
            vc = self._classes[v] = classify_vertex(self.e, v)
        return vc


# --------------------------------------------------------------------------
# the irregular rules: one hand-written scan each
# --------------------------------------------------------------------------


def _m_L2_1(ctx: _Ctx) -> Reduction | None:
    """Cut vertex: split the graph and merge the colorings afterwards."""
    cuts = ctx.e.cuts
    if not cuts:
        return None
    v = min(cuts)
    return tuple.__new__(Reduction, ("L2.1", None, v, (), (), (), (), None, v))


def _m_L2_2(ctx: _Ctx) -> Reduction | None:
    """A vertex of degree at most 2: delete it, close the gap with an edge."""
    e = ctx.e
    if not e.rot:
        return None
    dmin = e.min_degree()
    if dmin > 2:
        return None
    v = e.of_degree(dmin)[0]
    adds: tuple[Edge, ...] = ()
    if dmin == 2:
        a, b = e.neighbors(v)
        adds = (edge_key(a, b),)
    return tuple.__new__(Reduction, ("L2.2", None, v, (v,), (v,), (), adds, 2 * ctx.delta, None))


def _m_L2_3_1(ctx: _Ctx) -> Reduction | None:
    """3-vertex with a neighbor below the maximum degree: route the two
    replacement edges through that low-degree neighbor (it alone has the
    headroom to gain an edge)."""
    rot, delta = ctx.e.rot, ctx.delta
    for v in ctx.e.of_degree(3):
        v2 = None  # the smallest neighbor below the maximum degree
        for u in rot[v]:
            if len(rot[u]) < delta and (v2 is None or u < v2):
                v2 = u
        if v2 is None:
            continue
        adds = []  # a chord to each other neighbor, in rotation order
        for u in rot[v]:
            if u != v2:
                adds.append(edge_key(v2, u))
        return tuple.__new__(
            Reduction, ("L2.3.1", None, v, (v,), (v,), (), tuple(adds), 3 * delta - 1, None)
        )
    return None


def _m_L2_11(ctx: _Ctx) -> Reduction | None:
    """(6,5)-vertex with two non-adjacent fully-triangulated 5-neighbors and
    a (5,4)-neighbor across the big face.

    The labels run either way round from the big face, so both readings are
    tried.  With maximum degree 6 there is no room to rewire, so only the
    spoke to one (5,5)-neighbor is deleted and both its endpoints are
    re-colored.  From maximum degree 7 on, the center is deleted and three
    chords fanned from that neighbor, which gains two net edges.
    """
    for v in ctx.e.of_degree(6):
        if ctx.vclass(v).t3 != 5:
            continue
        cd = ctx.e.corner_degrees(v)
        q = next(i for i in range(6) if cd[i] != 3)
        rot = ctx.e.neighbors(v)
        for reading in ("ccw", "cw"):
            if reading == "ccw":
                lab = tuple(rot[(q + 1 + j) % 6] for j in range(6))
            else:
                lab = tuple(rot[(q - j) % 6] for j in range(6))
            v1, v2, v3, v4, v5, v6 = lab
            if not (ctx.vclass(v2).is_kd(5, 5) and ctx.vclass(v4).is_kd(5, 5)):
                continue
            if not ctx.vclass(v6).is_kd(5, 4):
                continue
            if ctx.delta == 6:
                return Reduction(
                    "L2.11.case1", reading, v, (v, v4), (),
                    (edge_key(v, v4),), (), 18,
                )
            return Reduction(
                "L2.11.case2", reading, v, (v,), (v,), (),
                (edge_key(v1, v4), edge_key(v2, v4), edge_key(v4, v6)),
                3 * ctx.delta,
            )
    return None


# --------------------------------------------------------------------------
# the regular rules: one table row each
# --------------------------------------------------------------------------

Chords = tuple[tuple[int, int], ...]  # pairs of label indices, 0 is v1
# (case, label, headroom, chords): passes when label is None or its degree
# is at most a * Delta + b, for (a, b) = headroom.
Pick = tuple[str | None, int | None, tuple[int, int] | None, Chords]
# (corner pattern, picks).  pattern[j] is the face degree required at
# corner (r + j) % k, the corner between rotation neighbors r + j and
# r + j + 1 (None: any); label v{j+1} is rot[(r + j) % k].  Among the
# offsets r that fit, the smallest rot[r] wins.  The first pick that passes
# gives the case and the chords; if none does, the rule declines at v.
Anchor = tuple[tuple[int | None, ...], tuple[Pick, ...]]


def _plain(case: str | None, pattern: tuple[int | None, ...], chords: Chords) -> Anchor:
    """An anchor that always draws the same chords."""
    return pattern, ((case, None, None, chords),)


@dataclass(frozen=True)
class Rule:
    """A catalog rule that deletes the center v, adds chords among its
    neighbors and re-colors v.

    v's ``VertexClass`` must have the shape (k, t3, t4), the classes that
    discharging pays (None matches any count), for each (lo, hi, n) of
    ``degrees`` at least n neighbors must have degree lo..hi, at least
    ``six_six`` neighbors must be (6,6)-vertices, and v must not be special
    when ``nonspecial`` is set.  The first anchor whose pattern fits labels
    the neighbors, and its first pick that passes draws the chords.  At
    most ``a * Delta + b`` colors are forbidden at v, for ``(a, b) = bound``.
    """

    tag: str
    shape: tuple[int, int | None, int | None]
    anchors: tuple[Anchor, ...]
    degrees: tuple[tuple[int, int, int], ...] = ()
    six_six: int = 0
    nonspecial: bool = False
    bound: tuple[int, int] = (3, 1)
    runs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        runs = []  # each pattern's runs of fixed corners, as (start, stop, degrees)
        for p, _ in self.anchors:
            gaps = [-1, *(j for j, want in enumerate(p) if want is None), len(p)]
            runs.append(tuple((a + 1, b, p[a + 1:b]) for a, b in zip(gaps, gaps[1:]) if b > a + 1))
        object.__setattr__(self, "runs", tuple(runs))

    def admits(self, d: Sequence[int]) -> bool:
        """Whether the neighbor degrees d, in any order, pass ``degrees``."""
        for lo, hi, n in self.degrees:
            for x in d:
                if lo <= x <= hi:
                    n -= 1
            if n > 0:
                return False
        return True

    def match(self, ctx: _Ctx) -> Reduction | None:
        """The first vertex, in ascending id, where the rule fires."""
        e = ctx.e
        k, t3, t4 = self.shape
        for v in e.bydeg.get(k, ()):  # e.of_degree(k), read in line
            vc = ctx.vclass(v)
            if t3 is not None and vc.t3 != t3:
                continue
            if t4 is not None and vc.t4 != t4:
                continue
            rot = e.rot[v]
            if self.degrees and not self.admits(list(map(len, map(e.rot.__getitem__, rot)))):
                continue
            if self.six_six and (
                sum(1 for u in rot if ctx.vclass(u).is_kd(6, 6)) < self.six_six
            ):
                continue
            if self.nonspecial and is_special_vertex(e, v):
                continue
            hit = self._emit(ctx, v, rot)
            if hit is not None:
                return hit
        return None

    def _emit(self, ctx: _Ctx, v: int, rot: list[int]) -> Reduction | None:
        k = len(rot)
        cd = ctx.e.corner_degrees(v)  # the anchors read the corners in order
        ring = cd + cd
        for (_, picks), runs in zip(self.anchors, self.runs):
            # the offsets at which every run of corners the pattern fixes fits
            offsets = range(k)
            for a, b, want in runs:
                offsets = [r for r in offsets if ring[r + a:r + b] == want]
            if not offsets:
                continue
            r = min(offsets, key=rot.__getitem__)
            lab = rot[r:] + rot[:r]
            for case, label, headroom, chords in picks:
                if label is None or ctx.e.degree(lab[label]) <= (
                    headroom[0] * ctx.delta + headroom[1]
                ):
                    break
            else:
                return None
            a, b = self.bound
            return Reduction(
                self.tag, case, v, (v,), (v,), (),
                tuple(edge_key(lab[i], lab[j]) for i, j in chords),
                a * ctx.delta + b,
            )
        return None


# The neighbors of a (4,4)-, (4,3,1)- or (5,5)-vertex stay within distance
# 2 of each other without it, so plain deletion is proper.
_DELETE: tuple[Anchor, ...] = (_plain(None, (), ()),)
# (4,2)-vertex: its two 3-faces share an edge at v, or sit opposite.
_FOUR_TWO: tuple[Anchor, ...] = (
    _plain("adjacent", (3, 3), ((1, 3),)),
    _plain("nonadjacent", (3, None, 3), ((0, 3), (1, 2))),
)
# (5,4)-vertex: one chord across the corner that is not a 3-face.
_FIVE_FOUR: tuple[Anchor, ...] = (_plain(None, (3, 3, 3, 3), ((0, 4),)),)

RULES: tuple[Rule, ...] = (
    Rule("L2.3.2", (3, None, None), (_plain(None, (3,), ((0, 2),)),)),
    Rule("L2.3.3", (3, None, None), (_plain(None, (4, 4), ((0, 2),)),)),
    Rule("L2.4", (4, 4, None), _DELETE, ((1, 9, 1),)),
    Rule("L2.5.1", (4, 3, None), (_plain(None, (3, 3, 3), ((0, 3),)),), ((1, 7, 1),)),
    Rule("L2.5.2", (4, 3, 1), _DELETE, ((1, 8, 1),)),
    Rule("L2.6.1", (4, 2, None), _FOUR_TWO, ((1, 5, 1),)),
    Rule("L2.6.2", (4, 2, None), _FOUR_TWO, ((6, 6, 1),), nonspecial=True),
    Rule("L2.6.3", (4, 2, 2), _FOUR_TWO, ((1, 7, 1),)),
    Rule("L2.6.4", (4, 2, 1), _FOUR_TWO, ((1, 6, 1),)),
    Rule("L2.6.5", (4, 2, 1), _FOUR_TWO, ((7, 7, 1),), nonspecial=True),
    # one chord cannot rejoin both diagonal pairs, so two are fanned from the
    # first label below the maximum degree, which gains a net edge
    Rule(
        "L2.7.1", (4, 1, 3),
        (((3,), (
            ("fan-v1", 0, (1, -1), ((0, 2), (0, 3))),
            ("fan-v2", 1, (1, -1), ((1, 2), (1, 3))),
            ("fan-v3", 2, (1, -1), ((1, 2), (2, 3))),
            ("fan-v4", 3, (1, -1), ((0, 3), (2, 3))),
        )),),
        ((1, 6, 1),),
    ),
    Rule(
        "L2.7.2", (4, 1, 2),
        (
            _plain("adjacent", (3, 4, 4), ((1, 2), (0, 3))),
            _plain("adjacent", (3, None, 4, 4), ((0, 3), (1, 2))),
            # the two 4-faces separated by the big face: fan from the first
            # of v1, v2, v4 of degree at most 5, else from v3
            ((3, 4, None, 4), (
                ("nonadjacent", 0, (0, 5), ((0, 2), (0, 3))),
                ("nonadjacent", 1, (0, 5), ((1, 3), (1, 2))),
                ("nonadjacent", 3, (0, 5), ((0, 3), (2, 3))),
                ("nonadjacent", None, None, ((1, 2), (2, 3))),
            )),
        ),
        ((1, 5, 1),),
    ),
    Rule("L2.8.1", (5, 5, None), _DELETE, ((1, 5, 1), (1, 6, 2))),
    Rule("L2.8.2", (5, 5, None), _DELETE, ((5, 5, 1), (7, 7, 1)), nonspecial=True),
    Rule("L2.8.3", (5, 5, None), _DELETE, ((6, 6, 2),), nonspecial=True),
    Rule("L2.9.1", (5, 4, 1), _FIVE_FOUR, ((1, 5, 2),)),
    Rule("L2.9.2", (5, 4, 1), _FIVE_FOUR, ((5, 5, 1), (6, 6, 1)), nonspecial=True),
    Rule("L2.9.3", (5, 4, 1), _FIVE_FOUR, six_six=2),
    Rule("L2.10.1", (5, 4, 0), _FIVE_FOUR, ((1, 5, 2), (1, 6, 3))),
    Rule("L2.10.2", (5, 4, 0), _FIVE_FOUR, ((1, 5, 2), (7, 7, 1)), nonspecial=True),
    Rule("L2.10.3", (5, 4, 0), _FIVE_FOUR, six_six=3, bound=(2, 6)),
    Rule("L2.10.4", (5, 4, 0), _FIVE_FOUR, ((1, 5, 1),), six_six=2),
)


# --------------------------------------------------------------------------
# dispatch
# --------------------------------------------------------------------------

MATCHER_ORDER: tuple[tuple[str, Callable[[_Ctx], Reduction | None]], ...] = (
    ("L2.1", _m_L2_1),
    ("L2.2", _m_L2_2),
    ("L2.3.1", _m_L2_3_1),
    *((rule.tag, rule.match) for rule in RULES),
    ("L2.11", _m_L2_11),
)


def match_case(tag: str, e: Embedding):
    """Run a single catalog matcher by tag ("L2.6.3", "L2.11", ...)."""
    ctx = _Ctx(e)
    for t, fn in MATCHER_ORDER:
        if t == tag:
            return fn(ctx)
    raise KeyError(tag)


def find_reduction(e: Embedding) -> Reduction | ProofGapReport:
    """First catalog hit in fixed priority order, or a gap report.

    The order runs cheapest and strongest rules first; within a rule,
    vertices are scanned in ascending id, so identical graphs always yield
    identical reductions.  The reduction names e's own ids, and a gap report
    carries the graph renamed to dense ids.
    """
    ctx = _Ctx(e)
    for _, fn in MATCHER_ORDER:
        hit = fn(ctx)
        if hit is not None:
            return hit
    return ProofGapReport(
        graph=ctx.e.snapshot(),
        delta=ctx.delta,
        reason="no catalog rule fired",
        nearest_miss=_nearest_miss(ctx),
    )


def _nearest_miss(ctx: _Ctx) -> tuple[tuple[str, str], ...]:
    e = ctx.e
    notes = [
        ("degrees", ", ".join(f"{d}:{len(e.bydeg[d])}" for d in sorted(e.bydeg))),
        ("L2.2", f"minimum degree {e.min_degree()}"),
    ]
    # the rows' centre shapes (k, t3), in catalog order, and L2.11's (6,5)
    rows = dict.fromkeys(rule.shape[:2] for rule in RULES if rule.shape[1] is not None)
    shapes = {
        f"({k},{t3})": sum(1 for v in e.of_degree(k) if ctx.vclass(v).is_kd(k, t3))
        for k, t3 in (*rows, (6, 5))
    }
    notes.append(
        ("shapes", ", ".join(f"{s}:{c}" for s, c in shapes.items() if c))
        if any(shapes.values())
        else ("shapes", "none of the catalog shapes present")
    )
    return tuple(notes)


def reduce_in_place(e: Embedding, r: Reduction) -> list[Embedding]:
    """Perform the reduction's surgery on e and return the graphs left to
    color, in order; e.undo() reverts it until e's next apply.  That is
    [e], or for a split its two parts, first the one holding the smallest
    id but the cut vertex: the smaller side (``Embedding.smaller_side``) is
    copied out (``Embedding.part``) and deleted from e.

    Any other surgery is held here to the two promises that let the
    smaller graph be colored with the same palette: the maximum degree
    does not grow (else DegreeBudgetExceeded) and the graph shrinks (else
    InvariantViolated).  Either refusal undoes the apply first."""
    if r.split is not None:
        side, holds_low = e.smaller_side(r.split)
        part = e.part(side | {r.split})
        e.apply(delete_vertices=side)
        return [part, e] if holds_low else [e, part]
    size, delta = len(e.rot) + e.m, e.max_degree()
    e.apply(r.delete_vertices, r.delete_edges, r.add_edges)
    if e.max_degree() > delta:
        e.undo()
        raise DegreeBudgetExceeded(
            f"{r.lemma} at {r.vertex} raises the maximum degree past {delta}"
        )
    if len(e.rot) + e.m >= size:
        e.undo()
        raise InvariantViolated(f"{r.lemma} at {r.vertex} did not shrink the graph")
    return [e]


def check_properness(e: Embedding, r: Reduction) -> bool:
    """Apply r to e with ``reduce_in_place`` and say whether it was proper.

    Proper means the maximum degree did not grow and every pair of
    surviving, non-pending vertices at distance <= 2 before is still at
    distance <= 2 after, in e's own ids.  Only pairs within distance 2 of a
    deleted element can lose a short connection (additions never hurt), so
    the scan is restricted to that neighborhood; the result equals the full
    check over all common pairs.  On a split nothing is scanned, which is
    exact: no path of length <= 2 between two kept vertices leaves their
    part; e keeps the larger part.  The degree half recounts the rotations
    rather than reading e's degree buckets, which ``reduce_in_place``
    itself trusts.  The reduction stays in force either way: e.undo()
    reverts it until e's next apply.
    """
    delta = max(map(len, e.rot.values()), default=0)
    touched = set(r.delete_vertices)
    for edge in r.delete_edges:
        touched.update(edge)
    ball = set(touched)
    for t in touched:
        ball.update(distance_profile(e, t))
    candidates = ball - set(r.delete_vertices) - set(r.pending)
    near = {a: distance_profile(e, a) & candidates for a in candidates}
    reduce_in_place(e, r)
    return max(map(len, e.rot.values()), default=0) <= delta and all(
        near[a] <= distance_profile(e, a) for a in candidates
    )
