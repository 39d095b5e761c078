"""Vertex taxonomy: face-incidence profiles and the derived charge flags.

A vertex is summarized by its degree together with how many 3-faces,
4-faces and 5+-faces it touches (with multiplicity, one per corner); the
discharging rules key on that shape.  On top of it sit the flags
``bad4``/``bad5`` (the vertex would still be negative after the triangle
payments and the big-face income alone).  The reduction catalog also asks
whether a vertex is special (no edge among its neighbors lies in two
3-faces), which ``is_special_vertex`` answers one vertex at a time.

``classify_vertex`` reads a vertex's corners straight from the graph's
face map: ``g.face[v]`` gives the face of each dart out of v, and
``g.fdeg`` its degree; ``classify_all`` calls it on every vertex.  A
PlanarGraph and the engine's Embedding keep both in that shape, so it
profiles either one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .planar import Embedding, PlanarGraph


class VertexClass(NamedTuple):
    """Incidence profile of one vertex in one embedding.  A NamedTuple, as
    the audit builds one per vertex of every graph it checks."""

    v: int
    k: int
    t3: int
    t4: int
    t5p: int
    bad4: bool
    bad5: bool

    def is_kd(self, k: int, t3: int) -> bool:
        return self.k == k and self.t3 == t3

    def __str__(self) -> str:
        return f"({self.k},{self.t3},{self.t4})-vertex"


def charge_after_r1_r2(
    k: int, t3: int, t5p: int, delta: int
) -> Fraction:
    """Charge of a k-vertex after only the 3-face payments and the
    5+-face income.

    A 3-vertex draws 1/3 per incident 5+-face and is excluded from the 1/5
    stream; every other vertex of degree at most delta-1 draws 1/5 per
    incident 5+-face.
    """
    return Fraction(_fifteenths_after_r1_r2(k, t3, t5p, delta), 15)


def _fifteenths_after_r1_r2(k: int, t3: int, t5p: int, delta: int) -> int:
    """``charge_after_r1_r2`` in whole units of 1/15, the lcm of the 1/3
    and 1/5 amounts, so that its sign test needs no Fraction."""
    units = 15 * (k - 4) - 5 * t3
    if k == 3:
        units += 5 * t5p
    elif k <= delta - 1:
        units += 3 * t5p
    return units


def classify_all(g: PlanarGraph | Embedding) -> dict[int, VertexClass]:
    """Profile every vertex of the embedding, keyed by its id in g."""
    delta = g.max_degree()
    return {v: classify_vertex(g, v, delta) for v in g.face}


def classify_vertex(g: PlanarGraph | Embedding, v: int, delta: int) -> VertexClass:
    """Profile vertex v of g, whose maximum degree is delta."""
    # the corners of v lie in the faces of its darts (v, u), one each
    degrees = list(map(g.fdeg.__getitem__, g.face[v].values()))
    k = len(degrees)
    t3 = degrees.count(3)
    t4 = degrees.count(4)
    t5p = k - t3 - t4
    after = _fifteenths_after_r1_r2(k, t3, t5p, delta)
    return VertexClass(v, k, t3, t4, t5p, k == 4 and after < 0, k == 5 and after < 0)


def is_special_vertex(g: PlanarGraph | Embedding, v: int) -> bool:
    """No edge of the subgraph induced on N(v) lies in two 3-faces.

    Both darts of an edge never border one 3-face of a simple graph, so
    two 3-face sides are two faces.
    """
    nbr_set = g.adj(v)
    for a in g.neighbors(v):
        for b in g.adj(a):
            if b > a and b in nbr_set and g.face_degree(a, b) == 3 == g.face_degree(b, a):
                return False
    return True
