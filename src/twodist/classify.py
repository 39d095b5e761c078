"""Vertex taxonomy: face-incidence profiles and the derived charge flags.

A vertex is summarized by its degree together with how many 3-faces,
4-faces and 5+-faces it touches (with multiplicity, one per corner).  On
top of that sit the flags the discharging rules key on: ``special`` (no
edge among the neighbors lies in two 3-faces) and ``bad4``/``bad5`` (the
vertex would still be negative after the triangle payments and the big-face
income alone).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .planar import Face, PlanarGraph


@dataclass(frozen=True)
class VertexClass:
    """Incidence profile of one vertex in one embedding."""

    v: int
    k: int
    t3: int
    t4: int
    t5p: int
    special: bool
    bad4: bool
    bad5: bool

    @property
    def signature(self) -> tuple[int, int, int]:
        return (self.k, self.t3, self.t4)

    def is_kd(self, k: int, t3: int) -> bool:
        return self.k == k and self.t3 == t3

    def is_kdd(self, k: int, t3: int, t4: int) -> bool:
        return self.k == k and self.t3 == t3 and self.t4 == t4

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
    charge = Fraction(k - 4) - Fraction(t3, 3)
    if k == 3:
        charge += Fraction(t5p, 3)
    elif k <= delta - 1:
        charge += Fraction(t5p, 5)
    return charge


def classify_all(g: PlanarGraph, faces: tuple[Face, ...]) -> dict[int, VertexClass]:
    """Profile every vertex against one traced embedding."""
    delta = g.max_degree()
    return {v: _classify(g, faces, v, delta) for v in g.vertices()}


def _classify(
    g: PlanarGraph, faces: tuple[Face, ...], v: int, delta: int
) -> VertexClass:
    k = g.degree(v)
    t3 = t4 = t5p = 0
    for fid in g.corner_faces(v):
        d = faces[fid].degree
        if d == 3:
            t3 += 1
        elif d == 4:
            t4 += 1
        else:
            t5p += 1
    after = charge_after_r1_r2(k, t3, t5p, delta)
    return VertexClass(
        v=v,
        k=k,
        t3=t3,
        t4=t4,
        t5p=t5p,
        special=is_special_vertex(g, faces, v),
        bad4=(k == 4 and after < 0),
        bad5=(k == 5 and after < 0),
    )


def is_special_vertex(g: PlanarGraph, faces: tuple[Face, ...], v: int) -> bool:
    """No edge of the subgraph induced on N(v) lies in two 3-faces."""
    dart_face = g.dart_face_map()
    nbrs = g.neighbors(v)
    nbr_set = g.adj(v)
    for a in nbrs:
        for b in g.adj(a):
            if b <= a or b not in nbr_set:
                continue
            sides = {dart_face[(a, b)], dart_face[(b, a)]}
            if len(sides) == 2 and all(faces[f].degree == 3 for f in sides):
                return False
    return True


def neighbor_profile(
    g: PlanarGraph, faces: tuple[Face, ...], v: int
) -> list[VertexClass]:
    """Profiles of N(v), in rotation order around v."""
    delta = g.max_degree()
    return [_classify(g, faces, u, delta) for u in g.neighbors(v)]


def count_incidences(
    g: PlanarGraph, faces: tuple[Face, ...]
) -> tuple[int, int]:
    """(sum of t3 over vertices, number of 3-faces) for invariant checks."""
    t3_total = sum(vc.t3 for vc in classify_all(g, faces).values())
    triangles = sum(1 for f in faces if f.degree == 3)
    return t3_total, triangles


__all__ = [
    "VertexClass",
    "charge_after_r1_r2",
    "classify_all",
    "is_special_vertex",
    "neighbor_profile",
    "count_incidences",
]
