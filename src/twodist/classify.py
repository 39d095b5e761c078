"""Vertex taxonomy: face-incidence shapes.

A vertex is summarized by its class, ``VertexClass(k, t3, t4, t5p)``: its
degree together with how many 3-faces, 4-faces and 5+-faces it touches
(with multiplicity, one per corner).  A class names no vertex, so two
vertices of one shape have equal classes.  The discharging rules key on
that shape, and ``discharge`` alone reads charges off it.  The reduction
catalog also asks whether a vertex is special (no edge among its
neighbors lies in two 3-faces), which ``is_special_vertex`` answers one
vertex at a time, on the catalog's Embedding.

``classify_vertex`` reads a vertex's corners straight from the graph's
face map: ``g.face[v]`` gives the face of each dart out of v, and
``g.fdeg`` its degree; ``classify_all`` calls it on every vertex.  A
PlanarGraph and an Embedding keep both in that shape, and the audit of
the one and the live charge ledger of the other must classify alike.
"""

from __future__ import annotations

from typing import NamedTuple

from .planar import Embedding, PlanarGraph


class VertexClass(NamedTuple):
    """The shape of a vertex's incidences, naming no vertex: its degree and
    its 3-, 4- and 5+-corners.  A NamedTuple, as the audit builds one per
    vertex of every graph it checks; ``classify_vertex`` builds it in C."""

    k: int
    t3: int
    t4: int
    t5p: int

    def is_kd(self, k: int, t3: int) -> bool:
        return self.k == k and self.t3 == t3

    def __str__(self) -> str:
        return f"({self.k},{self.t3},{self.t4})-vertex"


def classify_all(g: PlanarGraph | Embedding) -> dict[int, VertexClass]:
    """The class of every vertex of g, keyed by its id in g."""
    return {v: classify_vertex(g, v) for v in g.face}


def classify_vertex(g: PlanarGraph | Embedding, v: int) -> VertexClass:
    """The class of vertex v of g."""
    # the corners of v lie in the faces of its darts (v, u), one each
    degrees = list(map(g.fdeg.__getitem__, g.face[v].values()))
    k = len(degrees)
    t3 = degrees.count(3)
    t4 = degrees.count(4)
    return tuple.__new__(VertexClass, (k, t3, t4, k - t3 - t4))  # as _make does


def is_special_vertex(e: Embedding, v: int) -> bool:
    """No edge of the subgraph induced on N(v) lies in two 3-faces.

    Both darts of an edge never border one 3-face of a simple graph, so
    two 3-face sides are two faces.
    """
    nbr_set = e.adj(v)
    for a in e.neighbors(v):
        for b in e.adj(a):
            if b > a and b in nbr_set and e.face_degree(a, b) == 3 == e.face_degree(b, a):
                return False
    return True
