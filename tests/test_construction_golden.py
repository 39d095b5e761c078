"""Golden gate for PlanarGraph construction.

Each rotation below either builds a graph, and then its traced face
boundaries are pinned, or is refused, and then the exception class and its
exact message are pinned.  Several rotations break more than one rule, so
the table also pins which check reports first: per vertex, the first bad
neighbor in rotation order (unknown id or self-loop) before a repeat; then
the dart count, symmetry, connectivity and Euler's formula, in that order.
Bool ids are not in the table: ``True == 1`` made them pass the old type
test, and they are refused now (see test_planar).
"""

import pytest

from twodist import EmbeddingInvalid, NotConnected, PlanarGraph

# K7 on the torus: vertex i lists i+1, i+3, i+2, i+6, i+4, i+5 (mod 7)
K7 = [tuple((i + d) % 7 + 1 for d in (1, 3, 2, 6, 4, 5)) for i in range(7)]
K5 = [tuple(u for u in range(1, 6) if u != v) for v in range(1, 6)]

ZOO = {
    "unknown id": [(3,), (1,)],
    "zero id": [(0,), (1,)],
    "float id": [(2.0,), (1,)],
    "string id": [("2",), (1,)],
    "none id": [(None,), (1,)],
    "unhashable id": [([2],), (1,)],
    "self-loop": [(1, 2), (1,)],
    "repeated neighbor": [(2, 2), (1, 1)],
    "self-loop before unknown": [(1, 9), (1,)],
    "unknown before self-loop": [(9, 1), (1,)],
    "self-loop before repeat": [(2, 2, 1), (1,)],
    "unknown in a later vertex": [(2,), (5,)],
    "repeat before a later unknown": [(2, 2), (7,)],
    "asymmetric, odd darts": [(2,), ()],
    "asymmetric, even darts": [(2, 3), (3,), (2,)],
    # a face walk from dart (1, 4) meets the missing dart (2, 4) first
    "asymmetric, first pair off the trace": [(4, 3), (), (2, 4), (1, 2)],
    "asymmetric and disconnected": [(2,), (3,), (2,), (5,), (4,), (4,)],
    "disconnected": [(2,), (1,), (4,), (3,)],
    "isolated vertex": [(2,), (1,), ()],
    "toroidal K7": K7,
    # n = 10, m = 24, f = 16: Euler's count holds, so only the walk refuses it
    "toroidal K7 beside a triangle": K7 + [(9, 10), (10, 8), (8, 9)],
    "K5": K5,
    "n = 0": [],
    "n = 1": [()],
    "n = 2": [(2,), (1,)],
    "triangle": [(2, 3), (3, 1), (1, 2)],
    "star with a cut vertex": [(2, 3, 4), (1,), (1,), (1,)],
    "two triangles at a cut vertex": [(2, 3, 4, 5), (3, 1), (1, 2), (5, 1), (1, 4)],
}

EXPECTED = {
    "unknown id": (EmbeddingInvalid, "vertex 1 lists unknown neighbor 3"),
    "zero id": (EmbeddingInvalid, "vertex 1 lists unknown neighbor 0"),
    "float id": (EmbeddingInvalid, "vertex 1 lists unknown neighbor 2.0"),
    "string id": (EmbeddingInvalid, "vertex 1 lists unknown neighbor '2'"),
    "none id": (EmbeddingInvalid, "vertex 1 lists unknown neighbor None"),
    "unhashable id": (EmbeddingInvalid, "vertex 1 lists unknown neighbor [2]"),
    "self-loop": (EmbeddingInvalid, "self-loop at 1"),
    "repeated neighbor": (EmbeddingInvalid, "repeated neighbor in rotation of 1"),
    "self-loop before unknown": (EmbeddingInvalid, "self-loop at 1"),
    "unknown before self-loop": (EmbeddingInvalid, "vertex 1 lists unknown neighbor 9"),
    "self-loop before repeat": (EmbeddingInvalid, "self-loop at 1"),
    "unknown in a later vertex": (EmbeddingInvalid, "vertex 2 lists unknown neighbor 5"),
    "repeat before a later unknown": (EmbeddingInvalid, "repeated neighbor in rotation of 1"),
    "asymmetric, odd darts": (EmbeddingInvalid, "odd number of darts"),
    "asymmetric, even darts": (
        EmbeddingInvalid, "asymmetric adjacency: 1 lists 2 but not vice versa"
    ),
    "asymmetric, first pair off the trace": (
        EmbeddingInvalid, "asymmetric adjacency: 1 lists 3 but not vice versa"
    ),
    "asymmetric and disconnected": (
        EmbeddingInvalid, "asymmetric adjacency: 1 lists 2 but not vice versa"
    ),
    "disconnected": (NotConnected, "graph is not connected"),
    "isolated vertex": (NotConnected, "graph is not connected"),
    "toroidal K7": (
        EmbeddingInvalid, "Euler count failed: n=7 m=21 f=14 (n - m + f = 0, expected 2)"
    ),
    "toroidal K7 beside a triangle": (NotConnected, "graph is not connected"),
    "K5": (
        EmbeddingInvalid, "Euler count failed: n=5 m=10 f=3 (n - m + f = -2, expected 2)"
    ),
    "n = 0": [],
    "n = 1": [],
    "n = 2": [(1, 2)],
    "triangle": [(1, 2, 3), (1, 3, 2)],
    "star with a cut vertex": [(1, 2, 1, 3, 1, 4)],
    "two triangles at a cut vertex": [(1, 2, 3, 1, 4, 5), (1, 3, 2), (1, 5, 4)],
}


@pytest.mark.parametrize("name", ZOO)
def test_construction_matches_recorded_outcome(name):
    try:
        g = PlanarGraph(ZOO[name])
    except (EmbeddingInvalid, NotConnected) as e:
        outcome = (type(e), str(e))
    else:
        outcome = list(g.faces)
    assert outcome == EXPECTED[name]
