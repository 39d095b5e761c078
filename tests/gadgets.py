"""Hand-built embedded graphs used across the test suite.

Most gadgets are described by straight-line coordinates; rotations fall out
of sorting each vertex's neighbors by angle.  A bad drawing cannot slip
through silently because PlanarGraph validates the Euler count, and each
lemma-gadget test additionally asserts the vertex profiles it was built for.
"""

from __future__ import annotations

import math

from twodist import Embedding, PlanarGraph
from twodist.planar import edge_key

Coords = dict[int, tuple[float, float]]


def embed(coords: Coords, edges: list[tuple[int, int]]) -> PlanarGraph:
    """Rotation system of a straight-line drawing (ccw by angle)."""
    nbrs: dict[int, list[int]] = {v: [] for v in coords}
    for (u, v) in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    n = max(coords)
    if sorted(coords) != list(range(1, n + 1)):
        raise ValueError("ids must be dense 1..n")
    rotation = []
    for v in range(1, n + 1):
        vx, vy = coords[v]
        order = sorted(
            nbrs[v],
            key=lambda u: math.atan2(coords[u][1] - vy, coords[u][0] - vx),
        )
        rotation.append(tuple(order))
    return PlanarGraph(rotation)


def reversed_ids(g: PlanarGraph) -> PlanarGraph:
    """g with each vertex v renamed n + 1 - v, every rotation order kept."""
    n = g.n
    return PlanarGraph([[n + 1 - u for u in g.rotation[n - w]] for w in range(1, n + 1)])


def _pt(angle_deg: float, radius: float) -> tuple[float, float]:
    a = math.radians(angle_deg)
    return (radius * math.cos(a), radius * math.sin(a))


def tutte(
    adj: dict[int, list[int]], outer: list[int], iters: int = 4000
) -> PlanarGraph:
    """Barycentric layout with the outer face pinned to a circle; valid for
    3-connected planar graphs."""
    coords: Coords = {}
    k = len(outer)
    for i, v in enumerate(outer):
        coords[v] = _pt(90 + 360 * i / k, 10.0)
    for v in adj:
        if v not in coords:
            coords[v] = (0.0, 0.0)
    inner = [v for v in adj if v not in outer]
    for _ in range(iters):
        for v in inner:
            xs = [coords[u][0] for u in adj[v]]
            ys = [coords[u][1] for u in adj[v]]
            coords[v] = (sum(xs) / len(xs), sum(ys) / len(ys))
    edges = [(u, v) for u in adj for v in adj[u] if u < v]
    return embed(coords, edges)


# -- the basic zoo -----------------------------------------------------------


def path(n: int) -> PlanarGraph:
    coords = {i: (float(i), 0.0) for i in range(1, n + 1)}
    return embed(coords, [(i, i + 1) for i in range(1, n)])


def cycle(n: int) -> PlanarGraph:
    coords = {i + 1: _pt(90 + 360 * i / n, 1.0) for i in range(n)}
    return embed(coords, [(i, i % n + 1) for i in range(1, n + 1)])


def star(k: int) -> PlanarGraph:
    coords: Coords = {1: (0.0, 0.0)}
    coords.update({i + 2: _pt(360 * i / k, 1.0) for i in range(k)})
    return embed(coords, [(1, i) for i in range(2, k + 2)])


def wheel(k: int) -> PlanarGraph:
    """Hub 1 of degree k, rim 2..k+1."""
    coords: Coords = {1: (0.0, 0.0)}
    coords.update({i + 2: _pt(90 + 360 * i / k, 1.0) for i in range(k)})
    edges = [(1, i) for i in range(2, k + 2)]
    edges += [(i, i + 1) for i in range(2, k + 1)] + [(k + 1, 2)]
    return embed(coords, edges)


def three_sides(a: int, b: int, c: int, low: str, cut_first: bool) -> tuple[PlanarGraph, int]:
    """A cut vertex v and its id, with three components in G - v.

    A is a path of a >= 2 vertices closed into a cycle through v, B a path
    of b vertices hung off v inside that cycle and C a path of c vertices
    hung off v outside it.  So A's neighbors of v are split by B's in v's
    rotation (A B A), and every corner of v lies on a face that v meets
    twice.  The smallest id other than v's lies in component ``low``, as far
    from v as that component reaches, and v is numbered before it when
    ``cut_first``.
    """
    coords = {"v": (0.0, 0.0)}
    names = {"A": [f"a{i}" for i in range(a)], "B": [f"b{i}" for i in range(b)]}
    names["C"] = [f"c{i}" for i in range(c)]
    for i, u in enumerate(names["A"]):
        coords[u] = _pt(20 + 140 * i / (a - 1), 3.0)
    for i, u in enumerate(names["B"]):
        coords[u] = (0.0, 0.3 + 0.2 * i)  # below the chord a0-a(a-1)
    for i, u in enumerate(names["C"]):
        coords[u] = (0.0, -1.0 - i)
    edges = [("v", names["A"][-1])]
    for path in names.values():
        edges += [("v", path[0])] + list(zip(path, path[1:]))
    far = names[low][-1] if low != "A" else names["A"][a // 2]
    order = [far] + [u for u in coords if u not in (far, "v")]
    order.insert(0 if cut_first else 1, "v")
    ids = {u: i for i, u in enumerate(order, 1)}
    g = embed({ids[u]: xy for u, xy in coords.items()}, [(ids[x], ids[y]) for x, y in edges])
    return g, ids["v"]


def complete4() -> PlanarGraph:
    coords = {1: _pt(90, 2.0), 2: _pt(210, 2.0), 3: _pt(330, 2.0), 4: (0.0, 0.0)}
    return embed(coords, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)])


def octahedron() -> PlanarGraph:
    coords = {
        1: _pt(90, 4.0), 2: _pt(210, 4.0), 3: _pt(330, 4.0),
        4: _pt(270, 1.5), 5: _pt(30, 1.5), 6: _pt(150, 1.5),
    }
    edges = [
        (1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6),
        (1, 5), (1, 6), (2, 4), (2, 6), (3, 4), (3, 5),
    ]
    return embed(coords, edges)


def cube() -> PlanarGraph:
    coords = {}
    for i in range(4):
        coords[i + 1] = _pt(45 + 90 * i, 4.0)
        coords[i + 5] = _pt(45 + 90 * i, 1.5)
    edges = [(i, i % 4 + 1) for i in range(1, 5)]
    edges += [(i + 4, i % 4 + 5) for i in range(1, 5)]
    edges += [(i, i + 4) for i in range(1, 5)]
    return embed(coords, edges)


def prism(k: int) -> PlanarGraph:
    """Outer k-cycle 1..k, inner k-cycle k+1..2k, spoke i to i + k."""
    coords = {i + 1: _pt(90 + 360 * i / k, 2.0) for i in range(k)}
    coords.update({i + k + 1: _pt(90 + 360 * i / k, 1.0) for i in range(k)})
    edges = [(i, i % k + 1) for i in range(1, k + 1)]
    edges += [(i + k, i % k + k + 1) for i in range(1, k + 1)]
    edges += [(i, i + k) for i in range(1, k + 1)]
    return embed(coords, edges)


def medial(g: PlanarGraph) -> PlanarGraph:
    """One vertex per edge of g, in the order of ``g.edges()``, joined to the
    edges next to it in the rotations at both ends: every vertex has degree
    4, and the faces are the vertices and the faces of g."""
    ids = {e: i for i, e in enumerate(g.edges(), 1)}

    def turn(u: int, v: int, step: int) -> int:
        """The edge step places from u-v in u's rotation."""
        r = g.neighbors(u)
        return ids[edge_key(u, r[(r.index(v) + step) % len(r)])]

    return PlanarGraph([
        (turn(v, u, -1), turn(u, v, 1), turn(u, v, -1), turn(v, u, 1)) for u, v in ids
    ])


def icosahedron() -> PlanarGraph:
    """1 = top, 2..6 upper ring, 7..11 lower ring, 12 = bottom."""
    adj: dict[int, list[int]] = {v: [] for v in range(1, 13)}

    def link(a: int, b: int) -> None:
        adj[a].append(b)
        adj[b].append(a)

    up = [2, 3, 4, 5, 6]
    low = [7, 8, 9, 10, 11]
    for i in range(5):
        link(1, up[i])
        link(12, low[i])
        link(up[i], up[(i + 1) % 5])
        link(low[i], low[(i + 1) % 5])
        link(up[i], low[i])
        link(up[i], low[(i + 1) % 5])
    return tutte(adj, outer=[1, 2, 3])


def two_triangles() -> PlanarGraph:
    """Two triangles sharing exactly the vertex 1."""
    coords = {
        1: (0.0, 0.0),
        2: (1.0, 0.6), 3: (1.0, -0.6),
        4: (-1.0, 0.6), 5: (-1.0, -0.6),
    }
    return embed(coords, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)])


def cut_by_a_deletion() -> tuple[PlanarGraph, dict]:
    """C4 and an apply that deletes vertex 1: the opposite vertex 3 becomes
    a cut vertex, as the one face left visits it twice."""
    return cycle(4), dict(delete_vertices=[1])


def uncut_by_a_link() -> tuple[PlanarGraph, dict]:
    """two_triangles and an apply that draws 2-4 across the outer face: 1
    stops being a cut vertex, as neither face left visits it twice."""
    return two_triangles(), dict(add_edges=((2, 4),))


def grid_plus() -> PlanarGraph:
    """A (4,0,4)-vertex: center of a 3x3 grid patch."""
    coords = {
        1: (0.0, 0.0),
        2: (1.0, 0.0), 3: (0.0, 1.0), 4: (-1.0, 0.0), 5: (0.0, -1.0),
        6: (1.0, 1.0), 7: (-1.0, 1.0), 8: (-1.0, -1.0), 9: (1.0, -1.0),
    }
    edges = [
        (1, 2), (1, 3), (1, 4), (1, 5),
        (2, 6), (6, 3), (3, 7), (7, 4), (4, 8), (8, 5), (5, 9), (9, 2),
    ]
    return embed(coords, edges)


def nine_cycle_tripod() -> PlanarGraph:
    """C9 plus a center joined to three pairwise-far rim vertices; deleting
    the center with no repairs breaks distance-2 pairs."""
    coords: Coords = {i + 1: _pt(90 + 40 * i, 2.0) for i in range(9)}
    coords[10] = (0.0, 0.0)
    edges = [(i, i % 9 + 1) for i in range(1, 10)]
    edges += [(10, 1), (10, 4), (10, 7)]
    return embed(coords, edges)


def chord_at_a_repeated_visit() -> PlanarGraph:
    """Vertex 7 is a (4,2)-vertex with its 3-faces opposite, and 7-1-9 is a
    separating triangle: once 7 is deleted, the merged face walks 9, 1, 4,
    2, 8, 1, 5, 6, visiting 1 twice.  L2.6.1 and L2.6.4 draw chords 1-6 and
    8-9 there; 1-6 must leave 1 where 1 lost 7, between 8 and 5, or it cuts
    8 off from 9."""
    return PlanarGraph([
        (2, 8, 7, 5, 9, 4, 3, 10), (3, 4, 8, 1, 10), (4, 2, 10, 1), (2, 3, 1), (6, 9, 1),
        (7, 9, 5), (8, 9, 6, 1), (1, 2, 7), (1, 5, 6, 7), (3, 2, 1),
    ])


# -- lemma gadgets ------------------------------------------------------------
#
# Each builder returns a graph where a specific catalog rule's pattern sits
# at a known vertex (the hub, id 1, unless noted).  Auxiliary vertices keep
# whatever low degrees they end up with; matchers are exercised directly.


def _fan(
    coords: Coords,
    edges: list[tuple[int, int]],
    base: int,
    count: int,
    center_deg: float,
    radius: float = 2.3,
    spread: float = 55.0,
) -> list[int]:
    """Plain degree boost: `count` fresh leaves attached to `base`, placed in
    an outward arc around direction center_deg."""
    new_ids = []
    start = len(coords)
    for i in range(count):
        vid = start + 1 + i
        if count == 1:
            ang = center_deg
        else:
            ang = center_deg - spread / 2 + spread * i / (count - 1)
        coords[vid] = _pt(ang, radius)
        edges.append((base, vid))
        new_ids.append(vid)
    return new_ids


def wheel_minus_rim(k: int) -> PlanarGraph:
    """Wheel with one rim edge removed: hub 1 is a (k, k-1)-vertex."""
    coords: Coords = {1: (0.0, 0.0)}
    coords.update({i + 2: _pt(90 + 360 * i / k, 1.0) for i in range(k)})
    edges = [(1, i) for i in range(2, k + 2)]
    edges += [(i, i + 1) for i in range(2, k + 1)]  # open chain, no (k+1, 2)
    return embed(coords, edges)


def g_L2_5_2() -> PlanarGraph:
    """(4,3,1) hub: wheel_minus_rim(4) plus a 4-face filler w=6."""
    coords: Coords = {1: (0.0, 0.0)}
    for i in range(4):
        coords[i + 2] = _pt(90 + 90 * i, 1.0)
    coords[6] = _pt(45, 1.5)
    edges = [(1, i) for i in range(2, 6)]
    edges += [(2, 3), (3, 4), (4, 5)]
    edges += [(5, 6), (6, 2)]
    return embed(coords, edges)


def _four_vertex_base(
    triangle_corners: list[int], four_face_corners: list[int]
) -> tuple[Coords, list[tuple[int, int]], int]:
    """Hub 1 with neighbors 2..5 at angles 0/90/180/270; every corner closed.

    Corner i (0-based) sits between neighbors at angles 90i and 90(i+1).
    Triangle corners get the rim edge, 4-face corners a single filler, all
    remaining corners a 2-vertex path (a 5-face), so the gadget stays
    connected when the hub goes.  Returns (coords, edges, next_free_id).
    """
    coords: Coords = {1: (0.0, 0.0)}
    for i in range(4):
        coords[i + 2] = _pt(90 * i, 1.0)
    edges = [(1, i) for i in range(2, 6)]
    nxt = 6
    for c in range(4):
        a, b = c + 2, (c + 1) % 4 + 2
        if c in triangle_corners:
            edges.append((a, b))
        elif c in four_face_corners:
            coords[nxt] = _pt(90 * c + 45, 1.6)
            edges += [(a, nxt), (nxt, b)]
            nxt += 1
        else:
            p, q = nxt, nxt + 1
            coords[p] = _pt(90 * c + 30, 1.9)
            coords[q] = _pt(90 * c + 60, 1.9)
            edges += [(a, p), (p, q), (q, b)]
            nxt += 2
    return coords, edges, nxt


def g_L2_6(adjacent: bool, four_faces: int = 0) -> PlanarGraph:
    """(4,2)-hub with the two triangles adjacent or not, plus optional
    4-face fillers on the remaining corners."""
    tri = [0, 1] if adjacent else [0, 2]
    rest = [c for c in range(4) if c not in tri]
    coords, edges, _ = _four_vertex_base(tri, rest[:four_faces])
    return embed(coords, edges)


def g_L2_6_special_violation(
    four_faces: int, boost_to: int, boost_nbr: int = 3
) -> PlanarGraph:
    """(4,2)-hub, adjacent triangles, one neighbor boosted to a target
    degree, and an apex over rim edge 2-3 making the hub non-special."""
    tri = [0, 1]
    rest = [c for c in range(4) if c not in tri]
    coords, edges, nxt = _four_vertex_base(tri, rest[:four_faces])
    apex = nxt
    coords[apex] = _pt(45, 1.7)
    edges += [(apex, 2), (apex, 3)]
    base_deg = sum(1 for e in edges if boost_nbr in e)
    ang = 90 * (boost_nbr - 2)
    _fan(coords, edges, boost_nbr, boost_to - base_deg,
         center_deg=ang, radius=3.3, spread=38.0)
    return embed(coords, edges)


def g_L2_7_1() -> PlanarGraph:
    """(4,1,3)-hub: triangle at corner 0, fillers on the other three."""
    coords, edges, _ = _four_vertex_base([0], [1, 2, 3])
    return embed(coords, edges)


def g_L2_7_2(adjacent: bool, boost_first_pair: bool = False) -> PlanarGraph:
    """(4,1,2)-hub.  adjacent: 4-faces at corners 1,2.  Otherwise corners
    1,3.  boost_first_pair lifts neighbors v1=2, v2=3 above degree 5 so the
    matcher must fan from the far side."""
    four = [1, 2] if adjacent else [1, 3]
    coords, edges, _ = _four_vertex_base([0], four)
    if boost_first_pair:
        _fan(coords, edges, 2, 4, center_deg=-20, radius=2.6)
        _fan(coords, edges, 3, 4, center_deg=65, radius=2.6)
    return embed(coords, edges)


def capped_fan() -> PlanarGraph:
    """A (4,1,2)-configuration at hub 1 whose L2.7.2 fan centre, rim vertex
    2, already sits at the maximum degree 4: the surgery would raise Delta."""
    coords = {
        1: (0.0, 0.0),
        2: (1.0, 0.0), 3: (0.0, 1.0), 4: (-1.0, 0.0), 5: (0.0, -1.0),
    }
    edges = [(1, i) for i in range(2, 6)] + [(2, 3)]
    coords[6] = _pt(135, 1.6)
    edges += [(3, 6), (6, 4)]
    coords[7] = _pt(210, 1.9)
    coords[8] = _pt(240, 1.9)
    edges += [(4, 7), (7, 8), (8, 5)]
    coords[9] = _pt(315, 1.6)
    edges += [(5, 9), (9, 2)]
    coords[10] = _pt(340, 2.2)
    edges += [(2, 10), (10, 9)]
    return embed(coords, edges)


def g_L2_8(boosts: dict[int, int], apex_edge: tuple[int, int] | None) -> PlanarGraph:
    """(5,5)-hub (full 5-wheel), rim vertices boosted to target degrees,
    optionally an apex over a rim edge so the hub is not special.

    boosts maps rim id (2..6) to a target degree; rim base degree is 3.
    """
    coords: Coords = {1: (0.0, 0.0)}
    for i in range(5):
        coords[i + 2] = _pt(90 + 72 * i, 1.0)
    edges = [(1, i) for i in range(2, 7)]
    edges += [(i, i + 1) for i in range(2, 6)] + [(6, 2)]
    base = {v: 3 for v in range(2, 7)}
    if apex_edge is not None:
        a, b = apex_edge
        mid = (
            math.degrees(
                math.atan2(
                    coords[a][1] + coords[b][1], coords[a][0] + coords[b][0]
                )
            )
        )
        nxt = len(coords) + 1
        coords[nxt] = _pt(mid, 1.8)
        edges += [(nxt, a), (nxt, b)]
        base[a] += 1
        base[b] += 1
    for rim, target in boosts.items():
        ang = 90 + 72 * (rim - 2)
        _fan(coords, edges, rim, target - base[rim], center_deg=ang, radius=2.8)
    return embed(coords, edges)


def _five_four_base(with_four_face: bool) -> tuple[Coords, list[tuple[int, int]], int]:
    """Hub 1 with rim 2..6 and four triangles; the last corner is a 4-face
    (via filler) or part of the outer region."""
    coords: Coords = {1: (0.0, 0.0)}
    for i in range(5):
        coords[i + 2] = _pt(90 + 72 * i, 1.0)
    edges = [(1, i) for i in range(2, 7)]
    edges += [(i, i + 1) for i in range(2, 6)]  # no (6, 2)
    nxt = 7
    if with_four_face:
        coords[nxt] = _pt(54, 1.5)  # between rim 6 (at 378) and rim 2 (at 90)
        edges += [(6, nxt), (nxt, 2)]
        nxt += 1
    return coords, edges, nxt


def g_L2_9_or_10(
    with_four_face: bool,
    boosts: dict[int, int] | None = None,
    apex_edge: tuple[int, int] | None = None,
) -> PlanarGraph:
    """(5,4,1) hub when with_four_face else (5,4,0); optional rim boosts and
    a non-special apex."""
    coords, edges, nxt = _five_four_base(with_four_face)
    base = {v: 3 for v in range(2, 7)}
    base[2] -= 1 if not with_four_face else 0
    base[6] -= 1 if not with_four_face else 0
    # actual degrees: rim 2 and 6 have hub + one rim nbr (+ filler when present)
    base = {v: len([e for e in edges if v in e]) for v in range(2, 7)}
    if apex_edge is not None:
        a, b = apex_edge
        mid = math.degrees(
            math.atan2(coords[a][1] + coords[b][1], coords[a][0] + coords[b][0])
        )
        coords[nxt] = _pt(mid, 1.8)
        edges += [(nxt, a), (nxt, b)]
        base[a] += 1
        base[b] += 1
        nxt += 1
    for rim, target in (boosts or {}).items():
        ang = 90 + 72 * (rim - 2)
        _fan(coords, edges, rim, target - base[rim], center_deg=ang, radius=2.8)
    return embed(coords, edges)


def g_L2_9_3() -> PlanarGraph:
    """(5,4,1) hub whose internal rim neighbors 3 and 4 are (6,6)-vertices."""
    coords, edges, nxt = _five_four_base(with_four_face=True)
    # close a triangulated fan around rim vertex 3 (at 162 deg)
    a, b, c = nxt, nxt + 1, nxt + 2
    coords[a] = _pt(117, 2.3)
    coords[b] = _pt(162, 2.5)
    coords[c] = _pt(207, 2.3)
    edges += [(3, a), (3, b), (3, c), (a, 2), (a, b), (b, c), (c, 4)]
    nxt += 3
    # and around rim vertex 4 (at 234 deg); it already gained edge c-4
    d, e = nxt, nxt + 1
    coords[d] = _pt(252, 2.5)
    coords[e] = _pt(297, 2.3)
    edges += [(4, d), (4, e), (c, d), (d, e), (e, 5)]
    return embed(coords, edges)


def g_L2_10_3(fans: int = 3) -> PlanarGraph:
    """(5,4,0) hub with its three internal rim neighbors 3, 4, 5 turned into
    (6,6)-vertices (fans=2 leaves vertex 5 alone, for the 2.10.4 variant)."""
    coords, edges, nxt = _five_four_base(with_four_face=False)
    a, b, c = nxt, nxt + 1, nxt + 2
    coords[a] = _pt(117, 2.3)
    coords[b] = _pt(162, 2.5)
    coords[c] = _pt(207, 2.3)
    edges += [(3, a), (3, b), (3, c), (a, 2), (a, b), (b, c), (c, 4)]
    nxt += 3
    d, e = nxt, nxt + 1
    coords[d] = _pt(252, 2.5)
    coords[e] = _pt(297, 2.3)
    edges += [(4, d), (4, e), (c, d), (d, e), (e, 5)]
    nxt += 2
    if fans >= 3:
        f, h = nxt, nxt + 1
        coords[f] = _pt(330, 2.5)
        coords[h] = _pt(10, 2.3)
        edges += [(5, f), (5, h), (e, f), (f, h), (h, 6)]
    return embed(coords, edges)


def g_L2_11(delta7: bool = False, drop_54: bool = False) -> PlanarGraph:
    """(6,5)-hub v=1 with (5,5)-neighbors at rim positions 2 and 4 and a
    (5,4)-neighbor at rim position 6 (ids 3, 5 and 7).

    delta7 raises an auxiliary vertex to degree 7 so the high-degree variant
    of the rule applies; drop_54 removes the (5,4) structure so nothing
    should match.
    """
    coords: Coords = {1: (0.0, 0.0)}
    rim_angles = [90, 150, 210, 270, 330, 30]
    for i, ang in enumerate(rim_angles):
        coords[2 + i] = _pt(ang, 1.0)  # rim ids 2..7 = v1..v6
    edges = [(1, i) for i in range(2, 8)]
    edges += [(2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]  # no (7, 2)
    # complete rim 3 (v2) into a (5,5)-vertex
    coords[8] = _pt(120, 2.0)
    coords[9] = _pt(180, 2.0)
    edges += [(8, 2), (8, 3), (8, 9), (9, 3), (9, 4)]
    # complete rim 5 (v4) into a (5,5)-vertex
    coords[10] = _pt(240, 2.0)
    coords[11] = _pt(300, 2.0)
    edges += [(10, 4), (10, 5), (10, 11), (11, 5), (11, 6)]
    if not drop_54:
        # complete rim 7 (v6) into a (5,4)-vertex
        coords[12] = _pt(345, 2.0)
        coords[13] = _pt(15, 2.0)
        coords[14] = _pt(45, 2.0)
        edges += [(12, 6), (12, 7), (13, 7), (12, 13), (13, 14), (14, 7)]
    if delta7:
        _fan(coords, edges, 8, 4, center_deg=120, radius=3.2)
    return embed(coords, edges)


def embedding_with_an_apply_in_force(g: PlanarGraph) -> Embedding:
    """An Embedding of g reached by deleting pendant vertices n + 1 and
    n + 2 hung off vertex 1, one apply each: its rotations are g's, its
    face ids are not, and its last apply is in force, the one before it
    made final by it."""
    rotation = list(map(list, g.rotation))
    rotation[0] += [g.n + 1, g.n + 2]
    e = Embedding(PlanarGraph(rotation + [[1], [1]]))
    e.apply(delete_vertices=[g.n + 1])
    e.apply(delete_vertices=[g.n + 2])
    if in_force(e) != 1 or e.snapshot() != g:
        raise ValueError("the pendants' deletions did not leave g")
    return e


def in_force(e: Embedding) -> int:
    """1 while e's last successful apply is not undone, else 0: an
    Embedding holds one undo frame at most."""
    return int(e._last is not None)


def dense_ids(e: Embedding) -> dict[int, int]:
    """The rename ``e.snapshot()`` makes: each live id to its rank, from 1."""
    return {v: i for i, v in enumerate(sorted(e.rot), 1)}


def split_sides(e: Embedding, v: int) -> tuple[set[int], set[int]]:
    """The two sides of cut vertex v, in the order ``reduce_in_place``
    returns their parts: the component of G - v holding the smallest other
    id, then every other vertex but v."""
    side, holds_low = e.smaller_side(v)
    other = e.rot.keys() - side - {v}
    return (side, other) if holds_low else (other, side)

