"""Golden gate for the reduction catalog.

Every catalog rule is run on its own (``match_case``) against a fixed set of
graphs: the hand-built gadgets, their mirror images, copies whose vertex-1
neighbours are raised to each degree from 4 to 11, and every intermediate
graph the colouring engine visits on a few seeded random graphs.  The
repr of each result is hashed; the digest below was recorded from the
hand-written matchers, so any change to what a rule matches, where it
anchors, which chords it emits or which bound it claims shows up here.
"""

import hashlib

import gadgets
from conftest import corpus_specs
from twodist import Embedding, PlanarGraph, RunTrace, color, gen_planar, match_case
from twodist.reductions import MATCHER_ORDER

GOLDEN_DIGEST = "92ad27748484531021cefcce556a37be67bceca9bf66807aeedfcd8336fe08cc"

TAGS = tuple(tag for tag, _ in MATCHER_ORDER)


def _gadgets():
    yield gadgets.path(4)
    yield gadgets.cycle(5)
    yield gadgets.cycle(6)
    yield gadgets.star(6)
    yield gadgets.wheel(6)
    yield gadgets.complete4()
    yield gadgets.octahedron()
    yield gadgets.cube()
    yield gadgets.icosahedron()
    yield gadgets.two_triangles()
    yield gadgets.grid_plus()
    yield gadgets.nine_cycle_tripod()
    yield gadgets.wheel_minus_rim(4)
    yield gadgets.wheel_minus_rim(5)
    yield gadgets.g_L2_5_2()
    for adjacent in (True, False):
        for four_faces in (0, 1, 2):
            yield gadgets.g_L2_6(adjacent, four_faces=four_faces)
    yield gadgets.g_L2_6_special_violation(0, 6)
    yield gadgets.g_L2_6_special_violation(1, 7)
    yield gadgets.g_L2_7_1()
    yield gadgets.g_L2_7_2(True)
    yield gadgets.g_L2_7_2(False)
    yield gadgets.g_L2_7_2(False, boost_first_pair=True)
    for apex_edge in (None, (4, 5)):
        yield gadgets.g_L2_8({2: 5, 3: 7}, apex_edge)
        yield gadgets.g_L2_8({2: 6, 3: 6}, apex_edge)
    yield gadgets.g_L2_8({}, None)
    yield gadgets.g_L2_9_or_10(True)
    for apex_edge in (None, (4, 5)):
        yield gadgets.g_L2_9_or_10(True, {3: 6, 4: 5}, apex_edge)
        yield gadgets.g_L2_9_or_10(False, {3: 7}, apex_edge)
    yield gadgets.g_L2_9_or_10(False)
    yield gadgets.g_L2_9_3()
    yield gadgets.g_L2_10_3()
    yield gadgets.g_L2_10_3(fans=2)
    yield gadgets.g_L2_11()
    yield gadgets.g_L2_11(delta7=True)
    yield gadgets.g_L2_11(drop_54=True)


def _boosted_hub(four_faces, boosted, leaves):
    """A 4-hub with one triangle and 4-faces at `four_faces`, each rim
    vertex in `boosted` raised by `leaves` pendant edges.  Covers the fan
    centres of L2.7.1, its decline when no neighbour has headroom, and the
    three fallbacks of the non-adjacent L2.7.2 surgery."""
    coords, edges, _ = gadgets._four_vertex_base([0], four_faces)
    for rim in boosted:
        gadgets._fan(
            coords, edges, rim, leaves, center_deg=90 * (rim - 2),
            radius=2.6, spread=40.0,
        )
    return gadgets.embed(coords, edges)


def _hand_built():
    yield from _gadgets()
    for boosted in ((), (2,), (2, 3), (2, 3, 4)):
        yield _boosted_hub([1, 2, 3], boosted, 4)
    yield _boosted_hub([1, 2, 3], (2, 3, 4, 5), 1)
    for boosted in ((2,), (2, 3), (2, 3, 5)):
        yield _boosted_hub([1, 3], boosted, 4)


def _boosted(g, target, first):
    """Raise the first neighbour of vertex 1 to degree `first` (None: leave
    it) and the others to `target` with pendant vertices.  They are drawn
    into a face of degree 5 or more, which changes no corner profile, or
    else into a face that vertex 1 does not touch, so the profile of vertex
    1 stays as it is.  Puts the neighbour-degree thresholds of the rules on
    either side of their bounds."""
    rotation = [list(nbrs) for nbrs in g.rotation]
    hub_faces = set(g.face[1].values())
    for j, u in enumerate(g.neighbors(1)):
        want = first if j == 0 else target
        nbrs = g.neighbors(u)
        corners = [g.face[u][w] for w in nbrs[1:] + nbrs[:1]]  # corner i follows nbrs[i]
        free = [i for i, f in enumerate(corners) if g.fdeg[f] >= 5]
        free += [i for i, f in enumerate(corners) if f not in hub_faces]
        if want is None or not free:
            continue
        at = g.neighbors(u)[free[0]]
        for _ in range(want - g.degree(u)):
            rotation.append([u])
            nbrs = rotation[u - 1]
            nbrs.insert(nbrs.index(at) + 1, len(rotation))
    return PlanarGraph(rotation)


def _mirror(g):
    return PlanarGraph([tuple(reversed(nbrs)) for nbrs in g.rotation])


def _intermediates(g):
    seen = []
    color(g, trace=RunTrace(graph_hook=lambda e, outcome: seen.append(e.snapshot())))
    return seen


def _graphs():
    for g in _hand_built():
        yield g
        yield _mirror(g)
        for target in range(4, 12):
            for first in (None, target, target + 1):
                yield _boosted(g, target, first)
    for n, s in corpus_specs(4):
        yield from _intermediates(gen_planar(n, min_delta=6, seed=s))
    for n, s in ((40, 1), (70, 2), (120, 3)):
        yield from _intermediates(gen_planar(n, 6, s, deletions=0))


def test_catalog_matches_recorded_digest():
    digest = hashlib.sha256()
    fired = set()
    for i, g in enumerate(_graphs()):
        e = Embedding(g)
        for tag in TAGS:
            r = match_case(tag, e)
            if r is not None:
                fired.add(tag)
            digest.update(f"{i}\t{tag}\t{r!r}\n".encode())
    assert fired == set(TAGS)
    assert digest.hexdigest() == GOLDEN_DIGEST
