"""The live charge ledger against the audit of the Embedding's snapshot.

``workbench.hunt`` reads its totals from a ``LiveCharges`` attached, at the
first hook call of a run, to the Embedding the engine hands its graph
hook; every apply keeps it current, and an undo derives it afresh.  The
reference is the from-scratch ``audit`` of ``e.snapshot()``: the same
graph as a validated PlanarGraph, with the live ids renumbered in
ascending order and faces keyed by their canonical walks, whose audit
shares only the rule helpers with the ledger.  ``claims.agrees_with_audit``
compares the two per vertex, through the snapshot's rename, and per face,
through a dart of each face id.  ``claims.checked_applies`` makes that
comparison after every apply of the colorings here, and checks that an
undo of each brings the ledger back.  The other tests check applies that
fail, applies whose effect on the ledger reaches past the vertices they
touch, and a reduction refused after its apply.
"""

from collections import Counter

import pytest

import gadgets
from claims import agrees_with_audit, audited_in_place, covered, ledger, state
from conftest import FLIP_SEEDS, FLIP_SIZES
from twodist import DegreeBudgetExceeded, gen_planar
from twodist.discharge import LiveCharges
from twodist.planar import Embedding
from twodist.reductions import match_case, reduce_in_place
from workloads import gen_flip


def test_on_a_corpus_slice(small_corpus, checked_applies):
    # each split colors its smaller side as a part with a ledger of its own
    hooked = sum(map(audited_in_place, small_corpus[:12]), Counter())
    assert checked_applies["split"] == hooked["parts"]
    covered(checked_applies)


def test_on_flip_graphs(checked_applies):
    # the four flip graphs of size 140 of the engine golden
    graphs = [gen_flip(FLIP_SIZES[1], seed) for seed in FLIP_SEEDS]
    assert sum(map(audited_in_place, graphs), Counter())["parts"] == 0
    covered(checked_applies, splits=False)  # no flip graph has a cut vertex


def test_on_hunt_graphs(checked_applies):
    # the graphs workbench.hunt(3, 80, 6, 1) colors
    hooked = sum((audited_in_place(gen_planar(80, 6, s)) for s in (1, 2, 3)), Counter())
    assert checked_applies["split"] == hooked["parts"]
    covered(checked_applies)


# the failed applies of gadgets.FAILED_APPLIES that undo part of their own
# surgery before they raise
UNDONE_SURGERY = pytest.mark.parametrize(
    "build, kwargs, error", [gadgets.FAILED_APPLIES[i] for i in (0, 1, 4)]
)


@UNDONE_SURGERY
def test_a_failed_apply_leaves_the_ledger_as_it_was(build, kwargs, error, checked_applies):
    # the ledger never follows the failed apply, and follows the next one,
    # checked in full, from where it was
    e = Embedding(build())
    e.charges = LiveCharges(e)
    before = ledger(e)
    with pytest.raises(error):
        e.apply(**kwargs)
    assert ledger(e) == before
    e.apply(delete_edges=[(1, e.rot[1][0])])
    assert checked_applies["followed"] == 1


@UNDONE_SURGERY
def test_a_failed_apply_after_a_commit_leaves_graph_and_ledger_as_they_were(build, kwargs, error):
    # a ledger attached with an apply in force that made the one before it
    # final; after the failed apply, an undo of the one in force derives
    # the ledger afresh on the graph with the last pendant back
    e = gadgets.embedding_with_an_apply_in_force(build())
    e.charges = LiveCharges(e)
    before, rotation = ledger(e), {v: list(r) for v, r in e.rot.items()}
    with pytest.raises(error):
        e.apply(**kwargs)
    assert ledger(e) == before and e.rot == rotation
    e.undo()
    assert gadgets.in_force(e) == 0 and len(e.charges.classes) == len(rotation) + 1
    agrees_with_audit(e)


@pytest.mark.parametrize("build", [Embedding, gadgets.embedding_with_an_apply_in_force])
def test_a_reduction_that_raises_delta_leaves_graph_and_ledger_as_they_were(build):
    # the L2.7.2 fan centre already sits at Delta = 4: the apply succeeds
    # and raises Delta, so reduce_in_place undoes it and refuses.  The
    # apply made any apply before it final, so none is left in force
    e = build(gadgets.capped_fan())
    e.charges = LiveCharges(e)
    r = match_case("L2.7.2", e)
    assert r is not None and r.add_edges[0][0] == 2
    before, charges = state(e), ledger(e)
    with pytest.raises(DegreeBudgetExceeded):
        reduce_in_place(e, r)
    assert state(e)[:-1] == before[:-1] and gadgets.in_force(e) == 0
    assert ledger(e) == charges
    agrees_with_audit(e)


def wheel_and_star():
    """W8 (hub 1, rim 2..9) inside the triangle 18-19-20, joined to it by
    2-18, 5-19 and 7-20, and a 7-star (centre 10, leaves 11..17) hanging
    off 18 by the edge 11-18: the star lies in the outer face, which no
    wheel vertex borders."""
    coords = {1: (0.0, 0.0), 10: (0.0, 7.0)}
    coords.update({i + 2: gadgets._pt(90 + 45 * i, 1.0) for i in range(8)})
    coords.update({i + 18: gadgets._pt(90 + 120 * i, 4.0) for i in range(3)})
    for i in range(7):
        x, y = gadgets._pt(270 + 45 * i, 1.0)
        coords[i + 11] = (x, y + 7.0)
    edges = [(1, v) for v in range(2, 10)] + [(v, v + 1) for v in range(2, 9)] + [(9, 2)]
    edges += [(18, 19), (19, 20), (20, 18), (2, 18), (5, 19), (7, 20)]
    edges += [(10, v) for v in range(11, 18)] + [(11, 18)]
    return gadgets.embed(coords, edges)


def test_a_delta_drop_redoes_the_band_and_its_undo_restores_it():
    # deleting the spoke 1-6 drops the hub, and Delta, from 8 to 7, so the
    # star's 7-centre stops drawing R2 from the outer face; neither it nor
    # that face is next to anything the deletion touched
    e = Embedding(wheel_and_star())
    e.charges = LiveCharges(e)
    before, centre = ledger(e), e.charges.vertex_units(e)[10]
    e.apply(delete_edges=[(1, 6)])
    assert e.max_degree() == 7
    agrees_with_audit(e)
    assert e.charges.vertex_units(e)[10] != centre
    e.undo()
    assert ledger(e) == before
    agrees_with_audit(e)


def test_an_added_edge_redoes_the_corners_of_the_face_it_keeps():
    # the chord 2-5 splits the outer 6-face of W6 into two 4-faces; the one
    # that keeps its face id has two corners off the chord, which the apply
    # never touched, and both lose a 5+-corner
    e = Embedding(gadgets.wheel(6))
    e.charges = LiveCharges(e)
    before = ledger(e)
    e.apply(add_edges=[(2, 5)])
    agrees_with_audit(e)
    e.undo()
    assert ledger(e) == before
