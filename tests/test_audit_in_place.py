"""The live charge ledger against the audit of the Embedding's snapshot.

``workbench.hunt`` reads its totals from a ``LiveCharges`` attached, at the
first hook call of a run, to the Embedding the engine hands its graph
hook; every apply keeps it current, and an undo derives it afresh.  The
reference is the from-scratch ``audit`` of ``e.snapshot()``: the same
graph as a validated PlanarGraph, with the live ids renumbered in
ascending order and faces keyed by their canonical walks, whose audit
shares only the rule helpers with the ledger.  After
every apply, at every hook call, and after an undo of each apply the
engine makes (it never undoes one, so the check undoes each itself and
applies it again), the ledger must equal that audit per
vertex, through the snapshot's rename, and per face, through a dart of
each face id; and the snapshot's face trace and Euler check certify the
Embedding itself.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

import gadgets
from twodist import (
    DegreeBudgetExceeded,
    RunTrace,
    SurgeryDisconnects,
    SurgeryNotPlanar,
    audit,
    color,
    gen_planar,
)
from twodist.discharge import UNIT, LiveCharges, _after_r1_r2, face_keys
from twodist.planar import Embedding
from twodist.reductions import match_case, reduce_in_place

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))

from test_embedding import state  # noqa: E402
from test_engine_golden import FLIP_SEEDS, FLIP_SIZES  # noqa: E402
from workloads import gen_flip  # noqa: E402


def agrees_with_audit(e):
    """The LiveCharges on e against the audit of e's snapshot, per vertex
    and per face; its vertex units sum to their R1-R2 parts, since R3-R14
    only move charge between neighbors, which is why its total holds none."""
    g, rename = e.snapshot(), gadgets.dense_ids(e)
    final = audit(g, cross_reference=False).final
    keys = face_keys(g)
    # each face id's canonical walk, read through its darts
    key = {
        f: keys[g.face[rename[x]][rename[y]]] for x, fx in e.face.items() for y, f in fx.items()
    }
    live = e.charges
    units = live.vertex_units(e)
    assert sum(units.values()) == sum(_after_r1_r2(vc, live.delta) for vc in live.classes.values())
    assert {rename[v]: c for v, c in units.items()} == final.vertex_units
    assert {key[f]: c for f, c in live.face_units.items()} == final.face_units
    assert live.total_units == final.total_units()


def ledger(e):
    """Everything a LiveCharges holds, copied."""
    return {name: value if type(value) is int else dict(value)
            for name, value in vars(e.charges).items()}


@pytest.fixture
def followed(monkeypatch):
    """Check the LiveCharges after every apply on an Embedding that carries
    one, undo the apply and check again, then apply it once more; returns
    counts of what was seen, the undos the engine made itself included."""
    apply, undo = Embedding.apply, Embedding.undo
    seen = Counter()

    def checked_apply(self, *args, **kwargs):
        if self.charges is None:
            return apply(self, *args, **kwargs)
        n, delta, before = self.n, self.max_degree(), ledger(self)
        apply(self, *args, **kwargs)
        # a split deletes its smaller side; the larger is never deleted
        assert 2 * (n - self.n) <= n
        agrees_with_audit(self)
        seen["apply"] += 1
        seen["delta drop"] += self.max_degree() < delta
        # a cut-vertex split deletes one side and nothing else
        seen["split"] += not args and list(kwargs) == ["delete_vertices"]
        after = ledger(self)
        undo(self)
        assert ledger(self) == before
        agrees_with_audit(self)
        seen["undo"] += 1
        apply(self, *args, **kwargs)
        assert ledger(self) == after

    def engine_undo(self):
        seen["engine undo"] += 1
        undo(self)

    monkeypatch.setattr(Embedding, "apply", checked_apply)
    monkeypatch.setattr(Embedding, "undo", engine_undo)
    return seen


def audited_in_place(g):
    """Color g, checking the LiveCharges against the audit at every hook
    call; a call that finds no LiveCharges attaches one, as the hunter's
    does.  Returns counts of the calls checked and of the parts: the
    Embeddings that reach the hook with no LiveCharges after its first
    call, one per cut-vertex split."""
    seen = Counter()

    def hook(e, outcome):
        if e.charges is None:
            seen["parts"] += seen["hooked"] > 0
            e.charges = LiveCharges(e)
        seen["hooked"] += 1
        if e.n < 2:
            return
        assert e.charges.total_units == -8 * UNIT
        agrees_with_audit(e)
        seen["calls"] += 1

    color(g, trace=RunTrace(graph_hook=hook))
    return seen


def covered(seen, hooked, splits=True):
    # every apply undone, by the check and never by the engine, and Delta
    # drops among them; each split colors its smaller side as a part with a
    # ledger of its own
    assert seen["apply"] == seen["undo"] and seen["delta drop"] and not seen["engine undo"]
    assert seen["split"] == hooked["parts"] and bool(seen["split"]) == splits


def test_on_a_corpus_slice(small_corpus, followed):
    hooked = sum(map(audited_in_place, small_corpus[:12]), Counter())
    assert hooked["calls"] > 100
    covered(followed, hooked)


def test_on_flip_graphs(followed):
    # the smaller flip graphs of the engine golden; they fire L2.4-L2.8,
    # whose added edges split faces
    graphs = [gen_flip(n, seed) for n in FLIP_SIZES[:2] for seed in FLIP_SEEDS]
    hooked = sum(map(audited_in_place, graphs), Counter())
    assert hooked["calls"] > 100
    covered(followed, hooked, splits=False)  # no flip graph has a cut vertex


def test_on_hunt_graphs(followed):
    # the graphs workbench.hunt(3, 80, 6, 1) colors
    hooked = sum((audited_in_place(gen_planar(80, 6, s)) for s in (1, 2, 3)), Counter())
    assert hooked["calls"] > 100
    covered(followed, hooked)


FAILED_APPLIES = pytest.mark.parametrize(
    "build, kwargs, error",
    [
        # the edge goes and 1-6 is drawn before 1-7 finds no shared face
        (gadgets.cube, dict(delete_edges=[(1, 2)], add_edges=[(1, 6), (1, 7)]), SurgeryNotPlanar),
        (gadgets.cube, dict(delete_edges=[(1, 2)], add_edges=[(1, 7)]), SurgeryNotPlanar),
        (lambda: gadgets.wheel(6), dict(delete_vertices=[1, 3, 5, 7]), SurgeryDisconnects),
    ],
)


@FAILED_APPLIES
def test_a_failed_apply_leaves_the_ledger_as_it_was(build, kwargs, error):
    e = Embedding(build())
    e.charges = LiveCharges(e)
    before = ledger(e)
    with pytest.raises(error):
        e.apply(**kwargs)
    assert ledger(e) == before
    agrees_with_audit(e)


@FAILED_APPLIES
def test_a_failed_apply_after_a_commit_leaves_graph_and_ledger_as_they_were(build, kwargs, error):
    # a ledger attached with an apply in force that committed (made final)
    # the one before it
    e = gadgets.embedding_with_an_apply_in_force(build())
    e.charges = LiveCharges(e)
    before, rotation = ledger(e), {v: list(r) for v, r in e.rot.items()}
    with pytest.raises(error):
        e.apply(**kwargs)
    assert ledger(e) == before and e.rot == rotation
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
