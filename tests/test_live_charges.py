"""The live charge ledger as it follows applies, and what following costs.

``LiveCharges.follow`` reads nothing of an apply but its ``Change``: the
deleted ids, the faces popped and born, each survivor's lost neighbors
and the edges drawn, each with the face it shrank.  So the record must
say exactly what a before/after diff of ``e.rot`` and ``e.fdeg`` says,
and the ledger writes nothing into the apply's undo log: an undo derives
it afresh, so it may attach to an Embedding whose earlier apply it never
saw.  ``claims.checked_applies`` checks both after every apply, here on
the hunter's runs, on colorings with no ledger attached and on stacked
random applies the engine never makes.
It keeps no R3-R14 state: its one per-vertex view, ``vertex_units(e)``,
derives each vertex's units when read, its ``_after_r1_r2`` part moved by
the one helper, ``_income``, that the audit's ``apply_rules`` runs for its
R3-R14 transfers, so a unit less that part must say what the audit's
transfer log says.
"""

import random
from collections import Counter

import pytest

import gadgets
from claims import agrees_with_audit, covered
from twodist import (
    RunTrace,
    TwodistError,
    audit,
    color,
    discharge,
    gen_planar,
    hunt,
    verify_coloring,
)
from twodist.classify import classify_vertex
from twodist.discharge import LiveCharges, _after_r1_r2
from twodist.planar import Embedding


def test_attaching_with_an_apply_in_force_then_undoing_it():
    # attached after the rim deletion, the ledger holds 8 vertices; the
    # undo brings the ninth back, and the ledger with it, which then
    # follows the next apply and its undo
    e = Embedding(gadgets.wheel(8))
    e.apply(delete_vertices=[2])
    e.charges = LiveCharges(e)
    agrees_with_audit(e)
    e.undo()
    assert gadgets.in_force(e) == 0 and len(e.charges.classes) == 9
    agrees_with_audit(e)
    e.apply(delete_edges=[(1, 5)])
    agrees_with_audit(e)
    e.undo()
    agrees_with_audit(e)


def test_the_hunters_ledger_writes_no_undo_entry(checked_applies):
    # the hunter attaches the ledgers itself and reads -8 from each; the
    # check asserts that follow adds no entry to the undo log it is handed
    report = hunt(3, 80, 6, 1)
    assert report.colorings_valid == 3 and list(report.audit_totals) == ["-8"]
    assert report.audit_totals["-8"] > 100
    covered(checked_applies)


def test_the_change_record_matches_a_diff(checked_applies):
    # the graphs hunt(3, 80, 6, 1) colors, with no ledger attached: the
    # check reads each apply's Change from its undo frame all the same
    for s in (1, 2, 3):
        g = gen_planar(80, 6, s)
        assert verify_coloring(g, color(g)).valid
    covered(checked_applies, ledgers=False)


def test_attaching_after_a_commit():
    # the spoke's deletion makes the rim deletion final, so the ledger
    # attaches to the graph both left, follows the next apply from there,
    # and an undo of that brings back the graph without the rim vertex
    e = Embedding(gadgets.wheel(8))
    e.apply(delete_vertices=[2])
    e.apply(delete_edges=[(1, 5)])
    e.charges = LiveCharges(e)
    agrees_with_audit(e)
    e.apply(delete_edges=[(1, 7)])
    agrees_with_audit(e)
    e.undo()
    assert gadgets.in_force(e) == 0 and len(e.charges.classes) == 8
    agrees_with_audit(e)


def log_nets(ledger):
    """Each vertex's R3-R14 net as the ledger's transfer log records it:
    what it draws less what it gives, by the dense ids of its graph."""
    nets = dict.fromkeys(ledger.vertex_units, 0)
    for rule, (_, source), (_, target), units in ledger.log:
        if rule not in ("R1", "R2"):
            nets[source] -= units
            nets[target] += units
    return nets


def test_each_vertex_is_its_r1_r2_part_plus_its_net():
    # at every step of these colorings, each vertex's class as the ledger
    # keeps it, and its net, its units as the ledger's view derives them
    # less its R1-R2 part, against the classes read afresh and the R3-R14
    # transfers of the snapshot's audit
    deltas, drawn = set(), 0

    def hook(e, outcome):
        nonlocal drawn
        if e.charges is None:
            e.charges = LiveCharges(e)
        live, delta = e.charges, e.max_degree()
        deltas.add(delta)
        assert live.delta == delta
        units, nets = live.vertex_units(e), {}
        for v in e.rot:
            vc = classify_vertex(e, v)
            assert live.classes[v] == vc
            nets[v] = units[v] - _after_r1_r2(vc, delta)
        rename = gadgets.dense_ids(e)
        logged = log_nets(audit(e.snapshot(), cross_reference=False).final)
        assert units.keys() == nets.keys()
        assert {rename[v]: net for v, net in nets.items()} == logged
        drawn += any(logged.values())

    for n, seed in [(30, 1), (40, 1), (50, 7), (60, 0)]:
        color(gen_planar(n, 6, seed), trace=RunTrace(graph_hook=hook))
    assert deltas >= set(range(6, 11)) and drawn > 100


@pytest.fixture
def calls(monkeypatch):
    """Counts of the calls to the discharge helpers that derive a vertex or
    a face: ``_income`` (R3-R14 at a vertex), which of the ledger only its
    view makes, and ``_after_r1_r2`` and ``_face_units``, which ``follow``
    makes per vertex or face it re-derives."""
    seen = Counter()
    for name in ("_income", "_after_r1_r2", "_face_units"):
        real = getattr(discharge, name)

        def counted(*args, name=name, real=real):
            seen[name] += 1
            return real(*args)

        monkeypatch.setattr(discharge, name, counted)
    return seen


@pytest.mark.parametrize("k", [20, 60])
def test_losing_one_spoke_costs_the_same_at_any_hub_degree(k, calls):
    # rim vertex 2 leaves: the hub loses a spoke, its two rim neighbors drop
    # to degree 2 and three faces merge into one; no other class moves
    e = Embedding(gadgets.wheel(k))
    e.charges = LiveCharges(e)
    calls.clear()
    e.apply(delete_vertices=[2])
    # the same on every wheel: vertex 2 leaves the total, the classes of
    # the three move, and the one born face is derived afresh; no R3-R14
    # income is read, counted before the audit comparison reads the view
    assert dict(calls) == {"_after_r1_r2": 7, "_face_units": 1}
    assert vars(e.charges).keys() == {"delta", "classes", "face_units", "total_units"}
    agrees_with_audit(e)


def test_stacked_random_applies_and_their_undos(checked_applies):
    # applies the engine never makes, four stacked on one graph, mixing
    # deletions with drawn edges, some an edge deleted and drawn again; the
    # check undoes each right after, then makes it again for the next to
    # build on
    rng = random.Random(5)
    redrawn = applied = 0
    for _ in range(60):
        e = Embedding(gen_planar(rng.randint(12, 40), 6, rng.randint(1, 10**6)))
        e.charges = LiveCharges(e)
        for _ in range(4):
            ids = sorted(e.rot)
            edges = [(v, u) for v in ids for u in e.rot[v] if v < u]
            cut = rng.sample(edges, rng.choice([0, 1, 2]))
            drawn = [tuple(rng.sample(ids, 2)) for _ in range(rng.choice([0, 1, 2, 3]))]
            drawn += cut[:1] if rng.random() < 0.3 else []
            dels = rng.sample(ids, rng.choice([0, 1, 2]))
            try:
                e.apply(dels, cut, drawn)
            except TwodistError:
                agrees_with_audit(e)
                continue
            applied += 1
            redrawn += bool(set(cut) & set(drawn))
    assert applied > 60 and redrawn and checked_applies["followed"] == applied
