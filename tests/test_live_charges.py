"""The change record that ``Embedding.apply`` hands the live charge ledger,
and what following it costs.

``LiveCharges.follow`` reads nothing of an apply but its ``Change``: the
deleted ids, the faces popped and born, each survivor's lost neighbors
and the edges drawn, each with the face it shrank.  So the record must
say exactly what a before/after diff of ``e.rot`` and ``e.fdeg`` says.
The ledger writes nothing into the apply's undo log: an undo derives it
afresh, so it may attach to an Embedding whose earlier apply it never saw.
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
from test_audit_in_place import agrees_with_audit, audited_in_place
from twodist import RunTrace, TwodistError, audit, color, discharge, gen_planar, hunt
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


@pytest.fixture
def unlogged(monkeypatch):
    """Check that LiveCharges.follow leaves the apply's undo log as it
    found it; returns the count of the calls checked."""
    follow = LiveCharges.follow
    seen = Counter()

    def checked(self, e, change):
        entries = len(change.log)
        follow(self, e, change)
        assert len(change.log) == entries
        seen["follow"] += 1

    monkeypatch.setattr(LiveCharges, "follow", checked)
    return seen


def test_the_hunters_ledger_writes_no_undo_entry(unlogged):
    report = hunt(3, 80, 6, 1)
    assert unlogged["follow"] > 100 and sum(report.audit_totals.values()) > 100


def test_attaching_after_a_commit():
    # the spoke's deletion commits (makes final) the rim deletion, so the
    # ledger attaches to the graph both left, follows the next apply from
    # there, and an undo of that brings back the graph without the rim
    # vertex
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


@pytest.fixture
def recorded(monkeypatch):
    """Check the Change of every apply that a LiveCharges follows against a
    diff of the vertex ids and face degrees before and after it; returns
    counts of what was seen."""
    apply, follow = Embedding.apply, LiveCharges.follow
    changes = []
    seen = Counter()

    def kept_follow(self, e, change):
        changes.append(change)
        return follow(self, e, change)

    def checked_apply(self, *args, **kwargs):
        if self.charges is None:
            return apply(self, *args, **kwargs)
        ids, fdeg = set(self.rot), dict(self.fdeg)
        apply(self, *args, **kwargs)
        ch = changes.pop()
        assert ch.dels == ids - self.rot.keys()
        assert ch.born.keys() == self.fdeg.keys() - fdeg.keys()
        seen["apply"] += 1
        assert ch.popped == fdeg.keys() - self.fdeg.keys()
        resized = dict(ch.links)  # each face with the last dart a link left on it
        assert resized.keys() - ch.born.keys() == {
            f for f, d in self.fdeg.items() if f in fdeg and fdeg[f] != d
        }
        for f, (x, y) in resized.items():
            assert self.face[x][y] == f
        for f, darts in ch.born.items():
            if f in resized:
                seen["born, then split"] += 1  # its birth darts are stale
            else:
                assert sorted(darts) == sorted(self.walk(darts[0]))

    monkeypatch.setattr(LiveCharges, "follow", kept_follow)
    monkeypatch.setattr(Embedding, "apply", checked_apply)
    return seen


def test_the_change_record_matches_a_diff(small_corpus, recorded):
    assert sum(audited_in_place(g)["calls"] for g in small_corpus[:12]) > 100
    assert recorded["apply"] > 100 and recorded["born, then split"]


def test_stacked_random_applies_and_their_undos(unlogged):
    # applies the engine never makes, four stacked on one graph, mixing
    # deletions with drawn edges, some an edge deleted and drawn again; each
    # is undone right after, then made again for the next to build on
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
                continue
            finally:
                agrees_with_audit(e)
            applied += 1
            redrawn += bool(set(cut) & set(drawn))
            e.undo()
            agrees_with_audit(e)
            e.apply(dels, cut, drawn)
            agrees_with_audit(e)
    assert applied > 60 and redrawn and unlogged["follow"]
