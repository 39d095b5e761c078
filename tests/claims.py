"""The paper's claims and the engine's bookkeeping, checked in place.

The paper claims four things of every catalog step: it is proper, it
shrinks the graph, it keeps the maximum degree, and every vertex it leaves
to color again has at most its bound of vertices within distance 2.
``check_step`` checks them for one step, and ``walk`` runs it over every
step of the reduction of some graphs, in place on one Embedding per graph,
as the engine and ``twodist reduce`` do.

Every check of those claims trusts that each ``Embedding.apply`` leaves the
Embedding, the ``Change`` it records and an attached ``LiveCharges`` equal
to a recount from scratch.  The fixture ``checked_applies`` checks that
after every successful apply made while a test runs, undoes the apply and
makes it again; ``state``, ``ledger``, ``check_against_scratch`` and
``agrees_with_audit`` are its parts, for tests that check one apply.
``audited_in_place`` colors a graph with a ledger attached as the hunter
attaches it, and ``covered`` asserts what a coloring under the fixture
must have reached.

``find_reduction`` reads ``reductions.MATCHER_ORDER`` at call time, so a
test walks in another catalog order by setting it with ``monkeypatch``.
"""

import dataclasses
from collections import Counter

import pytest

import bruteforce
import gadgets
from twodist import (
    DegreeBudgetExceeded,
    Reduction,
    RunTrace,
    audit,
    check_properness,
    color,
    find_reduction,
    verify_coloring,
)
from twodist.discharge import UNIT, LiveCharges, _after_r1_r2, face_keys
from twodist.planar import Embedding, distance_profile
from twodist.reductions import reduce_in_place


def within_bound(e, r):
    """Every vertex r leaves pending has at most r.d2_bound vertices within
    distance 2 in e, before r is applied."""
    return all(len(distance_profile(e, v)) <= r.d2_bound for v in r.pending)


def check_step(e, r):
    """Apply r, found on e, to e, assert the claims of the step, and return
    the graphs left to walk: e, or for a split its two parts.

    The sizes before the step are recounted from e's rotations, and those
    after it read off snapshots, which validate the embedding and count n,
    m and the maximum degree afresh, not from e's own counters."""
    degrees = [len(rot) for rot in e.rot.values()]
    size, delta = len(degrees) + sum(degrees) // 2, max(degrees, default=0)
    if r.split is not None:
        parts = reduce_in_place(e, r)
        for part in parts:
            h = part.snapshot()
            assert h.n + h.m < size
        return parts
    assert r.d2_bound is None or r.d2_bound <= 3 * delta + 1
    assert within_bound(e, r)
    assert check_properness(e, r)
    h = e.snapshot()
    assert h.n + h.m < size and h.max_degree() <= delta
    return [e]


def walk(graphs):
    """Reduce each graph step by step down to fewer than 4 vertices, with
    ``check_step`` at every step, and return the number of steps per lemma
    (L2.11's as L2.11.case1 and L2.11.case2).

    The catalog may run dry, or refuse a step that would raise the
    maximum degree, only below the guarantee, Delta < 6; a refusal ends
    that branch, as the engine colors greedily there."""
    fired = Counter()
    for g in graphs:
        stack = [Embedding(g)]
        while stack:
            e = stack.pop()
            if e.n < 4:
                continue
            outcome = find_reduction(e)
            if not isinstance(outcome, Reduction):
                assert outcome.delta < 6
                continue
            try:
                stack += check_step(e, outcome)
            except DegreeBudgetExceeded:
                assert e.max_degree() < 6
                continue
            fired[outcome.lemma] += 1
    return fired


def without(rule, chord):
    """A copy of the catalog row with chord dropped from every pick: a
    mutant the claim checks must refute."""
    anchors = tuple(
        (pattern, tuple(
            (*pick, tuple(c for c in chords if c != chord)) for *pick, chords in picks
        ))
        for pattern, picks in rule.anchors
    )
    return dataclasses.replace(rule, anchors=anchors)


def state(e):
    """Everything an Embedding holds, copied; the last item is the number of
    applies in force."""
    return (
        {v: list(r) for v, r in e.rot.items()},
        {v: dict(f) for v, f in e.face.items()},
        dict(e.fdeg),
        e.m,
        {d: list(vs) for d, vs in e.bydeg.items()},
        set(e.cuts),
        gadgets.in_force(e),
    )


def ledger(e):
    """Everything the LiveCharges on e holds, copied, or None without one."""
    if e.charges is None:
        return None
    return {name: value if type(value) is int else dict(value)
            for name, value in vars(e.charges).items()}


def check_against_scratch(e):
    """Assert that e equals a recount of its snapshot, and return that.

    The snapshot is a validated PlanarGraph: symmetric, connected, Euler.
    Its rotations, traced faces and cut vertices, found by the reference
    lowpoint search, must equal what e kept up to date locally."""
    g = e.snapshot()
    old_to_new = gadgets.dense_ids(e)
    live = list(old_to_new)
    assert (e.n, e.m) == (g.n, g.m)
    assert [[old_to_new[u] for u in e.rot[v]] for v in live] == list(map(list, g.rotation))

    assert len(e.fdeg) == len(g.fdeg)
    ids = {}  # kept face id -> traced face index, which must be a bijection
    for v in live:
        w, r = old_to_new[v], e.rot[v]
        for u in r:
            traced = g.face[w][old_to_new[u]]
            assert ids.setdefault(e.face[v][u], traced) == traced
        assert e.corner_degrees(v) == tuple(
            g.fdeg[g.face[w][old_to_new[u]]] for u in r[1:] + r[:1]
        )
    assert len(set(ids.values())) == len(ids) == len(g.fdeg)
    assert all(e.fdeg[f] == g.fdeg[i] for f, i in ids.items())

    hist = {}
    for v in live:  # ascending, so each bucket must be too
        hist.setdefault(len(e.rot[v]), []).append(v)
    assert e.bydeg == hist
    assert (e.min_degree(), e.max_degree()) == (min(hist, default=0), max(hist, default=0))
    cuts = bruteforce.cut_vertices(g)
    assert e.cuts == {v for v in live if old_to_new[v] in cuts}
    return g


def agrees_with_audit(e, g=None):
    """The LiveCharges on e against the audit of g, e's snapshot, per vertex
    and per face; its vertex units sum to their R1-R2 parts, since R3-R14
    only move charge between neighbors, which is why its total holds none."""
    g, rename = e.snapshot() if g is None else g, gadgets.dense_ids(e)
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


def check_change(e, ch, ids, fdeg):
    """Assert that ch, the Change of the apply just made on e, says what a
    diff of e's vertex ids and face degrees says, ids and fdeg being those
    before it; return how many of its faces were born and then split by a
    later link of it, whose birth darts are stale."""
    assert ch.dels == ids - e.rot.keys()
    assert ch.popped == fdeg.keys() - e.fdeg.keys()
    assert ch.born.keys() == e.fdeg.keys() - fdeg.keys()
    resized = dict(ch.links)  # each face with the last dart a link left on it
    assert resized.keys() - ch.born.keys() == {
        f for f, d in e.fdeg.items() if f in fdeg and fdeg[f] != d
    }
    for f, (x, y) in resized.items():
        assert e.face[x][y] == f
    for f, darts in ch.born.items():
        if f not in resized:
            assert sorted(darts) == sorted(e.walk(darts[0]))
    return len(resized.keys() & ch.born.keys())


@pytest.fixture
def checked_applies(monkeypatch):
    """Check every successful ``Embedding.apply`` made while the test runs.

    After each one: the Embedding against a recount of its snapshot; the
    apply's Change, read from its undo frame whether or not a ledger is
    attached, against a diff; and with a LiveCharges attached, that
    ``follow`` was handed that Change and wrote no undo entry, and the
    ledger against the audit of the snapshot.  Then the apply is undone,
    which must bring back the state and the ledger before it, and made
    again, which must give both as the first time.  Returns counts of
    what was seen, the undos the test or the engine made included."""
    apply, undo, follow = Embedding.apply, Embedding.undo, LiveCharges.follow
    followed, seen = [], Counter()

    def unlogged_follow(self, e, change):
        entries = len(change.log)
        follow(self, e, change)
        assert len(change.log) == entries
        followed.append(change)

    def checked_apply(self, *args, **kwargs):
        n, delta, before, charges = self.n, self.max_degree(), state(self), ledger(self)
        apply(self, *args, **kwargs)  # a failed one reverts itself
        # a split deletes its smaller side; the larger is never deleted
        assert 2 * (n - self.n) <= n
        g = check_against_scratch(self)
        seen["born, then split"] += check_change(self, self._last, before[0].keys(), before[2])
        if self.charges is not None:
            assert followed == [self._last]
            agrees_with_audit(self, g)
            seen["followed"] += 1
        seen["apply"] += 1
        seen["delta drop"] += self.max_degree() < delta
        # a cut-vertex split deletes one side and nothing else
        seen["split"] += not args and list(kwargs) == ["delete_vertices"]
        after = state(self), ledger(self)
        undo(self)
        seen["undo"] += 1
        # all but the frame: the apply before this one is final already
        assert (state(self), ledger(self)) == ((*before[:-1], 0), charges)
        apply(self, *args, **kwargs)
        assert (state(self), ledger(self)) == after  # face ids included
        followed.clear()

    def counted_undo(self):
        seen["engine undo"] += 1
        undo(self)

    monkeypatch.setattr(Embedding, "apply", checked_apply)
    monkeypatch.setattr(Embedding, "undo", counted_undo)
    monkeypatch.setattr(LiveCharges, "follow", unlogged_follow)
    return seen


def audited_in_place(g):
    """Color g with a hook that attaches a LiveCharges, as the hunter's does,
    to each Embedding that reaches it with none, and reads its total at
    every call.  Returns counts of the calls and of the parts: the
    Embeddings that reach the hook with no LiveCharges after its first
    call, one per cut-vertex split."""
    seen = Counter()

    def hook(e, outcome):
        if e.charges is None:
            seen["parts"] += seen["hooked"] > 0
            e.charges = LiveCharges(e)
            agrees_with_audit(e)
        seen["hooked"] += 1
        if e.n >= 2:
            assert e.charges.total_units == -8 * UNIT
            seen["calls"] += 1

    assert verify_coloring(g, color(g, trace=RunTrace(graph_hook=hook))).valid
    return seen


def covered(seen, splits=True, ledgers=True):
    """Assert the counts of ``checked_applies`` after colorings: more than
    100 applies, each undone by the check and never by the engine, Delta
    drops among them and some born face split again by a later link of its
    apply, a cut-vertex split among them exactly when splits, and each
    apply followed by a ledger when ledgers, else none."""
    assert seen["apply"] == seen["undo"] > 100
    assert seen["delta drop"] and not seen["engine undo"] and seen["born, then split"]
    assert bool(seen["split"]) == splits
    assert seen["followed"] == (seen["apply"] if ledgers else 0)
