"""The engine's Embedding against recomputation from scratch.

Every apply the engine makes while coloring a corpus slice and some flip
graphs runs under ``claims.checked_applies``, as do the colorings of
``test_audit_in_place`` and ``test_live_charges``: the rotation is rebuilt as a validated PlanarGraph, its faces traced and its
cut vertices found by a reference search, and all of that must equal what
the embedding kept up to date locally; the apply's change record must say
what a diff says, and an attached charge ledger what the audit says.  The
engine never undoes an apply, so the check undoes each itself, which must
restore the state before the apply exactly, and applies it again.  An
Embedding holds one undo frame: a successful apply makes the one before it
final, and a failed apply must leave nothing changed, the apply before it
still in force.
"""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gadgets
from claims import (
    agrees_with_audit,
    audited_in_place,
    check_against_scratch,
    covered,
    ledger,
    state,
)
from conftest import FLIP_SEEDS, FLIP_SIZES
from twodist import (
    InvariantViolated,
    Reduction,
    RunTrace,
    SurgeryDisconnects,
    SurgeryNotPlanar,
    UnknownVertex,
    NotACutVertex,
    PlanarGraph,
    color,
    find_reduction,
    gen_planar,
    verify_coloring,
)
from twodist import planar
from twodist.classify import classify_all
from twodist.discharge import LiveCharges
from twodist.errors import NoApplyInForce
from twodist.oracle import greedy_square
from twodist.planar import Embedding, reachable, square
from twodist.reductions import MATCHER_ORDER, match_case, reduce_in_place
from workloads import gen_flip


def two_wheels():
    """W6 (hub 1) and W8 (hub 8) sharing rim vertex 2, a cut vertex whose
    sides both have a hub off the face that the split changes."""
    coords = {1: (0.0, 0.0), 8: (0.0, 3.0)}
    coords.update({i + 2: gadgets._pt(90 + 60 * i, 1.0) for i in range(6)})
    rim = [2] + list(range(9, 16))
    for i, v in enumerate(rim[1:], 1):
        x, y = gadgets._pt(270 + 45 * i, 2.0)
        coords[v] = (x, y + 3.0)
    edges = [(1, v) for v in range(2, 8)] + [(v, v % 7 + 1 if v < 7 else 2) for v in range(2, 8)]
    edges += [(8, v) for v in rim] + [(rim[i], rim[(i + 1) % 8]) for i in range(8)]
    return gadgets.embed(coords, edges)


def wheel_with_tail():
    """W6 (hub 1, rim 2..7) with the path 2-8-9-10 hanging off rim vertex
    2: the side of cut vertex 2 holding the smallest other id, 1, is the
    larger one."""
    rotation = [tuple(gadgets.wheel(6).rotation[v]) for v in range(7)]
    rotation[1] += (8,)
    return PlanarGraph(rotation + [(2, 9), (8, 10), (9,)])


# (sizes of A, B and C, the component holding the smallest other id): a
# 3 : 3 tie; that id on the smaller side, as a lone vertex, as a path, and
# on a side the walks leave growing; a 6 : 6 tie and that id on the larger
# side, each with the other side left growing
THREE_SIDES = [
    gadgets.three_sides(a, b, c, low, cut_first)
    for a, b, c, low in (
        (3, 1, 2, "A"), (3, 1, 2, "B"), (3, 1, 2, "C"),
        (3, 4, 2, "B"), (6, 5, 1, "A"), (8, 6, 1, "A"),
    )
    for cut_first in (True, False)
]


def test_split_sides_equal_the_reachable_reference(small_corpus):
    # the smaller side is the component of G - v holding the smallest other
    # id, or every other vertex but v, whichever is smaller (the second on
    # a tie); the sides themselves are the reference's
    graphs = small_corpus[:30] + [two_wheels(), gadgets.star(5), wheel_with_tail()]
    graphs += [g for g, _ in THREE_SIDES]
    splits, seen = 0, set()
    for g in graphs:
        e = Embedding(g)
        before = state(e)
        for v in sorted(e.cuts):
            side, holds_low = e.smaller_side(v)
            first, rest = gadgets.split_sides(e, v)
            low = 1 if v != 1 else 2
            reference = set(reachable(g.adj, g.n, low, avoid=v))
            assert set(first) == reference
            assert set(rest) == set(g.vertices()) - reference - {v}
            assert holds_low == (len(first) < len(rest))
            assert side == (first if holds_low else rest)
            seen.add((holds_low, len(first) == len(rest)))
            splits += 1
        assert state(e) == before
        for v in set(g.vertices()) - e.cuts:
            with pytest.raises(NotACutVertex):
                e.smaller_side(v)
    assert splits > 30 and seen == {(True, False), (False, False), (False, True)}


def test_the_three_sides_gadget_covers_the_hard_cases():
    # three components, A's neighbors of v split by B's, an exact tie, and
    # the smallest other id in the smaller side and in the larger
    outcomes = set()
    for g, v in THREE_SIDES:
        e = Embedding(g)
        sides = [frozenset(reachable(g.adj, g.n, u, avoid=v)) for u in e.rot[v]]
        assert len(set(sides)) == 3 and sides[1] == sides[3] != sides[2]
        side, holds_low = e.smaller_side(v)
        first, rest = gadgets.split_sides(e, v)
        outcomes.add((holds_low, len(first) - len(rest)))
    assert outcomes == {(False, 0), (True, -4), (True, -2), (True, -1), (False, 1)}


def test_split_sides_of_a_star_centre_and_a_wheel_tail():
    e = Embedding(gadgets.star(5))
    assert e.smaller_side(1) == ({2}, True)
    first, rest = gadgets.split_sides(e, 1)
    assert (set(first), set(rest)) == ({2}, {3, 4, 5, 6})
    e = Embedding(wheel_with_tail())
    assert e.smaller_side(2) == ({8, 9, 10}, False)
    first, rest = gadgets.split_sides(e, 2)
    assert (set(first), set(rest)) == ({1, 3, 4, 5, 6, 7}, {8, 9, 10})


def test_splitting_off_a_pendant_costs_the_same_at_any_hub_degree():
    # a pendant on the hub of a wheel: the search for the smaller side, the
    # part that copies it out and the apply that deletes it read the same
    # rotations on 20 spokes as on 60
    reads = []
    for k in (20, 60):
        rotation = [list(r) for r in gadgets.wheel(k).rotation]
        rotation[0].append(k + 2)
        e = Embedding(PlanarGraph(rotation + [[1]]))
        count = [0]

        class Counted(dict):
            def __getitem__(self, v):
                count[0] += 1
                return dict.__getitem__(self, v)

        e.rot = Counted(e.rot)
        side, holds_low = e.smaller_side(1)
        assert (side, holds_low) == ({k + 2}, False)
        part = e.part(side | {1})
        e.apply(delete_vertices=side)
        reads.append(count[0])
        e.rot = dict(e.rot)
        check_against_scratch(part)
        check_against_scratch(e)
    assert reads == [10, 10]


def test_the_cut_test_costs_the_same_at_any_hub_degree(monkeypatch):
    # the cut test, a set over one vertex's dart faces, runs after an apply
    # only on cut vertices and on the vertices a born face visits twice:
    # deleting a rim vertex of a wheel tests the same dicts on 20 spokes
    # as on 60, and deleting a 3-vertex of a stacked triangulation none
    repeats = planar._repeats
    tested = []

    def counted(fv):
        tested[-1].append(len(fv))
        return repeats(fv)

    stacked = gen_planar(40, seed=3, deletions=0)
    cases = [(gadgets.wheel(20), 2), (gadgets.wheel(60), 2)]
    cases += [(stacked, v) for v in Embedding(stacked).of_degree(3)]
    for g, v in cases:
        e = Embedding(g)
        tested.append([])
        with monkeypatch.context() as m:
            m.setattr(planar, "_repeats", counted)
            e.apply(delete_vertices=[v])
        check_against_scratch(e)
    assert tested[0] == tested[1]
    assert len(tested) > 10 and not any(tested[2:])


def test_a_part_equals_deleting_the_other_side(small_corpus):
    # for each side of each cut vertex, the part holding it and the cut
    # vertex is what deleting the other side leaves, and it then applies
    # and undoes like any Embedding; e itself is left as it was
    graphs = small_corpus[:30] + [two_wheels(), gadgets.star(5), wheel_with_tail()]
    parts = 0
    for g in graphs:
        e = Embedding(g)
        before = state(e)
        for v in sorted(e.cuts):
            first, rest = gadgets.split_sides(e, v)
            for side, other in ((first, rest), (rest, first)):
                part = e.part(side | {v})
                assert state(e) == before
                kept = Embedding(g)
                kept.apply(delete_vertices=other)
                assert (part.snapshot(), set(part.rot)) == (kept.snapshot(), set(kept.rot))
                assert (part.m, part.bydeg, part.cuts) == (kept.m, kept.bydeg, kept.cuts)
                assert sorted(part.fdeg.values()) == sorted(kept.fdeg.values())
                check_against_scratch(part)
                built = state(part)
                x = max(side)
                try:
                    part.apply(delete_vertices=[x])
                except SurgeryDisconnects:
                    with pytest.raises(SurgeryDisconnects):
                        kept.apply(delete_vertices=[x])
                else:
                    kept.apply(delete_vertices=[x])
                    assert (part.snapshot(), set(part.rot)) == (kept.snapshot(), set(kept.rot))
                    check_against_scratch(part)
                    part.undo()
                assert state(part) == built
                parts += 1
    assert parts > 60


def test_a_fresh_embedding_and_its_parts_equal_a_recount(small_corpus):
    # an Embedding and a part build their degree buckets and cut flags in
    # one pass, with no apply: each must equal what the scratch check
    # derives, and so must the degrees the later refreshes compare against
    graphs = small_corpus[:30] + [gen_flip(80, 101000), gen_flip(120, 101001)]
    graphs += [two_wheels(), wheel_with_tail()]
    built = parts = 0
    for g in graphs:
        e = Embedding(g)
        sides = [e.rot.keys() - {max(e.rot)}] if max(e.rot) not in e.cuts else []
        for v in sorted(e.cuts):
            sides += [side | {v} for side in gadgets.split_sides(e, v)]
        for p in [e] + [e.part(side) for side in sides]:
            check_against_scratch(p)
            assert p._deg == {v: len(r) for v, r in p.rot.items()}
            built += 1
        parts += len(sides)
    assert parts > 60 and built == parts + len(graphs)


@pytest.mark.parametrize(
    "side, error",
    [
        ({2, 8, 11}, UnknownVertex),
        ({2, 8, True}, UnknownVertex),
        ([[2]], UnknownVertex),
        (5, UnknownVertex),
        ({2, 9, 10}, SurgeryDisconnects),  # the path 2-8-9-10 without 8
        ({3, 5}, SurgeryDisconnects),  # two rim vertices apart
    ],
)
def test_a_part_refuses_an_unknown_id_and_a_disconnected_side(side, error):
    e = Embedding(wheel_with_tail())
    before = state(e)
    with pytest.raises(error):
        e.part(side)
    assert state(e) == before


def test_every_step_of_a_corpus_slice(small_corpus, checked_applies):
    # the first 6 graphs with n <= 70 after small_corpus[:12], which
    # test_audit_in_place colors, and four gadgets; each split colors its
    # smaller side as a part with a ledger of its own
    graphs = [g for g in small_corpus[12:] if g.n <= 70][:6]
    graphs += [gadgets.two_triangles(), two_wheels(), gadgets.g_L2_11(), gadgets.g_L2_7_1()]
    hooked = sum(map(audited_in_place, graphs), Counter())
    assert checked_applies["split"] == hooked["parts"]
    covered(checked_applies)


def test_every_step_of_flip_graphs(checked_applies):
    # the four flip graphs of size 80 of the engine golden; they fire
    # L2.4-L2.8, whose added edges split faces
    graphs = [gen_flip(FLIP_SIZES[0], seed) for seed in FLIP_SEEDS]
    assert sum(map(audited_in_place, graphs), Counter())["parts"] == 0
    covered(checked_applies, splits=False)  # no flip graph has a cut vertex


def test_a_run_holds_no_undo_history(small_corpus):
    # at every hook call, each Embedding of the run holds at most one frame:
    # none when the hook first sees it, as nothing has been applied to it
    # yet, and afterwards that of the last reduction, every earlier one
    # made final by the next
    graphs = [g for g in small_corpus if g.n <= 120][:10]
    graphs += [gen_flip(80, seed) for seed in (101000, 101001)]
    seen, calls, expected = {}, [], []

    def hook(e, outcome):
        expected.append(int(id(e) in seen))
        seen[id(e)] = e  # held, so no id is reused
        calls.append(gadgets.in_force(e))

    for g in graphs:
        assert verify_coloring(g, color(g, trace=RunTrace(graph_hook=hook))).valid
    assert len(calls) > 200 and calls == expected and len(seen) > len(graphs)


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 40), st.integers(0, 10**6), st.data())
def test_deleting_any_vertices_and_edges_then_undoing(n, seed, data):
    # several neighbors of one survivor may go at once, adjacent in its
    # rotation or not, wrapping round its end or not
    g = gen_planar(n, seed=seed)
    dels = data.draw(st.sets(st.sampled_from(range(1, n + 1)), max_size=n // 3))
    edges = data.draw(st.sets(st.sampled_from(list(g.edges())), max_size=3))
    e = Embedding(g)
    before = state(e)
    try:
        e.apply(delete_vertices=dels, delete_edges=edges)
    except SurgeryDisconnects:
        assert state(e) == before
        return
    check_against_scratch(e)
    e.undo()
    assert state(e) == before


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 40), st.integers(0, 10**6), st.data())
def test_deleting_and_linking_any_then_undoing(n, seed, data):
    # the links join two vertices of one face of what the deletions leave:
    # a face they left alone or one born of them, and after an earlier link
    # the face it shrank or the one it split off.  A link can clear a cut
    # flag, and a face born can set one
    g = gen_planar(n, seed=seed)
    dels = data.draw(st.sets(st.sampled_from(range(1, n + 1)), max_size=n // 4))
    edges = data.draw(st.sets(st.sampled_from(list(g.edges())), max_size=3))
    probe = Embedding(g)
    try:
        probe.apply(delete_vertices=dels, delete_edges=edges)
    except SurgeryDisconnects:
        return
    darts = {f: (x, y) for x, fx in probe.face.items() for y, f in fx.items()}
    walks = [{x for x, _ in probe.walk(d)} for d in darts.values()]
    pairs = sorted({(a, b) for walk in walks for a in walk for b in walk if a < b})
    if not pairs:
        return
    links = tuple(data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4)))
    e = Embedding(g)
    before = state(e)
    try:
        e.apply(delete_vertices=dels, delete_edges=edges, add_edges=links)
    except SurgeryNotPlanar:  # an earlier link parted the ends of a later one
        assert state(e) == before
        return
    check_against_scratch(e)
    e.undo()
    assert state(e) == before
    check_against_scratch(e)


@pytest.mark.parametrize(
    "build, cuts_before, cuts_after",
    [(gadgets.cut_by_a_deletion, set(), {3}), (gadgets.uncut_by_a_link, {1}, set())],
)
def test_an_apply_moves_a_cut_flag(build, cuts_before, cuts_after):
    g, kwargs = build()
    e = Embedding(g)
    assert e.cuts == cuts_before
    e.apply(**kwargs)
    assert e.cuts == cuts_after
    check_against_scratch(e)
    e.undo()
    assert e.cuts == cuts_before


def readings(e):
    """What the catalog (its first hit and each rule alone), the square, the
    classes, the greedy coloring and the whole state of a fresh live ledger
    read off e."""
    return (
        find_reduction(e),
        [match_case(tag, e) for tag, _ in MATCHER_ORDER],
        square(e),
        classify_all(e),
        greedy_square(e),
        vars(LiveCharges(e)),
    )


def test_no_reading_depends_on_the_key_order_an_undo_leaves(small_corpus):
    # undo restores every dict's contents but not its key order: a deleted
    # key comes back last.  Deleting each vertex that is no cut vertex and
    # undoing it, from the highest id down, leaves those ids in descending
    # order, and every reading of the graph must be as on a fresh Embedding
    reordered = 0
    for g in small_corpus[:10]:
        e = Embedding(g)
        for v in sorted(e.rot.keys() - e.cuts, reverse=True):
            e.apply(delete_vertices=[v])
            e.undo()
        fresh = Embedding(g)
        assert state(e) == state(fresh)
        reordered += list(e.rot) != list(fresh.rot)
        assert readings(e) == readings(fresh)
    assert reordered == 10


def test_shrinking_to_one_vertex_and_back():
    g = gadgets.wheel(6)
    e = Embedding(g)
    before = state(e)
    e.apply(delete_vertices=range(2, 8))
    assert (e.n, e.m, e.fdeg, e.cuts) == (1, 0, {}, set())
    e.undo()
    assert state(e) == before


@pytest.mark.parametrize("n, deletions", [(2, [1]), (3, [1, 3])])
def test_a_lone_survivor_leaves_its_degree_bucket(n, deletions):
    # each deletion goes dart by dart; the last leaves vertex 2 with no
    # neighbor and so no face to walk, and its bucket must still move to 0
    # (undone right after, and applied again)
    e = Embedding(gadgets.path(n))
    for v in deletions:
        before = state(e)
        e.apply(delete_vertices=[v])
        check_against_scratch(e)
        after = state(e)
        e.undo()
        assert state(e)[:-1] == before[:-1] and gadgets.in_force(e) == 0
        e.apply(delete_vertices=[v])
        assert state(e) == after
    assert e.bydeg == {0: [2]} and e.max_degree() == 0


def test_keeping_the_smaller_side_then_adding_an_edge():
    # six of the eleven vertices go, more than survive, dart by dart like
    # any deletion; rim vertices 3 and 4 lose no neighbor, and the added
    # edge 3-5 and the face it splits change both
    e = Embedding(gadgets.wheel(10))
    before = state(e)
    e.apply(delete_vertices=range(6, 12), add_edges=[(3, 5)])
    assert 5 in e.rot[3] and (e.n, e.m) == (5, 8)
    check_against_scratch(e)
    e.undo()
    assert state(e) == before
    check_against_scratch(e)


FAILED_APPLIES = pytest.mark.parametrize("build, kwargs, error", gadgets.FAILED_APPLIES)


def check_a_failed_apply(e, kwargs, error):
    # with a ledger attached, which never follows the failed apply
    e.charges = LiveCharges(e)
    before = state(e), ledger(e)
    with pytest.raises(error):
        e.apply(**kwargs)
    assert (state(e), ledger(e)) == before
    check_against_scratch(e)
    agrees_with_audit(e)


@FAILED_APPLIES
def test_failed_apply_changes_nothing(build, kwargs, error):
    check_a_failed_apply(Embedding(build()), kwargs, error)


@FAILED_APPLIES
def test_failed_apply_after_a_commit_changes_nothing(build, kwargs, error):
    # the gadget's last apply made the one before it final; the rollback
    # needs nothing of that history, and leaves the last in force
    check_a_failed_apply(gadgets.embedding_with_an_apply_in_force(build()), kwargs, error)


def test_a_failed_apply_leaves_the_apply_before_it_in_force():
    # the failed apply reverts only itself: the ledger never followed it, so
    # it is kept as it is, and one undo still takes the deletion back
    g = gadgets.cube()
    e = Embedding(g)
    e.charges = LiveCharges(e)
    e.apply(delete_edges=[(1, 2)])  # 1 and 7 still share no face
    before, charges = state(e), e.charges
    with pytest.raises(SurgeryNotPlanar):
        e.apply(add_edges=[(1, 7)])
    assert state(e) == before and e.charges is charges
    e.undo()
    assert e.snapshot() == g and state(e) == state(Embedding(g))


# each refused input with the message it is refused with; the tuple-shaped
# ones are the catalog's shape, which apply checks by a shorter path that
# must refuse alike
REFUSALS = [
    (dict(delete_vertices=[True]), "vertex True not in the graph"),
    (dict(delete_vertices=[2, 1.0]), "vertex 1.0 not in the graph"),
    (dict(add_edges=[(True, 3)]), "vertex True not in the graph"),
    (dict(add_edges=[(3, 1.0)]), "vertex 1.0 not in the graph"),
    (dict(delete_edges=[(True, 2)]), "vertex True not in the graph"),
    (dict(delete_edges=[("a", 1)]), "vertex a not in the graph"),
    (dict(delete_edges=[(1,)]), "[(1,)] is not a collection of vertex id pairs"),
    (dict(add_edges=[(1,)]), "[(1,)] is not a collection of vertex id pairs"),
    (dict(delete_vertices=[[1]]), "[[1]] is not a set of vertex ids"),
    (dict(delete_vertices=5), "5 is not a set of vertex ids"),
    (dict(delete_edges=5), "5 is not a collection of vertex id pairs"),
    (dict(add_edges=5), "5 is not a collection of vertex id pairs"),
    (dict(delete_vertices=0), "0 is not a set of vertex ids"),
    (dict(delete_edges=0), "0 is not a collection of vertex id pairs"),
    (dict(add_edges=0), "0 is not a collection of vertex id pairs"),
    (dict(delete_vertices=None), "None is not a set of vertex ids"),
    (dict(delete_edges=None), "None is not a collection of vertex id pairs"),
    (dict(add_edges=None), "None is not a collection of vertex id pairs"),
] + [
    ({key: edges}, message)
    for key in ("add_edges", "delete_edges")
    for edges, message in [
        (((True, 3),), "vertex True not in the graph"),
        (((3, 1.0),), "vertex 1.0 not in the graph"),
        (((1,),), "((1,),) is not a collection of vertex id pairs"),
        (((1, 2, 3),), "((1, 2, 3),) is not a collection of vertex id pairs"),
        ((([1], 2),), "[[1], 2] is not a set of vertex ids"),
        (((1, 99),), "vertex 99 not in the graph"),
    ]
] + [
    # a tuple whose bad element follows a good one: the pair-by-pair and
    # id-by-id tests stop there, and the general path reports it
    (dict(delete_edges=((1, 2), (2, 99))), "vertex 99 not in the graph"),
    (dict(add_edges=((1, 3), (99, 3))), "vertex 99 not in the graph"),
    (dict(add_edges=((1, 3), (3, 1.0, 4))), "((1, 3), (3, 1.0, 4)) is not a collection of vertex id pairs"),
    (dict(add_edges=((1, 3), (4,))), "((1, 3), (4,)) is not a collection of vertex id pairs"),
    (dict(delete_edges=((1, 2), (4,))), "((1, 2), (4,)) is not a collection of vertex id pairs"),
    (dict(delete_vertices=(2, True)), "vertex True not in the graph"),
    (dict(delete_vertices=(2, 99)), "vertex 99 not in the graph"),
    (dict(delete_vertices=(2, 1.0)), "vertex 1.0 not in the graph"),
] + [
    # the hub's id 1 named alongside True or 1.0: a set of the ids would
    # merge the two, so the ids are tested one by one, in the order given
    (dict(add_edges=((1, 5), (3, True))), "vertex True not in the graph"),
    (dict(add_edges=[(1, 5), (3, 1.0)]), "vertex 1.0 not in the graph"),
    (dict(delete_edges=[(1, 2), (True, 3)]), "vertex True not in the graph"),
    (dict(delete_vertices=[1, 1.0]), "vertex 1.0 not in the graph"),
    (dict(delete_vertices=(1, True)), "vertex True not in the graph"),
    (dict(delete_vertices=[99, True]), "vertex 99 not in the graph"),
    (dict(delete_vertices=[True, 99]), "vertex True not in the graph"),
]


@pytest.mark.parametrize(
    "kwargs, message", REFUSALS, ids=[f"kwargs{i}" for i in range(len(REFUSALS))]
)
def test_an_id_that_is_not_an_int_is_refused(kwargs, message):
    # True and 1.0 equal the hub's id 1, so a membership test alone lets
    # them through: a deletion would take the hub, and an added edge to
    # rim vertex 3 would be skipped as already there; an edge that is not
    # a pair of ids, and vertices or edges that are not a collection of
    # them, are refused the same way, before any comparison.  0 and None
    # are false like the empty default, so a shortcut for empty input that
    # tests truth would take them for "nothing to do"
    e = Embedding(gadgets.wheel(6))
    before = state(e)
    with pytest.raises(UnknownVertex) as refused:
        e.apply(**kwargs)
    assert str(refused.value) == message
    assert state(e) == before


def test_a_list_pair_after_a_tuple_pair_is_accepted_as_the_tuple():
    # the tuple-of-tuples shortcut stops at the list; the general path takes
    # the same edges and leaves the same state
    listed, tupled = Embedding(gadgets.wheel(6)), Embedding(gadgets.wheel(6))
    listed.apply(add_edges=((1, 3), [4, 5]))
    tupled.apply(add_edges=((1, 3), (4, 5)))
    assert state(listed) == state(tupled)


def test_a_reduction_that_does_not_shrink_is_rolled_back():
    e = Embedding(gen_planar(12, min_delta=6, seed=1))
    before = state(e)
    with pytest.raises(InvariantViolated):
        reduce_in_place(e, Reduction("L2.2", None, 1, (), (), (), (), 0))
    assert state(e) == before


def test_a_successful_apply_makes_the_one_before_it_final():
    e = Embedding(gadgets.wheel(8))
    fresh = state(e)
    e.apply(delete_vertices=[3])
    first = state(e)
    e.apply(delete_edges=[(1, 6)], add_edges=[(2, 4)])
    assert gadgets.in_force(e) == 1
    e.undo()
    undone = state(e)
    assert undone[:-1] == first[:-1] and gadgets.in_force(e) == 0  # all but the frame
    check_against_scratch(e)
    # the deletion of 3 is final: a second undo finds nothing in force
    with pytest.raises(NoApplyInForce):
        e.undo()
    assert state(e) == undone and undone[:-1] != fresh[:-1]
    # a later apply still undoes
    e.apply(delete_vertices=[5])
    e.undo()
    assert state(e) == undone


def test_undo_with_no_apply_in_force_is_refused_under_python_O():
    # the guard must not be an assert: with asserts stripped, undo on a
    # fresh Embedding and after an undo must still raise the typed error
    code = (
        "from twodist import gen_planar\n"
        "from twodist.errors import NoApplyInForce\n"
        "from twodist.planar import Embedding\n"
        "e = Embedding(gen_planar(12, 6, 1))\n"
        "for step in ('fresh', 'undone'):\n"
        "    try:\n"
        "        e.undo()\n"
        "    except NoApplyInForce as exc:\n"
        "        print(step, 'refused:', exc)\n"
        "    e.apply(delete_vertices=[max(e.rot)])\n"
        "    e.undo()\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert [line.split(" refused:")[0] for line in out] == ["fresh", "undone"]
