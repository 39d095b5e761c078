"""Each catalog row checked on its own data, with no graph.

A ``RULES`` row deletes its centre and draws chords among the labels
v1..vk of the centre's neighbors.  Every two labels were within distance 2
through the centre, so every two must stay so without it.  The row alone
shows that when they are joined by a 3-corner or a chord, border one
4-corner (whose far vertex they share), or share a labelled neighbor.
That must hold for every row, every anchor, and every chord set that one
of the anchor's picks draws, under every sizing of the corners (3, 4 or 5+)
that fits the anchor's pattern and the row's shape.  Mutants built from
copies of the rows, with one chord dropped, must fail the same check.  The
hand-written scans (L2.2, L2.3.1, L2.11) draw their chords from fixed
templates, which are held to the same check.

A label loses its edge to the centre and gains each chord it ends, so a
label that ends two or more chords must sit below the maximum degree for
the maximum not to grow: every row must make sure of that from the label
degrees its test admits.

The colors forbidden at the centre are at most its other vertices within
distance 2.  The sum of the label degrees counts each label once, by its
edge to the centre, and every other such vertex at least once; it counts
the edge of each 3-corner twice, once from each end, and the far vertex
of each 4-corner twice.  So the sum less 2 * t3 + t4 bounds them, and
that count is pinned per row for every Delta up to 30, rows over their
bound included.  Each degree test loosened by one must change it.

A ring edge between two labels with a 3-face beyond it takes one more off:
the face's third vertex is counted in both labels' degrees.  A
(6,6)-label puts both its ring edges there, and a non-special centre at
least one edge.  The count less those edges is pinned too; it leaves one
row over its bound.  That argument is also checked at every vertex of some
intermediate graphs of the engine, the one test here on graphs.
"""

import dataclasses
from collections import Counter
from itertools import chain, combinations, combinations_with_replacement, product

from claims import without
from twodist import RunTrace, color, gen_planar
from twodist.classify import is_special_vertex
from twodist.planar import distance_profile
from twodist.reductions import RULES
from workloads import gen_flip


def drawn(picks, delta, degrees):
    """The chords that the first of the picks passing for labels 0..k-1 of
    these degrees draws, or None when none passes."""
    for _, label, headroom, chords in picks:
        if label is None or degrees[label] <= headroom[0] * delta + headroom[1]:
            return chords
    return None


def anchors_and_chords(rule):
    """(pattern, chords) for each anchor of the row and each of its picks."""
    for pattern, picks in rule.anchors:
        for *_, chords in picks:
            yield pattern, chords


def corner_sizes(rule, pattern):
    """Each sizing of the centre's corners (5 for 5+) in label order,
    corner j lying between labels j and j + 1, that fits the pattern and
    the row's shape."""
    k, t3, t4 = rule.shape
    for corners in product((3, 4, 5), repeat=k):
        if (
            all(want in (None, size) for want, size in zip(pattern, corners))
            and t3 in (None, corners.count(3))
            and t4 in (None, corners.count(4))
        ):
            yield corners


def far_pairs(corners, chords):
    """The pairs of labels that nothing the row fixes keeps within distance
    2 once the centre is gone."""
    k = len(corners)
    near = {i: set() for i in range(k)}
    far_vertex = set()  # the label pairs that border one 4-corner
    for j, size in enumerate(corners):
        pair = (j, (j + 1) % k)
        if size == 3:
            chords = (*chords, pair)
        elif size == 4:
            far_vertex.add(frozenset(pair))
    for i, j in chords:
        near[i].add(j)
        near[j].add(i)
    return [
        (i, j) for i, j in combinations(range(k), 2)
        if j not in near[i] and frozenset((i, j)) not in far_vertex and not near[i] & near[j]
    ]


def failures(rules):
    """The (tag, chords) of each combination of rules that some sizing of
    the corners leaves with two labels far apart, and the count of
    combinations checked."""
    failed, checked = [], 0
    for rule in rules:
        for pattern, chords in anchors_and_chords(rule):
            checked += 1
            sizings = list(corner_sizes(rule, pattern))
            assert sizings, (rule.tag, pattern)
            if any(far_pairs(corners, chords) for corners in sizings):
                failed.append((rule.tag, chords))
    return failed, checked


def test_every_row_keeps_its_labels_within_distance_two():
    assert failures(RULES) == ([], 35)


def test_a_row_without_a_chord_it_needs_fails():
    # L2.3.2 without its chord: when neither open corner is a 3-face and
    # one is a 5+-face, two labels lose each other
    rules = [without(rule, (0, 2)) if rule.tag == "L2.3.2" else rule for rule in RULES]
    assert failures(rules) == ([("L2.3.2", ())], 35)
    # the (5,4) rows without the chord across their open corner: v1 and v4
    # share no neighbor once the centre is gone
    five_four = [rule.tag for rule in RULES if rule.shape[:2] == (5, 4)]
    rules = [without(rule, (0, 4)) if rule.tag in five_four else rule for rule in RULES]
    assert len(five_four) == 7
    assert failures(rules) == ([(tag, ()) for tag in five_four], 35)


def test_the_hand_written_chord_templates_keep_their_labels_within_distance_two():
    # L2.2 at degree 2: the one chord joins the two labels
    assert not any(far_pairs(corners, ((0, 1),)) for corners in product((3, 4, 5), repeat=2))
    # L2.3.1: a chord from v2, whichever label it is, to each of the other two
    for v2 in range(3):
        chords = tuple((v2, u) for u in range(3) if u != v2)
        assert not any(far_pairs(corners, chords) for corners in product((3, 4, 5), repeat=3))
    # L2.11.case2: five 3-corners and the big one between v6 and v1, in
    # either reading; v4 fans to v1, v2 and v6
    for x in (4, 5):
        assert far_pairs((3, 3, 3, 3, 3, x), ((0, 3), (1, 3), (3, 5))) == []


def within_two(edges):
    """The pairs of vertices at distance 1 or 2 in the graph of edges."""
    nbrs = {}
    for a, b in edges:
        nbrs.setdefault(a, set()).add(b)
        nbrs.setdefault(b, set()).add(a)
    pairs = set()
    for a, near in nbrs.items():
        for b in near.union(*map(nbrs.get, near)) - {a}:
            pairs.add(frozenset((a, b)))
    return pairs


def test_l2_11_case1_separates_only_pairs_holding_a_pending_vertex():
    # with Delta = 6 only the spoke from the centre c to v4 (label 3) goes,
    # and both ends are colored again.  Drawn from the corners alone, each
    # 4-corner with a far vertex and each 5-corner with two, the one pair
    # the deletion takes out of distance 2 is v1 and v4
    for x in (4, 5):
        edges = {("c", j) for j in range(6)}
        edges |= {(j, j + 1) for j in range(5)}  # five 3-corners
        edges |= {(5, "f"), ("f", 0)} if x == 4 else {(5, "f"), ("f", "g"), ("g", 0)}
        separated = within_two(edges) - within_two(edges - {("c", 3)})
        assert separated == {frozenset((0, 3))}
        assert all(pair & {"c", 3} for pair in separated)


def over_budget(rules):
    """(tag, delta, degrees, chords) for each anchor of each row and each
    assignment of label degrees 3..Delta, Delta = 6, 7 or 8, that the row
    admits, where the chords drawn leave a label that ends two or more of
    them at degree Delta; and the count of those checked."""
    found, checked = [], 0
    for rule in rules:
        k = rule.shape[0]
        for _, picks in rule.anchors:
            for delta in (6, 7, 8):
                for degrees in product(range(3, delta + 1), repeat=k):
                    if not rule.admits(degrees):
                        continue
                    chords = drawn(picks, delta, degrees)
                    if chords is None:
                        continue  # the row declines
                    checked += 1
                    ends = Counter(chain.from_iterable(chords))
                    if any(n > 1 and degrees[i] > delta - 1 for i, n in ends.items()):
                        found.append((rule.tag, delta, degrees, chords))
    return found, checked


def test_a_label_that_ends_two_chords_sits_below_the_maximum_degree():
    found, checked = over_budget(RULES)
    assert found == [] and checked == 115860
    # the fan centre's headroom read as Delta lets a label at Delta gain a net edge
    rules = [
        dataclasses.replace(rule, anchors=tuple(
            (pattern, tuple((case, label, (1, 0), chords) for case, label, _, chords in picks))
            for pattern, picks in rule.anchors
        ))
        if rule.tag == "L2.7.1" else rule
        for rule in RULES
    ]
    found, _ = over_budget(rules)
    assert found and {tag for tag, *_ in found} == {"L2.7.1"}


def least_shared(rule):
    """The least 2 * t3 + t4 over every anchor's corner sizings."""
    return min(
        2 * corners.count(3) + corners.count(4)
        for pattern, _ in rule.anchors
        for corners in corner_sizes(rule, pattern)
    )


def over_bound(rules, deltas=range(6, 31), shared=least_shared):
    """{tag: {delta: excess}} for each row whose count at a maximum degree
    delta exceeds its bound: the largest sum over the sorted label degrees
    in 3..delta that the row admits and that hold at least ``six_six``
    sixes, less ``shared(rule)``, by default the least 2 * t3 + t4 over
    every anchor's corner sizings."""
    found = {}
    for rule in rules:
        least = shared(rule)
        best = {}  # the largest admitted sum by the largest degree in it
        for degrees in combinations_with_replacement(range(3, max(deltas) + 1), rule.shape[0]):
            if not rule.admits(degrees):
                continue
            if degrees.count(6) >= rule.six_six:
                best[degrees[-1]] = max(best.get(degrees[-1], 0), sum(degrees))
        a, b = rule.bound
        for delta in deltas:
            admitted = [s for top, s in best.items() if top <= delta]
            if admitted and max(admitted) - least > a * delta + b:
                found.setdefault(rule.tag, {})[delta] = max(admitted) - least - a * delta - b
    return found


def test_each_rows_count_against_its_bound():
    # the rows over their bound, for the sweep of the paper's cases; every
    # other row, at every Delta, is within its bound
    every, from_7 = range(6, 31), range(7, 31)
    assert over_bound(RULES) == {
        "L2.6.2": dict.fromkeys(every, 1),
        "L2.6.5": dict.fromkeys(from_7, 1),
        "L2.8.2": dict.fromkeys(from_7, 1),
        "L2.8.3": dict.fromkeys(every, 1),
        "L2.9.2": dict.fromkeys(every, 1),
        "L2.9.3": dict.fromkeys(every, 2),
        "L2.10.1": {6: 1},
        "L2.10.2": {7: 1},
        "L2.10.3": dict.fromkeys(every, 4),
        "L2.10.4": {6: 2, 7: 1},
    }
    # L2.4 admits a smallest label degree up to 9 and meets 3 Delta + 1
    # from Delta = 9 on; admitting 10 goes over wherever it can occur
    loose = [dataclasses.replace(r, degrees=((1, 10, 1),)) for r in RULES if r.tag == "L2.4"]
    assert over_bound(loose) == {"L2.4": dict.fromkeys(range(10, 31), 1)}


def beyond(rule, corners):
    """The least t that the row forces under this sizing of the corners, or
    None when its (6,6)-labels fit nowhere.  t counts the ring edges with a
    3-face beyond them: a (6,6)-label sits between two 3-corners and puts
    both its ring edges in, and a non-special centre has at least one."""
    k = len(corners)
    seats = [j for j in range(k) if corners[j - 1] == 3 == corners[j]]
    ts = [
        len({(j - 1) % k for j in placed} | set(placed))  # corner j is ring edge j, j + 1
        for placed in combinations(seats, rule.six_six)
    ]
    return max(min(ts), int(rule.nonspecial)) if ts else None


def least_shared_and_beyond(rule):
    """The least 2 * t3 + t4 + t over every anchor's corner sizings and
    every placement of the row's (6,6)-labels."""
    return min(
        2 * corners.count(3) + corners.count(4) + t
        for pattern, _ in rule.anchors
        for corners in corner_sizes(rule, pattern)
        if (t := beyond(rule, corners)) is not None
    )


def test_each_rows_count_less_the_3_faces_beyond_its_ring():
    # the 3-face beyond a ring edge ab has a third vertex in the degrees of
    # both a and b, so each such edge takes one more off the count; nine of
    # the ten rows over their bound come within it, and L2.10.1 at Delta =
    # 6, a special centre with no such edge, stays over
    assert over_bound(RULES, shared=least_shared_and_beyond) == {"L2.10.1": {6: 1}}


def test_no_vertex_exceeds_its_count_less_the_3_faces_beyond_its_ring():
    # the argument behind both counts, at every vertex of every intermediate
    # graph with Delta >= 6 of some colorings: |N2(v)| is at most the sum of
    # its neighbors' degrees less 2 * t3 + t4 + t, with t as in ``beyond``
    seen = Counter()

    def check(e, outcome):
        if e.max_degree() < 6:
            return
        for v, rot in e.rot.items():
            cd = e.corner_degrees(v)
            ring = [(a, b) for a, b, d in zip(rot, rot[1:] + rot[:1], cd) if d == 3]
            t = sum(1 for a, b in ring if e.face_degree(a, b) == 3 == e.face_degree(b, a))
            if not is_special_vertex(e, v):
                t = max(t, 1)
            count = sum(map(len, map(e.rot.__getitem__, rot))) - 2 * cd.count(3) - cd.count(4) - t
            near = len(distance_profile(e, v))
            assert near <= count, (v, near, count)
            seen[near == count] += 1

    for s in range(1, 11):
        color(gen_planar(30 + 3 * s, 6, s), trace=RunTrace(graph_hook=check))
    for s in (1, 2):
        color(gen_flip(60 + 10 * s, s), trace=RunTrace(graph_hook=check))
    assert seen[True] and seen[False]  # the count is met, and not everywhere


def loosened(rule):
    """Each copy of the row with one degree test loosened by one: a range
    one wider at the top, a count one lower, or one (6,6)-neighbor fewer."""
    for i, (lo, hi, n) in enumerate(rule.degrees):
        for test in ((lo, hi + 1, n), (lo, hi, n - 1)):
            degrees = (*rule.degrees[:i], test, *rule.degrees[i + 1:])
            yield dataclasses.replace(rule, degrees=degrees)
    if rule.six_six:
        yield dataclasses.replace(rule, six_six=rule.six_six - 1)


def test_every_loosened_degree_test_changes_its_rows_count():
    deltas = range(6, 13)
    counts = over_bound(RULES, deltas)
    mutants = [mutant for rule in RULES for mutant in loosened(rule)]
    assert len(mutants) == 49
    for mutant in mutants:
        assert over_bound([mutant], deltas).get(mutant.tag) != counts.get(mutant.tag), mutant
    # two by name: L2.8.3 with one 6-neighbor goes over by Delta - 5, and
    # L2.6.1 admitting a smallest degree of 6 by 1
    mutant = {(m.tag, m.degrees): m for m in mutants}
    assert over_bound([mutant["L2.8.3", ((6, 6, 1),)]], deltas) == {
        "L2.8.3": {delta: delta - 5 for delta in deltas}
    }
    assert over_bound([mutant["L2.6.1", ((1, 6, 1),)]], deltas) == {
        "L2.6.1": dict.fromkeys(deltas, 1)
    }
    # L2.4 admitting a smallest degree up to 20 goes over from Delta = 10
    loose = [dataclasses.replace(r, degrees=((1, 20, 1),)) for r in RULES if r.tag == "L2.4"]
    assert over_bound(loose) == {"L2.4": {delta: min(delta - 9, 11) for delta in range(10, 31)}}


def leaves(value):
    """Every value inside nested tuples."""
    if isinstance(value, tuple):
        for item in value:
            yield from leaves(item)
    else:
        yield value


def test_no_row_holds_code():
    for rule in RULES:
        for f in dataclasses.fields(rule):
            assert not any(map(callable, leaves(getattr(rule, f.name)))), (rule.tag, f.name)
