"""Each catalog row checked on its own data, with no graph.

A ``RULES`` row deletes its centre and draws chords among the labels
v1..vk of the centre's neighbors.  Every two labels were within distance 2
through the centre, so every two must stay so without it.  The row alone
shows that when they are joined by a 3-corner or a chord, border one
4-corner (whose far vertex they share), or share a labelled neighbor.
That must hold for every row, every anchor, and every chord set that the
anchor's hook can return, under every sizing of the corners (3, 4 or 5+)
that fits the anchor's pattern and the row's shape.  Mutants built from
copies of the rows, with one chord dropped, must fail the same check.
"""

import dataclasses
from itertools import combinations, product
from types import SimpleNamespace

from twodist.reductions import RULES


def hook_chords(hook, k):
    """Every chord set a hook returns for k labels, over every degree of
    each label up to a maximum degree of 6, 7 or 8."""
    found = set()
    for delta in (6, 7, 8):
        for degrees in product(range(3, delta + 1), repeat=k):
            ctx = SimpleNamespace(delta=delta, e=SimpleNamespace(degree=degrees.__getitem__))
            picked = hook(ctx, list(range(k)))
            if picked is not None:
                found.add(picked[1])
    return sorted(found)


def anchors_and_chords(rule):
    """(pattern, chords) for each anchor of the row and each chord set it
    draws: its own, or each one its hook can return."""
    k = rule.shape[0]
    for _, pattern, chords in rule.anchors:
        for drawn in hook_chords(chords, k) if callable(chords) else [chords]:
            yield pattern, drawn


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


def without(rule, chord):
    """A copy of the row with chord dropped from every anchor."""
    anchors = tuple(
        (case, pattern, tuple(c for c in chords if c != chord))
        for case, pattern, chords in rule.anchors
    )
    return dataclasses.replace(rule, anchors=anchors)


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
