"""The catalog in shuffled orders: every row meets the claim checks.

The proof lets any reducible configuration be peeled; the engine's
first-match order is a choice made for speed.  So a run in any order must
still give a valid coloring within 3 Delta + 2, with no catalog gap at
Delta >= 6, every step proper and every pending vertex within its bound:
a metamorphic relation (Chen et al., "Metamorphic testing: a review of
challenges and opportunities", ACM Computing Surveys 51, 2018).  It also
fires the rows that first-match order shadows, all 26 on the plain and
flip generators.

L2.1 stays first: out of order, a row can match at a cut vertex, where its
surgery would disconnect the graph.  The other 25 entries of
``MATCHER_ORDER`` are shuffled by ``random.Random(p)`` for p = 0..3, and
``find_reduction`` reads the order at call time.
"""

import random
from collections import Counter

import pytest

from twodist import RunTrace, color, gen_planar, reductions, verify_coloring
from twodist.reductions import MATCHER_ORDER, RULES
from claims import walk, without
from workloads import gen_flip


def shuffled(p):
    """``MATCHER_ORDER`` with L2.1 first and the rest shuffled by seed p."""
    rest = list(MATCHER_ORDER[1:])
    random.Random(p).shuffle(rest)
    return (MATCHER_ORDER[0], *rest)


ORDERS = [shuffled(p) for p in range(4)]


@pytest.fixture(scope="module")
def graphs():
    return [gen_planar(14 + 37 * s % 190, 6, s) for s in range(1, 41)] + [
        gen_flip(60 + 10 * s, s) for s in range(1, 9)
    ]


def colored(graphs):
    """Color each graph in the catalog order in force, asserting no gap at
    Delta >= 6 and forbidden <= near <= bound at every extension: the steps
    per lemma, and the number of colorings that are invalid."""
    fired, invalid = Counter(), 0
    for g in graphs:
        trace = RunTrace()
        c = color(g, trace=trace)
        assert c.budget == 3 * g.max_degree() + 2
        invalid += not verify_coloring(g, c).valid
        assert [gap for gap in trace.gaps if gap.delta >= 6] == []
        for _, _, forbidden, near, bound in trace.extensions:
            assert forbidden <= near <= bound
        fired.update(lemma for lemma, *_ in trace.steps)
    return fired, invalid


def test_every_order_colors_validly_and_fires_every_row(graphs, monkeypatch):
    fired = Counter()
    for order in ORDERS:
        monkeypatch.setattr(reductions, "MATCHER_ORDER", order)
        steps, invalid = colored(graphs)
        assert invalid == 0
        fired += steps
    assert fired == {
        "L2.1": 1699, "L2.2": 6934, "L2.3.1": 2065, "L2.3.2": 489, "L2.3.3": 501,
        "L2.4": 565, "L2.5.1": 1038, "L2.5.2": 1029, "L2.6.1": 770, "L2.6.2": 3,
        "L2.6.3": 466, "L2.6.4": 546, "L2.6.5": 2, "L2.7.1": 92, "L2.7.2": 239,
        "L2.8.1": 570, "L2.8.2": 41, "L2.8.3": 306, "L2.9.1": 371, "L2.9.2": 150,
        "L2.9.3": 14, "L2.10.1": 348, "L2.10.2": 77, "L2.10.3": 10, "L2.10.4": 17,
        "L2.11.case2": 6,
    }


def test_every_row_keeps_the_claims_of_its_steps(graphs, monkeypatch):
    # each graph walked in one order, graph i in order i mod 4, which walks
    # every row at least once
    fired = Counter()
    for i, g in enumerate(graphs):
        monkeypatch.setattr(reductions, "MATCHER_ORDER", ORDERS[i % 4])
        fired += walk([g])
    assert {lemma.partition(".case")[0] for lemma in fired} == {tag for tag, _ in MATCHER_ORDER}


def test_l2_3_2_without_its_chord_fails_a_claim_check(graphs, monkeypatch):
    # M4: the chord between the two labels that no 3-face joins is what keeps
    # them within distance 2; in first-match order no check here catches
    # its loss, in order 0 both the colorings and the step check do
    m4 = without(RULES[0], (0, 2))
    assert m4.tag == "L2.3.2"
    order = tuple((tag, m4.match if tag == m4.tag else fn) for tag, fn in ORDERS[0])
    monkeypatch.setattr(reductions, "MATCHER_ORDER", order)
    assert colored(graphs)[1] == 4
    with pytest.raises(AssertionError, match="check_properness"):
        walk(graphs)
