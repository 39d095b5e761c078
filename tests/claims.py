"""The reducibility claims, checked one catalog step at a time.

The paper claims four things of every step: it is proper, it shrinks the
graph, it keeps the maximum degree, and every vertex it leaves to color
again has at most its bound of vertices within distance 2.  ``check_step``
checks them for one step, and ``walk`` runs it over every step of the
reduction of some graphs, in place on one Embedding per graph, as the
engine and ``twodist reduce`` do.

``find_reduction`` reads ``reductions.MATCHER_ORDER`` at call time, so a
test walks in another catalog order by setting it with ``monkeypatch``.
"""

from collections import Counter

from twodist import DegreeBudgetExceeded, Reduction, check_properness, find_reduction
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
