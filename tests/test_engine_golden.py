"""Golden gate for the graphs the colouring engine hands to its hook.

``RunTrace.graph_hook`` sees every intermediate graph of a run, as the
engine's live Embedding, together with the outcome of the catalog on it.
The hook renames both to dense ids: the graph through ``snapshot``, which
also validates it, and the outcome through ``gadgets.dense_ids``, the same
rename.  One sha256 over ``(graph.rotation, outcome)`` for
every hook call, in call order, pins the whole induction: which rule fired
where, the rotation order each surgery leaves behind, the face chosen for
every added edge, and the order in which split sides and base cases are
visited.  The flip graphs fire L2.4-L2.8, whose added edges exercise the
face tie-break.

A split colors the part holding the smallest other id first.  On the
corpus that part is always the larger, which stays on the engine's
Embedding while the smaller is copied out; a second digest, over the
colorings and steps of id-reversed graphs, pins the order in which the
copied part comes first.  A third pins whole runs at n = 1600 and 3200,
past every bench workload, where splits cut off more than a hub's leaves.
"""

import hashlib

import pytest

import gadgets
from conftest import FLIP_SEEDS, FLIP_SIZES
from twodist import RunTrace, color, colorer, gen_planar, write_coloring
from twodist.reductions import Reduction
from workloads import gen_flip

# recorded when a chord drawn into a face that visits its endpoint twice
# went to the visit where that endpoint lost the deleted centre, not the
# first visit: these graphs draw one such chord, and it moved
INTERMEDIATE_GRAPH_DIGEST = "afa04943e84cb5bfe8dcf9b853351ea3a02a91bbd4b38f37ba6731108e489811"
# recorded while a split still colored its second part on the engine's
# Embedding, after deleting the first side there
PART_FIRST_DIGEST = "427a63f9c0943fb9"
# recorded while a split still started a walk from the smallest other id
LARGE_RUN_DIGESTS = {
    1600: "7bd515e80846f786b4c26688f7463e37d1e587bb8670349af57f33580074620f",
    3200: "63a5efb15727f1a1decebddb03edc1875bca99a1eea1671ec352007e33f505f1",
}


def test_intermediate_graphs_match_recorded_digest(corpus):
    graphs = gadgets.hand_corpus() + corpus[:100]
    graphs += [gen_flip(n, seed) for n in FLIP_SIZES for seed in FLIP_SEEDS]
    digest = hashlib.sha256()

    def hook(e, outcome):
        outcome = _renamed(outcome, gadgets.dense_ids(e))
        digest.update(f"{e.snapshot().rotation!r} {outcome!r}\n".encode())

    for i, g in enumerate(graphs):
        digest.update(f"graph {i}\n".encode())
        color(g, trace=RunTrace(graph_hook=hook))
    assert digest.hexdigest() == INTERMEDIATE_GRAPH_DIGEST


def test_the_copied_part_first_matches_recorded_digest(monkeypatch):
    reduce_in_place = colorer.reduce_in_place
    part_first = []

    def counted(e, r):
        parts = reduce_in_place(e, r)
        part_first.append(parts[0] is not e)
        return parts

    monkeypatch.setattr(colorer, "reduce_in_place", counted)
    digest = hashlib.sha256()
    for s in range(40):
        g = gadgets.reversed_ids(gen_planar(40 + 5 * s, 6, s))
        trace = RunTrace()
        c = color(g, trace=trace)
        digest.update(write_coloring(c).encode())
        digest.update(repr(trace.steps).encode())
    assert sum(part_first) == 2
    assert digest.hexdigest()[:16] == PART_FIRST_DIGEST


@pytest.mark.parametrize("n", sorted(LARGE_RUN_DIGESTS))
def test_a_large_run_matches_recorded_digest(n):
    trace = RunTrace()
    c = color(gen_planar(n, 6, 3), trace=trace)
    digest = hashlib.sha256()
    digest.update(write_coloring(c).encode())
    digest.update(repr(trace.steps).encode())
    assert digest.hexdigest() == LARGE_RUN_DIGESTS[n]


def _renamed(outcome, old_to_new: dict[int, int]):
    """A reduction in the dense ids of a snapshot; gap reports carry none."""
    if not isinstance(outcome, Reduction):
        return outcome
    ids = old_to_new.__getitem__

    def edges(es):
        return tuple((ids(a), ids(b)) for a, b in es)

    return outcome._replace(
        vertex=ids(outcome.vertex),
        pending=tuple(map(ids, outcome.pending)),
        delete_vertices=tuple(map(ids, outcome.delete_vertices)),
        delete_edges=edges(outcome.delete_edges),
        add_edges=edges(outcome.add_edges),
        split=None if outcome.split is None else ids(outcome.split),
    )
