"""The audit of the engine's live Embedding against the audit of its
snapshot.

``workbench.hunt`` audits every intermediate graph in place, on the
Embedding the engine hands to its graph hook; its vertices keep their ids
in the input graph and its faces are keyed by face id.  At every hook call
of a run, that audit must agree with the audit of the same graph as a
validated PlanarGraph (``e.snapshot()``, dense ids, faces keyed by their
canonical walks) on everything that does not depend on the names: the
total, each vertex's final charge (through the rename), the multiset of
final face charges, the number of negative elements, the amount each rule
moved and the number of transfers.
"""

import sys
from pathlib import Path

from twodist import RunTrace, audit, color, gen_planar, rule_totals

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))

from test_engine_golden import FLIP_SEEDS, FLIP_SIZES  # noqa: E402
from workloads import gen_flip  # noqa: E402


def audited_in_place(g):
    """Color g, comparing the two audits at every hook call; returns the
    number of calls."""
    calls = [0]

    def hook(e, outcome):
        if e.n < 2:
            return
        part = e.snapshot()
        live, ref = audit(e, cross_reference=False), audit(part.graph, cross_reference=False)
        rename = part.old_to_new
        assert live.total == ref.total == -8
        assert {
            rename[v]: c for v, c in live.final.vertex_units.items()
        } == ref.final.vertex_units
        assert sorted(live.final.face_units.values()) == sorted(ref.final.face_units.values())
        assert len(live.negative_units) == len(ref.negative_units)
        assert rule_totals(live.final.transfers) == rule_totals(ref.final.transfers)
        assert len(live.final.log) == len(ref.final.log)
        calls[0] += 1

    color(g, trace=RunTrace(graph_hook=hook))
    return calls[0]


def test_on_a_corpus_slice(small_corpus):
    assert sum(audited_in_place(g) for g in small_corpus[:12]) > 100


def test_on_flip_graphs():
    # the smaller flip graphs of the engine golden; they fire L2.4-L2.8,
    # whose added edges split faces
    graphs = [gen_flip(n, seed) for n in FLIP_SIZES[:2] for seed in FLIP_SEEDS]
    assert sum(map(audited_in_place, graphs)) > 100


def test_on_hunt_graphs():
    # the graphs workbench.hunt(3, 80, 6, 1) colors
    assert sum(audited_in_place(gen_planar(80, 6, s)) for s in (1, 2, 3)) > 100
