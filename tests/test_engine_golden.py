"""Golden gate for the graphs the colouring engine hands to its hook.

``RunTrace.graph_hook`` sees every intermediate graph of a run (dense ids,
fully validated) together with the outcome of the catalog on it.  One
sha256 over ``(graph.rotation, outcome)`` for every hook call, in call
order, pins the whole induction: which rule fired where, the rotation
order each surgery leaves behind, the face chosen for every added edge,
and the order in which split sides and base cases are visited.  The flip
graphs fire L2.4-L2.8, whose added edges exercise the face tie-break.
"""

import hashlib
import sys
from pathlib import Path

from test_acceptance import hand_corpus
from twodist import RunTrace, color

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import gen_flip  # noqa: E402

FLIP_SIZES = (80, 140, 190, 250)
FLIP_SEEDS = range(101000, 101004)

# recorded before the engine moved onto one mutable embedding
INTERMEDIATE_GRAPH_DIGEST = "fa1398d526e4fb828b77e6fcf10c0088e2bff43424e3c4d05cccde1c3e46cca1"


def test_intermediate_graphs_match_recorded_digest(corpus):
    graphs = hand_corpus() + corpus[:100]
    graphs += [gen_flip(n, seed) for n in FLIP_SIZES for seed in FLIP_SEEDS]
    digest = hashlib.sha256()

    def hook(g, outcome):
        digest.update(f"{g.rotation!r} {outcome!r}\n".encode())

    for i, g in enumerate(graphs):
        digest.update(f"graph {i}\n".encode())
        color(g, trace=RunTrace(graph_hook=hook))
    assert digest.hexdigest() == INTERMEDIATE_GRAPH_DIGEST
