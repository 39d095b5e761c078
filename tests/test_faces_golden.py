"""Golden gate for face tracing.

Everything that reads faces (the catalog, the audit, the Embedding's face
ids) depends on the order in which a ``PlanarGraph``'s trace meets faces
(``g.faces``) and on where each boundary walk starts.  One sha256 over the boundaries of every traced
face, graph by graph, pins both: on the hand gadgets, a corpus slice, the
mirror image of each (every rotation reversed, which turns each face walk
around), some flip triangulations, and the graphs with n = 0, 1 and 2.
"""

import hashlib

import gadgets
from twodist import PlanarGraph
from workloads import gen_flip

FLIP_SIZES = (30, 80, 150)
FLIP_SEEDS = (7, 101000)

# recorded with the two-pass trace over dart cycles
FACE_TRACE_DIGEST = "dbe4cb220e4141b51e959c65c1d4172830c7eeef655063f4c9434fe15483916c"


def mirror(g):
    return PlanarGraph([tuple(reversed(r)) for r in g.rotation])


def test_traced_faces_match_recorded_digest(corpus):
    graphs = gadgets.hand_corpus() + corpus[:200]
    graphs += [mirror(g) for g in graphs]
    graphs += [gen_flip(n, seed) for n in FLIP_SIZES for seed in FLIP_SEEDS]
    graphs += [PlanarGraph([]), PlanarGraph([()]), PlanarGraph([(2,), (1,)])]
    digest = hashlib.sha256()
    for i, g in enumerate(graphs):
        boundaries = list(g.faces)
        digest.update(f"graph {i} {boundaries!r}\n".encode())
    assert digest.hexdigest() == FACE_TRACE_DIGEST
