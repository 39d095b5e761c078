"""Golden gate for the random graph generator.

Every claim checked for the bound is checked on ``gen_planar`` graphs, so
the generator's output is pinned byte for byte: one sha256 over
``write_graph(gen_planar(n, min_delta, seed, deletions))`` across a grid of
parameters, with ``GenerationFailed`` written in place of the graph where
the call raises.  The grid covers every ``min_delta`` regime (none, trees
and paths allowed, the corpus's 6, and degrees the small graphs cannot
reach), the default deletion count and explicit ones, and a few larger
graphs at the corpus's ``min_delta``.
"""

import hashlib

from twodist import GenerationFailed, gen_planar, write_graph

MIN_DELTAS = (0, 1, 2, 3, 5, 6, 9, 12)
DELETIONS = (None, 0, 7)
SMALL_NS = (3, 4, 5, 6, 7, 8, 10, 13, 17, 24, 33, 45, 60)
SMALL_SEEDS = (0, 1)
LARGE_NS = (200, 450, 800, 1600)
LARGE_SEED = 5

# recorded with the generator that tested each deletion by a breadth-first
# search over the whole graph
GENERATOR_DIGEST = "fff155c42c761e368275ac1024cb4f52c2d057b46b42525d9e0621dce440935a"


def generator_grid():
    for min_delta in MIN_DELTAS:
        for deletions in DELETIONS:
            for n in SMALL_NS:
                for seed in SMALL_SEEDS:
                    yield n, min_delta, seed, deletions
    for n in LARGE_NS:
        yield n, 6, LARGE_SEED, None


def test_generated_graphs_match_recorded_digest():
    digest = hashlib.sha256()
    for params in generator_grid():
        digest.update(f"gen_planar{params}\n".encode())
        try:
            text = write_graph(gen_planar(*params))
        except GenerationFailed:
            text = "GenerationFailed\n"
        digest.update(text.encode())
    assert digest.hexdigest() == GENERATOR_DIGEST
