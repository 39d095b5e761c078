import hashlib
import sys
from pathlib import Path

import pytest

import bruteforce
import gadgets
from conftest import corpus_specs
from test_engine_golden import FLIP_SEEDS, FLIP_SIZES
from twodist import (
    PlanarGraph,
    RunTrace,
    chi2_exact,
    color,
    gen_planar,
    verify_coloring,
)
from twodist.oracle import DEFAULT_NODE_BUDGET, greedy_square
from twodist.planar import Embedding, distance_profile

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import gen_flip  # noqa: E402

ZOO = [
    gadgets.cycle(5),
    gadgets.cycle(6),
    gadgets.cycle(7),
    gadgets.path(4),
    gadgets.path(8),
    gadgets.star(6),
    gadgets.wheel(6),
    gadgets.complete4(),
    gadgets.octahedron(),
    gadgets.two_triangles(),
    gadgets.cube(),
    gadgets.grid_plus(),
]


class TestChi2Exact:
    @pytest.mark.parametrize(
        "build,expected",
        [
            (lambda: gadgets.cycle(5), 5),
            (gadgets.complete4, 4),
            (lambda: gadgets.star(6), 7),
            (lambda: gadgets.wheel(6), 7),
            (lambda: gadgets.cycle(6), 3),
            (gadgets.octahedron, 6),
            (lambda: gadgets.path(4), 3),
        ],
    )
    def test_known_values(self, build, expected):
        result = chi2_exact(Embedding(build()))
        assert result.exact
        assert result.chi2 == expected

    def test_agrees_with_exhaustive_search_up_to_nine(self):
        for g in ZOO:
            assert chi2_exact(Embedding(g)).chi2 == bruteforce.brute_chi2(g)

    def test_witness_is_valid_and_tight(self):
        for g in (gadgets.wheel(6), gadgets.octahedron(), gadgets.cube()):
            result = chi2_exact(Embedding(g))
            assert result.exact
            report = verify_coloring(g, result.witness)
            assert report.valid
            assert report.colors_used == result.chi2

    def test_budget_exhaustion_still_returns_witness(self):
        # this instance has a gap between the greedy clique and greedy
        # coloring bounds, so the search really runs and hits the budget
        g = gen_planar(18, min_delta=6, seed=39)
        result = chi2_exact(Embedding(g), node_budget=1)
        assert not result.exact
        assert verify_coloring(g, result.witness).valid
        assert result.nodes_explored <= 1
        full = chi2_exact(Embedding(g))
        assert full.exact
        assert full.chi2 <= result.chi2

    def test_adding_edge_never_decreases_chi2(self):
        g = gadgets.cycle(6)
        e = Embedding(g)
        before = chi2_exact(e).chi2
        e.apply(add_edges=[(1, 3)])
        assert chi2_exact(Embedding(e.snapshot())).chi2 >= before

    def test_deep_search_needs_no_recursion(self):
        # one search node per vertex colored before the cycle closes
        result = chi2_exact(Embedding(gadgets.cycle(1201)))
        assert result.exact
        assert result.chi2 == 4
        assert result.nodes_explored == 1200

    def test_empty_and_singleton(self):
        assert chi2_exact(Embedding(PlanarGraph([]))).chi2 == 0
        assert chi2_exact(Embedding(PlanarGraph([()]))).chi2 == 1


class TestGreedySquare:
    def test_octahedron_needs_six(self):
        c = greedy_square(Embedding(gadgets.octahedron()))
        assert c.colors_used == 6

    def test_always_valid_within_d2_plus_one(self):
        for seed in range(8):
            g = gen_planar(20 + seed, seed=seed)
            e = Embedding(g)
            c = greedy_square(e)
            assert verify_coloring(g, c).valid
            cap = max(len(distance_profile(e, v)) for v in g.vertices()) + 1
            assert c.colors_used <= cap

    def test_c5_uses_five(self):
        assert greedy_square(Embedding(gadgets.cycle(5))).colors_used == 5


# sha256 of chi2, exactness, search nodes and witness, recorded from the
# recursive search before it became a loop over an explicit stack.
ORACLE_DIGEST = "4c71d2dde9a89dfd9d43105c7e3d591b56afbaa9db2318c3cbc979cadc459b04"


def _oracle_inputs():
    yield from ((g, None) for g in ZOO)
    # cycles whose length is not a multiple of 3 backtrack out of k = 3
    yield from ((gadgets.cycle(n), None) for n in (8, 11, 14))
    # the first 28 corpus graphs with n <= 20, plus the two with
    # n <= 40 whose clique and greedy bounds differ, so the search runs
    specs = corpus_specs()
    small = [i for i, (n, _) in enumerate(specs) if n <= 20][:28] + [562, 751]
    for i in small:
        n, seed = specs[i]
        yield gen_planar(n, min_delta=6, seed=seed), None
    for budget in (1, 10, 100):
        yield gen_planar(18, min_delta=6, seed=39), budget


def test_results_match_recorded_digest():
    digest = hashlib.sha256()
    for g, budget in _oracle_inputs():
        e = Embedding(g)
        r = chi2_exact(e) if budget is None else chi2_exact(e, node_budget=budget)
        record = (r.chi2, r.exact, r.nodes_explored, sorted(r.witness.assignment.items()))
        digest.update(f"{record!r}\n".encode())
    assert digest.hexdigest() == ORACLE_DIGEST


def _same_through_rename(e, node_budget=DEFAULT_NODE_BUDGET):
    """The oracle on e's ids against the oracle on ``e.snapshot()``: the
    results must be equal through the rename.  Returns the search nodes."""
    rename = gadgets.dense_ids(e)

    def renamed(c):
        return {rename[v]: col for v, col in c.assignment.items()}, c.budget

    ref_e = Embedding(e.snapshot())
    live, ref = chi2_exact(e, node_budget), chi2_exact(ref_e, node_budget)
    assert (live.chi2, live.exact, live.nodes_explored) == (
        ref.chi2, ref.exact, ref.nodes_explored
    )
    assert renamed(live.witness) == (ref.witness.assignment, ref.witness.budget)
    g_ref = greedy_square(ref_e)
    assert renamed(greedy_square(e)) == (g_ref.assignment, g_ref.budget)
    return live.nodes_explored


class TestSparseIds:
    """The engine hands its live Embedding, whose ids have gaps, to the
    oracle at every base case and greedy fallback."""

    @staticmethod
    def base_cases(graphs):
        calls = [0]

        def hook(e, outcome):
            if outcome is None:
                _same_through_rename(e)
                calls[0] += 1

        for g in graphs:
            color(g, trace=RunTrace(graph_hook=hook))
        return calls[0]

    def test_base_cases_on_a_corpus_slice(self, small_corpus):
        assert self.base_cases(small_corpus[:20]) > 20

    def test_base_cases_on_flip_graphs(self):
        graphs = [gen_flip(n, seed) for n in FLIP_SIZES for seed in FLIP_SEEDS]
        assert self.base_cases(graphs) >= len(graphs)

    @pytest.mark.parametrize(
        "g,budget",
        [
            (gadgets.cycle(8), DEFAULT_NODE_BUDGET),
            (gadgets.cycle(11), DEFAULT_NODE_BUDGET),
            (gen_planar(18, min_delta=6, seed=39), DEFAULT_NODE_BUDGET),
            (gen_planar(18, min_delta=6, seed=39), 10),
        ],
        ids=["c8", "c11", "gen18", "gen18-budget10"],
    )
    def test_search_after_a_deleted_vertex(self, g, budget):
        # vertex 1 is a pendant at g's vertex 1 and g's ids move up by one;
        # deleting it leaves g on the ids 2..n+1
        rotation = [(2,)] + [tuple(u + 1 for u in nbrs) for nbrs in g.rotation]
        rotation[1] += (1,)
        e = Embedding(PlanarGraph(rotation))
        e.apply(delete_vertices=[1])
        assert e.snapshot() == g
        assert _same_through_rename(e, budget) > 0
