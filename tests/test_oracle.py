import pytest

import bruteforce
import gadgets
from twodist import chi2_exact, gen_planar, greedy_square, surgery, verify_coloring


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
        g = build()
        result = chi2_exact(g)
        assert result.exact
        assert result.chi2 == expected

    def test_agrees_with_exhaustive_search_up_to_nine(self):
        zoo = [
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
        for g in zoo:
            assert chi2_exact(g).chi2 == bruteforce.brute_chi2(g)

    def test_witness_is_valid_and_tight(self):
        for g in (gadgets.wheel(6), gadgets.octahedron(), gadgets.cube()):
            result = chi2_exact(g)
            assert result.exact
            report = verify_coloring(g, result.witness)
            assert report.valid
            assert report.colors_used == result.chi2

    def test_budget_exhaustion_still_returns_witness(self):
        # this instance has a gap between the greedy clique and greedy
        # coloring bounds, so the search really runs and hits the budget
        g = gen_planar(18, min_delta=6, seed=39)
        result = chi2_exact(g, node_budget=1)
        assert not result.exact
        assert verify_coloring(g, result.witness).valid
        assert result.nodes_explored <= 1
        full = chi2_exact(g)
        assert full.exact
        assert full.chi2 <= result.chi2

    def test_adding_edge_never_decreases_chi2(self):
        g = gadgets.cycle(6)
        before = chi2_exact(g).chi2
        h = surgery(g, add_edges=[(1, 3)]).graph
        assert chi2_exact(h).chi2 >= before

    def test_empty_and_singleton(self):
        from twodist import PlanarGraph

        assert chi2_exact(PlanarGraph([])).chi2 == 0
        assert chi2_exact(PlanarGraph([()])).chi2 == 1


class TestGreedySquare:
    def test_octahedron_needs_six(self):
        c = greedy_square(gadgets.octahedron())
        assert c.colors_used == 6

    def test_always_valid_within_d2_plus_one(self):
        for seed in range(8):
            g = gen_planar(20 + seed, seed=seed)
            c = greedy_square(g)
            assert verify_coloring(g, c).valid
            from twodist import distance_profile

            cap = max(len(distance_profile(g, v)) for v in g.vertices()) + 1
            assert c.colors_used <= cap

    def test_c5_uses_five(self):
        assert greedy_square(gadgets.cycle(5)).colors_used == 5
