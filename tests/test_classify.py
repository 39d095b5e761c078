from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import gadgets
from twodist import Embedding, audit, classify_all, gen_planar
from twodist.classify import VertexClass, classify_vertex, is_special_vertex
from twodist.discharge import UNIT, _after_r1_r2

seeds = st.integers(min_value=0, max_value=10**6)


def prof(g, v):
    return classify_all(g)[v]


def neighbor_profiles(g, v):
    """Profiles of N(v), in rotation order around v."""
    classes = classify_all(g)
    return [classes[u] for u in g.neighbors(v)]


class TestClassifyVertex:
    def test_octahedron_all_44(self):
        g = gadgets.octahedron()
        for v in g.vertices():
            vc = prof(g, v)
            assert (vc.k, vc.t3, vc.t4) == (4, 4, 0)

    def test_wheel6_hub_is_66(self):
        vc = prof(gadgets.wheel(6), 1)
        assert vc.is_kd(6, 6)
        # classify_vertex builds the NamedTuple in C, past its __new__, on
        # either graph class
        for g, classes in (
            (gadgets.wheel(6), {1: (6, 6, 0, 0), 2: (3, 2, 0, 1)}),
            (Embedding(gadgets.wheel_minus_rim(6)), {1: (6, 5, 0, 1), 2: (2, 1, 0, 1)}),
        ):
            for v, want in classes.items():
                vc = classify_vertex(g, v)
                assert type(vc) is VertexClass and vc == VertexClass(*want)
                assert (vc.k, vc.t3, vc.t4, vc.t5p) == want
        assert str(classify_vertex(g, 1)) == "(6,5,0)-vertex"

    def test_c6_vertices(self):
        vc = prof(gadgets.cycle(6), 1)
        assert vc == (2, 0, 0, 2)
        assert is_special_vertex(Embedding(gadgets.cycle(6)), 1)

    def test_icosahedron_not_special(self):
        # every neighborhood edge lies in two triangles
        g = gadgets.icosahedron()
        for v in g.vertices():
            vc = prof(g, v)
            assert vc.is_kd(5, 5)
            assert not is_special_vertex(Embedding(g), v)

    def test_counts_sum_to_degree_without_cut_vertices(self):
        for g in (gadgets.octahedron(), gadgets.wheel(6), gadgets.cube()):
            assert not Embedding(g).cuts
            for vc in classify_all(g).values():
                assert vc.t3 + vc.t4 + vc.t5p == vc.k


class TestBadFlags:
    """A 4- or 5-vertex is bad4 or bad5 when R1 and R2 alone leave it
    negative; ``discharge._after_r1_r2`` gives that charge."""

    @staticmethod
    def after(g, v):
        return _after_r1_r2(prof(g, v), g.max_degree())

    def test_44_vertex_is_bad(self):
        assert self.after(gadgets.octahedron(), 1) == Fraction(-4, 3) * UNIT

    def test_40_vertex_is_not_bad(self):
        g = gadgets.grid_plus()
        vc = prof(g, 1)
        assert (vc.k, vc.t3, vc.t4) == (4, 0, 4)
        assert self.after(g, 1) >= 0

    def test_53_vertex_is_not_bad(self):
        # wheel with two non-adjacent rim edges removed: hub is a (5,3)
        e = Embedding(gadgets.wheel(5))
        e.apply(delete_edges=[(2, 3), (4, 5)])
        h = e.snapshot()
        assert prof(h, 1).is_kd(5, 3)
        assert self.after(h, 1) >= 0

    def test_54_vertex_is_bad(self):
        g = gadgets.g_L2_9_or_10(True)
        assert prof(g, 1).is_kd(5, 4)
        assert self.after(g, 1) < 0

    def test_bad_flags_only_for_matching_degree(self):
        # the hub has degree 6: it ends negative, but is labelled no bad
        g = gadgets.wheel(6)
        assert self.after(g, 1) == 0
        hub = [e for e in audit(g, cross_reference=False).negative_elements if e[1] == 1]
        assert hub == [("vertex", 1, Fraction(-2, 3), "(6,6,0)-vertex")]


class TestNeighborProfile:
    def test_wheel6_hub_sees_six_32(self):
        g = gadgets.wheel(6)
        profiles = neighbor_profiles(g, 1)
        assert len(profiles) == 6
        assert all(vc.is_kd(3, 2) for vc in profiles)

    def test_octahedron_sees_four_44(self):
        g = gadgets.octahedron()
        profiles = neighbor_profiles(g, 1)
        assert [(vc.k, vc.t3, vc.t4) for vc in profiles] == [(4, 4, 0)] * 4

    def test_k4_sees_three_33(self):
        g = gadgets.complete4()
        profiles = neighbor_profiles(g, 1)
        assert len(profiles) == 3
        assert all(vc.is_kd(3, 3) for vc in profiles)


class TestInvariants:
    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_triangle_incidence_sum(self, seed):
        g = gen_planar(8 + seed % 30, seed=seed)
        if Embedding(g).cuts:
            return
        faces = g.faces
        classes = classify_all(g).values()
        t3_total = sum(vc.t3 for vc in classes)
        assert t3_total == 3 * sum(1 for f in faces if len(f) == 3)
        t4_total = sum(vc.t4 for vc in classes)
        assert t4_total == 4 * sum(1 for f in faces if len(f) == 4)

    def test_special_monotone_under_triangle_edge_removal(self):
        # deleting an edge only merges faces, so a special vertex stays special
        e = Embedding(gadgets.icosahedron())
        before = {v: is_special_vertex(e, v) for v in e.face}
        e.apply(delete_edges=[(2, 3)])
        for v in e.face:
            if before[v]:
                assert is_special_vertex(e, v)

    def test_classification_ignores_colorings(self):
        # classify depends only on the embedding: recomputing from an equal
        # graph gives identical profiles
        g1 = gadgets.g_L2_10_3()
        g2 = gadgets.g_L2_10_3()
        assert classify_all(g1) == classify_all(g2)
