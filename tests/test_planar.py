import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
import gadgets
from twodist import (
    EmbeddingInvalid,
    NotACutVertex,
    NotConnected,
    PlanarGraph,
    SurgeryDisconnects,
    UnknownVertex,
    gen_planar,
)
from twodist.discharge import face_key
from twodist.planar import Embedding, distance_profile, distance_walk, is_cut_vertex, square

seeds = st.integers(min_value=0, max_value=10**6)


class TestConstruction:
    def test_triangle(self):
        g = PlanarGraph([(2, 3), (3, 1), (1, 2)])
        assert g.n == 3 and g.m == 3
        assert len(g.faces) == 2

    def test_rejects_asymmetric_rotation(self):
        with pytest.raises(EmbeddingInvalid):
            PlanarGraph([(2,), ()])

    def test_rejects_self_loop(self):
        with pytest.raises(EmbeddingInvalid):
            PlanarGraph([(1, 2), (1,)])

    def test_rejects_repeated_neighbor(self):
        with pytest.raises(EmbeddingInvalid):
            PlanarGraph([(2, 2), (1, 1)])

    @pytest.mark.parametrize(
        "rotation", [[(2.0,), (1,)], [("2",), (1,)], [(2,), (True,)]]
    )
    def test_rejects_neighbor_that_is_not_an_int(self, rotation):
        with pytest.raises(EmbeddingInvalid):
            PlanarGraph(rotation)

    # rotations with two faults each, and the one construction names: ids,
    # then per vertex self-loops and repeats, then the dart count, then
    # symmetry, whatever vertex the later fault sits at
    @pytest.mark.parametrize(
        "rotation, message",
        [
            ([(2, 2), (1, 3), (1,)], "repeated neighbor in rotation of 1"),
            ([(2, 3), (1,), (1, 2, 2)], "repeated neighbor in rotation of 3"),
            ([(1, 2), (1, 3), (1,)], "self-loop at 1"),
            ([(2, 3), (1,), (3, 1)], "self-loop at 3"),
            ([(2, "x"), (1, 1)], "vertex 1 lists unknown neighbor 'x'"),
            ([(2, 2), (1, "x")], "repeated neighbor in rotation of 1"),
            ([(2, 2, "x"), (1,)], "vertex 1 lists unknown neighbor 'x'"),
            ([(2, 3), (1,), ()], "odd number of darts"),
            ([(2, 3), (1,), (2,)], "asymmetric adjacency: 1 lists 3 but not vice versa"),
        ],
    )
    def test_the_first_of_two_faults_is_named(self, rotation, message):
        with pytest.raises(EmbeddingInvalid) as refused:
            PlanarGraph(rotation)
        assert str(refused.value) == message

    def test_rejects_disconnected(self):
        with pytest.raises(NotConnected):
            PlanarGraph([(2,), (1,), (4,), (3,)])

    def test_rejects_nonplanar_rotation(self):
        # K5 admits no rotation system with Euler count 2
        rot = [tuple(u for u in range(1, 6) if u != v) for v in range(1, 6)]
        with pytest.raises(EmbeddingInvalid):
            PlanarGraph(rot)

    def test_single_vertex_and_empty(self):
        assert PlanarGraph([()]).n == 1
        assert PlanarGraph([]).n == 0


class TestTraceFaces:
    def test_k4_four_triangles(self):
        faces = gadgets.complete4().faces
        assert len(faces) == 4
        assert all(len(f) == 3 for f in faces)

    def test_hexagon_two_faces(self):
        faces = gadgets.cycle(6).faces
        assert sorted(map(len, faces)) == [6, 6]

    def test_octahedron(self):
        g = gadgets.octahedron()
        faces = g.faces
        assert len(faces) == 8
        assert all(len(f) == 3 for f in faces)
        assert g.n - g.m + len(faces) == 2

    @pytest.mark.parametrize(
        "build", [gadgets.cube, gadgets.icosahedron, gadgets.two_triangles]
    )
    def test_face_degree_sum_is_2m(self, build):
        g = build()
        assert sum(map(len, g.faces)) == 2 * g.m

    def test_every_dart_used_once(self):
        g = gadgets.wheel(6)
        darts = []
        for b in g.faces:
            darts += [(b[i], b[(i + 1) % len(b)]) for i in range(len(b))]
        assert len(darts) == 2 * g.m
        assert len(set(darts)) == 2 * g.m
        assert {(v, u) for v, fv in g.face.items() for u in fv} == set(darts)

    @settings(max_examples=30, deadline=None)
    @given(seeds, st.booleans())
    def test_face_maps_agree_on_generated_graphs(self, seed, mirrored):
        g = gen_planar(14 + seed % 80, min_delta=6, seed=seed)
        if mirrored:  # every rotation reversed turns each face walk around
            g = PlanarGraph([tuple(reversed(r)) for r in g.rotation])
        walked: dict[tuple[int, int], int] = {}
        for i, b in enumerate(g.faces):
            assert g.fdeg[i] == len(b)
            for j, x in enumerate(b):
                dart = (x, b[(j + 1) % len(b)])
                assert dart not in walked  # each dart lies in exactly one face
                walked[dart] = i
        assert len(g.fdeg) == len(g.faces)
        assert sum(g.fdeg) == 2 * g.m == len(walked)
        assert g.face == {
            v: {u: walked[v, u] for u in g.neighbors(v)} for v in g.vertices()
        }

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=12))
    def test_canonical_key_is_the_least_rotation_from_the_minimum(self, walk):
        # small ids make the minimum repeat often, as at a cut vertex
        b = tuple(walk)
        starts = [i for i, u in enumerate(b) if u == min(b)]
        assert face_key(b) == min(b[i:] + b[:i] for i in starts)


class TestDistanceProfile:
    def test_c5_all_within_two(self):
        e = Embedding(gadgets.cycle(5))
        assert len(distance_profile(e, 1)) == 4

    def test_star_center_and_leaf(self):
        e = Embedding(gadgets.star(6))
        assert len(distance_profile(e, 1)) == 6
        assert len(distance_profile(e, 2)) == 6

    def test_octahedron_diameter_two(self):
        # brute-force BFS: every other vertex is within distance 2
        g = gadgets.octahedron()
        e = Embedding(g)
        for v in g.vertices():
            dist = bruteforce.bfs_distances(g, v)
            expect = {u for u, d in dist.items() if 1 <= d <= 2}
            near = distance_profile(e, v)
            assert near == expect
            assert len(near) == 5

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            distance_profile(Embedding(gadgets.cycle(4)), 9)
        with pytest.raises(UnknownVertex):
            distance_walk(Embedding(gadgets.cycle(4)), True)

    def test_walk_is_the_neighbor_lists_concatenated(self):
        # v's neighbors, then each one's neighbors: v once per neighbor
        e = Embedding(gadgets.star(3))
        assert distance_walk(e, 2) == (1, *e.rot[1])
        assert distance_walk(e, 1) == (*e.rot[1], 1, 1, 1)
        e = Embedding(gadgets.octahedron())
        for v in e.rot:
            walk = distance_walk(e, v)
            assert walk[:4] == tuple(e.face[v])
            assert len(walk) == 4 + 16 and walk.count(v) == 4
            assert set(walk) - {v} == distance_profile(e, v)

    @pytest.mark.parametrize(
        "read",
        [
            lambda g: g.degree(True),
            lambda g: g.has_edge(True, 2),
            lambda g: g.has_edge(2, True),
            lambda g: g.adj(True),
            lambda g: g.neighbors(True),
            lambda g: distance_profile(Embedding(g), True),
            lambda g: Embedding(g).smaller_side(True),
        ],
    )
    def test_bool_is_no_vertex(self, read):
        # True == 1, but a bool is not a vertex id
        with pytest.raises(UnknownVertex):
            read(gadgets.cycle(3))

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_matches_pairwise_bfs(self, seed):
        g = gen_planar(6 + seed % 24, seed=seed)
        e = Embedding(g)
        want = bruteforce.pairs_within_two(g)
        got = {
            (v, u)
            for v in g.vertices()
            for u in distance_profile(e, v)
            if v < u
        }
        assert got == want
        delta = g.max_degree()
        for v in g.vertices():
            near = distance_profile(e, v)
            assert v not in near
            assert g.degree(v) <= len(near) <= delta * delta


class TestSquare:
    def test_square_c5_is_k5(self):
        sq = square(Embedding(gadgets.cycle(5)))
        assert all(len(sq[v]) == 4 for v in sq)

    def test_square_star_is_k7(self):
        sq = square(Embedding(gadgets.star(6)))
        assert all(len(sq[v]) == 6 for v in sq)

    def test_square_c6_four_regular(self):
        sq = square(Embedding(gadgets.cycle(6)))
        assert all(len(sq[v]) == 4 for v in sq)

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_square_degree_equals_d2(self, seed):
        g = gen_planar(6 + seed % 30, seed=seed)
        e = Embedding(g)
        sq = square(e)
        for v in g.vertices():
            assert len(sq[v]) == len(distance_profile(e, v))


def applied(g, **edits):
    """The snapshot of an Embedding of g after one apply of these edits,
    and the rename the snapshot made.  A refused apply raises."""
    e = Embedding(g)
    e.apply(**edits)
    return e.snapshot(), gadgets.dense_ids(e)


def parts(g, v):
    """The snapshots of the two parts at cut vertex v, the one holding the
    smallest other id first, each with its live ids."""
    e = Embedding(g)
    split = [e.part(side | {v}) for side in gadgets.split_sides(e, v)]
    return [(p.snapshot(), set(p.rot)) for p in split]


class TestSurgery:
    # refused applies are inputs of test_embedding's FAILED_APPLIES

    def test_delete_degree2_and_close(self):
        # a-v-b inside C4: delete v=2, add edge 1-3
        g = gadgets.cycle(4)
        h, rename = applied(g, delete_vertices=[2], add_edges=[(1, 3)])
        assert h.n == 3 and h.m == 3
        assert len(h.faces) == 2
        assert rename == {1: 1, 3: 2, 4: 3}

    def test_chord_across_c4(self):
        g = gadgets.cycle(4)
        h, _ = applied(g, add_edges=[(1, 3)])
        faces = h.faces
        assert h.n - h.m + len(faces) == 2
        assert sorted(map(len, faces)) == [3, 3, 4]

    def test_delete_wheel_hub(self):
        g = gadgets.wheel(6)
        h, _ = applied(g, delete_vertices=[1])
        assert h == gadgets.cycle(6)
        assert sorted(map(len, h.faces)) == [6, 6]

    def test_existing_edge_skipped_silently(self):
        g = gadgets.complete4()
        h, _ = applied(g, add_edges=[(1, 2)])
        assert h == g

    def test_edge_deletion_only(self):
        g = gadgets.complete4()
        h, rename = applied(g, delete_edges=[(1, 2)])
        assert h.m == 5
        assert rename == {v: v for v in range(1, 5)}

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_euler_holds_after_random_edge_deletion(self, seed):
        g = gen_planar(8 + seed % 20, seed=seed)
        edges = sorted(g.edges())
        u, v = edges[seed % len(edges)]
        try:
            h, _ = applied(g, delete_edges=[(u, v)])
        except SurgeryDisconnects:
            return
        faces = h.faces
        assert h.n - h.m + len(faces) == 2


class TestCutVertices:
    def test_path_middle(self):
        g = gadgets.path(3)
        assert is_cut_vertex(g, 2)
        assert not is_cut_vertex(g, 1)
        (first, _), (second, _) = parts(g, 2)
        assert first.n == 2 and second.n == 2

    def test_cycle_has_none(self):
        g = gadgets.cycle(5)
        assert Embedding(g).cuts == set()
        assert not any(is_cut_vertex(g, v) for v in g.vertices())

    def test_two_triangles(self):
        g = gadgets.two_triangles()
        assert Embedding(g).cuts == {1}
        (first, first_ids), (second, second_ids) = parts(g, 1)
        for part in (first, second):
            assert part.n == 3 and part.m == 3
        # both parts contain the cut vertex and are strictly smaller
        assert 1 in first_ids and 1 in second_ids
        assert first.size() < g.size() and second.size() < g.size()
        assert (first.n - 1) + (second.n - 1) == g.n - 1

    def test_articulation_on_graphs_up_to_three_vertices(self):
        for rotation, cuts in (
            ([], set()),
            ([()], set()),
            ([(2,), (1,)], set()),
            ([(2,), (1, 3), (2,)], {2}),
        ):
            g = PlanarGraph(rotation)
            assert Embedding(g).cuts == cuts
            assert cuts == {v for v in g.vertices() if is_cut_vertex(g, v)}

    def test_not_a_cut_vertex(self):
        with pytest.raises(NotACutVertex):
            Embedding(gadgets.cycle(5)).smaller_side(1)

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_articulation_matches_per_vertex_check(self, seed):
        g = gen_planar(6 + seed % 25, seed=seed)
        cuts = Embedding(g).cuts
        for v in g.vertices():
            assert (v in cuts) == is_cut_vertex(g, v)

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_articulation_matches_on_corpus_graphs(self, seed):
        # the acceptance corpus generator: Delta >= 6, edges deleted
        g = gen_planar(14 + seed % 60, min_delta=6, seed=seed)
        cuts = Embedding(g).cuts
        assert cuts == {v for v in g.vertices() if is_cut_vertex(g, v)}

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_articulation_matches_on_trees(self, data):
        # every rotation system of a tree is planar, with one face
        n = data.draw(st.integers(min_value=1, max_value=30))
        nbrs = {v: [] for v in range(1, n + 1)}
        for v in range(2, n + 1):
            p = data.draw(st.integers(min_value=1, max_value=v - 1))
            nbrs[v].append(p)
            nbrs[p].append(v)
        g = PlanarGraph([data.draw(st.permutations(nbrs[v])) for v in range(1, n + 1)])
        assert len(g.faces) == (1 if n > 1 else 0)
        cuts = Embedding(g).cuts
        assert cuts == {v for v in g.vertices() if is_cut_vertex(g, v)}
        assert cuts == {v for v in g.vertices() if g.degree(v) > 1}
