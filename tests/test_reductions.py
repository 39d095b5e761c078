import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
import gadgets
import twodist
from twodist import (
    DegreeBudgetExceeded,
    Reduction,
    RunTrace,
    Embedding,
    PlanarGraph,
    check_properness,
    color,
    find_reduction,
    gen_planar,
    match_case,
    reduce_in_place,
    write_graph,
)
from twodist import cli
from twodist.cli import main
from twodist.planar import distance_profile
from twodist.reductions import MATCHER_ORDER, ProofGapReport, _Ctx, _m_L2_11
from claims import check_step, state, walk

seeds = st.integers(min_value=0, max_value=10**6)


class TestEarlyMatchers:
    def test_cut_vertex_match(self):
        r = match_case("L2.1", Embedding(gadgets.two_triangles()))
        assert r is not None and r.lemma == "L2.1" and r.split == 1
        # the hot matchers build their Reductions in C, all nine fields
        assert type(r) is Reduction and r.d2_bound is None
        assert r == Reduction("L2.1", None, 1, (), (), (), (), None, split=1)

    def test_no_cut_vertex_in_cycle(self):
        assert match_case("L2.1", Embedding(gadgets.cycle(5))) is None

    def test_path_matches_smallest_internal(self):
        r = match_case("L2.1", Embedding(gadgets.path(4)))
        assert r.split == 2

    def test_degree_two_on_cycle(self):
        g = gadgets.cycle(6)
        r = match_case("L2.2", Embedding(g))
        assert r.lemma == "L2.2" and r.vertex == 1
        assert r.add_edges == ((2, 6),)  # chord closing the path
        assert r.d2_bound == 2 * g.max_degree()
        assert type(r) is Reduction and r.split is None
        assert r._asdict() == dict(
            lemma="L2.2", case=None, vertex=1, pending=(1,), delete_vertices=(1,),
            delete_edges=(), add_edges=((2, 6),), d2_bound=4, split=None,
        )
        check_step(Embedding(g), r)

    def test_octahedron_has_min_degree_four(self):
        assert match_case("L2.2", Embedding(gadgets.octahedron())) is None

    def test_leaf_of_star(self):
        r = match_case("L2.2", Embedding(gadgets.star(6)))
        assert r.delete_vertices == (2,) and r.add_edges == ()

    def test_3vertex_cases_on_wheel_and_cube(self):
        r = match_case("L2.3.1", Embedding(gadgets.wheel(6)))
        assert r.lemma == "L2.3.1" and r.vertex == 2
        assert r.delete_vertices == (2,) and r.delete_edges == ()
        assert r.add_edges == ((1, 3), (3, 7)) and r.d2_bound == 17
        assert type(r) is Reduction and r.split is None
        assert r == Reduction("L2.3.1", None, 2, (2,), (2,), (), ((1, 3), (3, 7)), 17)
        # wheel(6) renamed so that 3-vertex 1 has rotation (5, 2, 3): the
        # hub is 3, and of the low neighbors 5 and 2 the smaller comes
        # second; the chords from 2 follow the rotation, not id order
        new = {6: 1, 7: 2, 1: 3, 2: 4, 5: 5, 3: 6, 4: 7}
        old = {w: v for v, w in new.items()}
        g = gadgets.wheel(6)
        e = Embedding(PlanarGraph([[new[u] for u in g.rotation[old[w] - 1]] for w in range(1, 8)]))
        assert e.rot[1] == [5, 2, 3] and e.degree(3) == 6
        r = match_case("L2.3.1", e)
        assert (r.vertex, r.delete_vertices, r.delete_edges) == (1, (1,), ())
        assert r.add_edges == ((2, 5), (2, 3)) and r.d2_bound == 17
        r = match_case("L2.3.2", Embedding(gadgets.wheel(6)))
        assert r.lemma == "L2.3.2" and r.vertex == 2
        assert match_case("L2.3.2", Embedding(gadgets.complete4())).lemma == "L2.3.2"
        r = match_case("L2.3.3", Embedding(gadgets.cube()))
        assert r.lemma == "L2.3.3"
        assert len(r.add_edges) == 1

    def test_combined_l2_3_priority(self):
        # a wheel rim vertex satisfies both case 1 and case 2; case 1 wins
        assert find_reduction(Embedding(gadgets.wheel(6))).lemma == "L2.3.1"


class TestConfigurationCatalog:
    @pytest.mark.parametrize("tag,build,lemma,adds", gadgets.CONFIG_CASES)
    def test_matcher_fires_and_applies_soundly(self, tag, build, lemma, adds):
        e = Embedding(build())
        r = match_case(tag, e)
        assert r is not None and r.lemma == lemma
        if adds is not None:
            assert r.add_edges == adds
        check_step(e, r)

    def test_l2_10_3_uses_tighter_bound(self):
        g = gadgets.g_L2_10_3()
        r = match_case("L2.10.3", Embedding(g))
        assert r.d2_bound == 2 * g.max_degree() + 6

    def test_octahedron_surgery_is_plain_deletion(self):
        r = match_case("L2.4", Embedding(gadgets.octahedron()))
        assert r.delete_vertices == (1,) and r.add_edges == ()


class TestL2_11:
    def test_delta6_deletes_one_spoke(self):
        g = gadgets.g_L2_11()
        r = match_case("L2.11", Embedding(g))
        assert r.lemma == "L2.11.case1"
        assert r.pending == (1, 5)  # center first, then the (5,5)-neighbor
        assert r.delete_vertices == () and r.delete_edges == ((1, 5),)
        assert r.d2_bound == 18

    def test_delta7_rewires_through_v4(self):
        g = gadgets.g_L2_11(delta7=True)
        r = match_case("L2.11", Embedding(g))
        assert r.lemma == "L2.11.case2"
        assert r.pending == (1,)
        assert r.add_edges == ((2, 5), (3, 5), (5, 7))
        assert r.d2_bound == 3 * g.max_degree()

    def test_without_54_neighbor_no_match(self):
        assert match_case("L2.11", Embedding(gadgets.g_L2_11(drop_54=True))) is None

    def test_case2_needs_delta_7(self):
        # the matcher run as if Delta were 7 takes case2 at Delta = 6: v4
        # (id 5), a (5,5)-vertex, loses the centre and ends three chords, so
        # it reaches degree 7, and reduce_in_place refuses and undoes
        e = Embedding(gadgets.g_L2_11())
        ctx = _Ctx(e)
        ctx.delta = 7
        r = _m_L2_11(ctx)
        assert r.lemma == "L2.11.case2" and r.add_edges == ((2, 5), (3, 5), (5, 7))
        before = state(e)
        with pytest.raises(DegreeBudgetExceeded, match="past 6"):
            reduce_in_place(e, r)
        assert state(e)[:-1] == before[:-1] and e.max_degree() == 6


class TestFindReduction:
    def test_priority_cut_vertex_first(self):
        # degree-2 vertices everywhere, but the cut vertex wins
        g = gadgets.two_triangles()
        r = find_reduction(Embedding(g))
        assert r.lemma == "L2.1"

    def test_icosahedron_reaches_the_five_family(self):
        r = find_reduction(Embedding(gadgets.icosahedron()))
        assert r.lemma == "L2.8.1"

    def test_deterministic(self):
        g1 = gadgets.g_L2_10_3()
        g2 = gadgets.g_L2_10_3()
        assert find_reduction(Embedding(g1)) == find_reduction(Embedding(g2))

    def test_dodecahedron_exhausts_catalog(self):
        # 3-regular with pentagon faces: every vertex is a 3-vertex whose
        # neighbors all have the maximum degree, with no 3- or 4-face
        g = gadgets.dodecahedron()
        outcome = find_reduction(Embedding(g))
        assert isinstance(outcome, ProofGapReport)
        assert outcome.delta == 3  # far below the guarantee threshold
        assert dict(outcome.nearest_miss)["L2.2"] == "minimum degree 3"

    def test_gap_report_counts_the_catalog_shapes(self, monkeypatch):
        # with the catalog emptied, the notes count each centre shape (k, t3)
        # that the rows and L2.11 look for, in catalog order
        monkeypatch.setattr(twodist.reductions, "MATCHER_ORDER", ())
        outcome = find_reduction(Embedding(gadgets.g_L2_11()))
        assert dict(outcome.nearest_miss)["shapes"] == "(5,5):2, (5,4):3, (6,5):1"

    def test_gap_report_carries_the_graph_in_dense_ids(self):
        # the Embedding of a PlanarGraph gives the graph itself back
        g = gadgets.dodecahedron()
        assert find_reduction(Embedding(g)).graph == g
        # a dodecahedron on ids 2..21, with vertex 1 drawn in its inner
        # pentagon and joined to three corners, then deleted: an Embedding
        # whose ids have a gap
        adj = {v + 1: [u + 1 for u in nbrs] for v, nbrs in gadgets.dodecahedron_adj().items()}
        adj[1] = [17, 18, 20]
        for v in adj[1]:
            adj[v].append(1)
        e = Embedding(gadgets.tutte(adj, outer=[2, 3, 4, 5, 6]))
        e.apply(delete_vertices=[1])
        outcome = find_reduction(e)
        assert isinstance(outcome, ProofGapReport)
        assert outcome.graph == e.snapshot()

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_never_gaps_with_delta_at_least_six(self, seed):
        g = gen_planar(10 + seed % 60, min_delta=6, seed=seed)
        assert isinstance(find_reduction(Embedding(g)), Reduction)


class TestDegreeCap:
    def test_fan_without_headroom_is_rejected_on_apply(self):
        # a (4,1,2)-configuration whose chosen fan center already sits at the
        # maximum degree: the surgery would need Delta + 1 and must refuse
        g = gadgets.capped_fan()
        assert g.degree(2) == 4 == g.max_degree()

        e = Embedding(g)
        r = match_case("L2.7.2", e)
        assert r is not None and r.case == "nonadjacent"
        assert r.add_edges[0][0] == 2  # fans from the capped vertex
        from twodist import DegreeBudgetExceeded

        with pytest.raises(DegreeBudgetExceeded):
            reduce_in_place(e, r)

    def test_colorer_survives_capped_configurations(self):
        # graphs below the guarantee threshold still come out valid; deleting
        # 3n/2 edges leaves about one graph in five there
        from twodist import color, verify_coloring

        pool = [
            gen_planar(n, min_delta=0, seed=seed, deletions=3 * n // 2)
            for seed in range(200)
            for n in [12 + seed % 25]
        ]
        low = [g for g in pool if g.max_degree() < 6]
        assert len(low) >= 40
        for g in low:
            c = color(g)
            assert verify_coloring(g, c).valid
            assert c.colors_used <= c.budget

    def test_a_capped_fan_falls_back_to_greedy(self):
        # every vertex has degree 4 and one 3-face corner, so the first rule
        # to fire is L2.7.2, fanning from a neighbor already at Delta = 4:
        # the apply is refused, and the whole graph (n = 30, above the base
        # case) is colored greedily with no further step
        from twodist import verify_coloring

        g = gadgets.medial(gadgets.medial(gadgets.prism(5)))
        trace = RunTrace()
        c = color(g, trace=trace)
        assert trace.steps == [("L2.7.2", 30, 60, 4)] and not trace.gaps
        assert verify_coloring(g, c).valid


class TestShrinkInvariant:
    def test_holds_under_python_O(self):
        # a reduction that deletes and adds nothing must be refused even when
        # asserts are stripped
        code = (
            "from twodist import InvariantViolated, Reduction, gen_planar\n"
            "from twodist.planar import Embedding\n"
            "from twodist.reductions import reduce_in_place\n"
            "e = Embedding(gen_planar(12, min_delta=6, seed=1))\n"
            "r = Reduction('L2.2', None, 1, (), (), (), (), 0)\n"
            "try:\n"
            "    reduce_in_place(e, r)\n"
            "except InvariantViolated as exc:\n"
            "    print('refused:', exc)\n"
        )
        src = str(Path(twodist.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out.startswith("refused: L2.2 at 1 did not shrink the graph")


class TestProperness:
    def test_l2_2_on_c6(self):
        g = gadgets.cycle(6)
        r = match_case("L2.2", Embedding(g))
        assert check_properness(Embedding(g), r)

    def test_adversarial_deletion_fails(self):
        # deleting the tripod center with no repairs breaks pairs like (1,4)
        g = gadgets.nine_cycle_tripod()
        bad = Reduction(
            lemma="L2.2",
            case=None,
            vertex=10,
            pending=(10,),
            delete_vertices=(10,),
            delete_edges=(),
            add_edges=(),
            d2_bound=2 * g.max_degree(),
        )
        e = Embedding(g)
        assert not check_properness(e, bad)
        assert not bruteforce.properness_exhaustive(
            g, e.snapshot(), gadgets.dense_ids(e), bad.pending
        )

    def test_a_chord_goes_where_the_centre_was(self):
        # every row that matches here reduces properly, those whose chords
        # leave vertex 1 from the face that visits it twice included
        g = gadgets.chord_at_a_repeated_visit()
        matched = set()
        for tag, _ in MATCHER_ORDER:
            e = Embedding(g)
            r = match_case(tag, e)
            if r is None:
                continue
            matched.add(tag)
            assert check_properness(e, r), tag
            assert bruteforce.properness_exhaustive(
                g, e.snapshot(), gadgets.dense_ids(e), r.pending
            ), tag
        assert {"L2.6.1", "L2.6.4"} <= matched

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_ball_check_agrees_with_exhaustive(self, seed):
        # the locality-restricted check must equal the full-square reference
        g = gen_planar(8 + seed % 30, min_delta=0, seed=seed)
        outcome = find_reduction(Embedding(g))
        if not isinstance(outcome, Reduction):
            return
        try:
            reduce_in_place(Embedding(g), outcome)
        except Exception:
            return  # small-delta graphs may lack degree headroom
        e = Embedding(g)
        fast = check_properness(e, outcome)
        slow = bruteforce.properness_exhaustive(
            g, e.snapshot(), gadgets.dense_ids(e), outcome.pending
        )
        assert fast == slow

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_catalog_reductions_are_sound_on_random_graphs(self, seed):
        # every step, checked in place down to the base case
        walk([gen_planar(12 + seed % 60, min_delta=6, seed=seed)])

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_check_leaves_the_reduction_in_force(self, seed):
        g = gen_planar(12 + seed % 40, min_delta=6, seed=seed)
        e = Embedding(g)
        before = state(e)
        r = find_reduction(e)
        check_properness(e, r)
        fresh = Embedding(g)
        reduce_in_place(fresh, r)
        assert state(e) == state(fresh)
        e.undo()
        assert state(e) == before


class TestReduceCommand:
    def test_prints_the_input_ids(self, tmp_path, capsys):
        # after K2 loses vertex 1, vertex 2 is left alone with degree 0
        gfile = tmp_path / "k2.graph"
        gfile.write_text("p 2 1\nr 1 1 2\nr 2 1 1\n")
        assert main(["reduce", str(gfile), "--steps", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("step 0: L2.2 at 1, bound 2,")
        assert lines[1].startswith("step 1: L2.2 at 2, bound 0,")

    def test_follows_a_first_part_copied_out(self, tmp_path, capsys):
        # at step 2 the first part is the smaller, copied out of the input's
        # Embedding; the output is the one from before the copy existed
        gfile = tmp_path / "g.graph"
        gfile.write_text(write_graph(gadgets.reversed_ids(gen_planar(60, 6, 4))))
        assert main(["reduce", str(gfile), "--steps", "8", "--trace"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "step 0: L2.1 split at 47 -> n=58+3; following first part",
            "step 1: L2.1 split at 55 -> n=57+2; following first part",
            "step 2: L2.1 split at 60 -> n=2+56; following first part",
            "step 3: L2.2 at 1, bound 2, delete [1], add [], proper=yes",
            "  pending [1]; result n=1 m=0",
            "step 4: L2.2 at 60, bound 0, delete [60], add [], proper=yes",
            "  pending [60]; result n=0 m=0",
        ]

    def test_holds_no_undo_history(self, tmp_path, capsys, monkeypatch):
        # each step, a split's too, makes the one before it final, so at
        # each catalog call of a 60-step run (eleven splits among them) the
        # Embedding holds at most one frame: none when first seen, and that
        # of its last step afterwards
        gfile = tmp_path / "g.graph"
        gfile.write_text(write_graph(gen_planar(200, 6, 5)))
        seen, in_force, expected = {}, [], []

        def counted(e):
            expected.append(int(id(e) in seen))
            seen[id(e)] = e  # held, so no id is reused
            in_force.append(gadgets.in_force(e))
            return find_reduction(e)

        monkeypatch.setattr(cli, "find_reduction", counted)
        assert main(["reduce", str(gfile), "--steps", "60"]) == 0
        assert "split" in capsys.readouterr().out
        assert len(in_force) == 60 and in_force == expected

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_follows_the_engine(self, seed, tmp_path, capsys):
        # both follow the first part of every split, so the lemmas agree
        # until the engine colors its first base case
        g = gen_planar(60, 6, seed)
        outcomes = []
        trace = RunTrace(graph_hook=lambda e, outcome: outcomes.append(outcome))
        color(g, trace=trace)
        k = outcomes.index(None)
        gfile = tmp_path / "g.graph"
        gfile.write_text(write_graph(g))
        assert main(["reduce", str(gfile), "--steps", str(k)]) == 0
        lines = capsys.readouterr().out.splitlines()
        printed = [line.split()[2] for line in lines if line.startswith("step")]
        assert printed == [lemma for lemma, *_ in trace.steps[:k]]


def test_l2_10_1_bound_on_its_model_graph():
    """Pins what the catalog says today on the L2.10.1 model at Delta = 6
    (tests/data/l2_10_1_model.graph): the row fires at the centre with
    d2_bound 19 = 3*Delta + 1, yet the centre has 20 = 3*Delta + 2 vertices
    within distance 2.  On a graph where the row fired first, giving those
    20 distinct colors would leave the centre none.  Here L2.1 fires first,
    on the pendants.  A fix to the row changes this test on purpose."""
    text = (Path(__file__).parent / "data" / "l2_10_1_model.graph").read_text()
    g = twodist.parse_graph(text)  # PlanarGraph accepts it
    assert (g.n, g.max_degree(), g.degree(1)) == (21, 6, 5)
    e = Embedding(g)
    r = match_case("L2.10.1", e)
    assert (r.vertex, r.d2_bound) == (1, 19)
    assert len(distance_profile(e, 1)) == 20
    assert find_reduction(e).lemma == "L2.1"
