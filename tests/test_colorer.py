import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
import gadgets
from twodist import (
    Coloring,
    Embedding,
    NoSafeColor,
    PermutationInfeasible,
    PlanarGraph,
    Reduction,
    RunTrace,
    chi2_exact,
    color,
    find_reduction,
    gen_planar,
    match_case,
    verify_coloring,
)
from twodist.colorer import extend, merge_at_cut
from twodist.planar import distance_profile, distance_walk

seeds = st.integers(min_value=0, max_value=10**6)


class TestVerifyColoring:
    def test_rainbow_is_valid(self):
        g = gadgets.wheel(6)
        c = Coloring({v: v for v in g.vertices()}, budget=7)
        report = verify_coloring(g, c)
        assert report.valid and report.colors_used == 7

    def test_c5_with_three_colors_fails(self):
        g = gadgets.cycle(5)
        c = Coloring({1: 1, 2: 2, 3: 3, 4: 1, 5: 2}, budget=3)
        report = verify_coloring(g, c)
        assert not report.valid
        assert report.violations
        (u, v, dist, col) = report.violations[0]
        assert 1 <= dist <= 2

    def test_out_of_budget_color_reported(self):
        g = gadgets.path(3)
        report = verify_coloring(g, Coloring({1: 9}, budget=3))
        assert not report.valid
        assert report.violations[0][2] == 0  # budget violation marker

    def test_partial_coloring_is_invalid(self):
        # no two colored vertices clash, but four are missing and 9 is no vertex
        g = gadgets.cycle(6)
        report = verify_coloring(g, Coloring({1: 1, 4: 1, 9: 2}, budget=3))
        assert not report.valid
        assert report.violations == []
        assert report.uncolored == [2, 3, 5, 6]
        assert report.unknown == [9]

    def test_color_that_is_not_an_int_is_a_violation(self):
        g = PlanarGraph([(2,), (1,)])
        report = verify_coloring(g, Coloring({1: 1.5, 2: 2}, budget=3))
        assert not report.valid and report.violations == [(1, 1, 0, 1.5)]
        report = verify_coloring(g, Coloring({1: 1, 2: None}, budget=3))
        assert not report.valid and report.violations == [(2, 2, 0, None)]

    def test_id_that_is_not_an_int_is_unknown(self):
        g = PlanarGraph([(2,), (1,)])
        report = verify_coloring(g, Coloring({1.0: 1, 2: 2}, budget=3))
        assert (report.valid, report.uncolored, report.unknown) == (False, [1], [1.0])
        report = verify_coloring(g, Coloring({"x": 3, 1: 1, 2: 2}, budget=3))
        assert (report.valid, report.uncolored, report.unknown) == (False, [], ["x"])

    def test_bool_id_is_unknown_and_bool_color_a_violation(self):
        g = PlanarGraph([(2,), (1,)])
        report = verify_coloring(g, Coloring({True: 1, 2: 2}, budget=3))
        assert (report.valid, report.uncolored, report.unknown) == (False, [1], [True])
        report = verify_coloring(g, Coloring({1: True, 2: 2}, budget=3))
        assert not report.valid and report.violations == [(1, 1, 0, True)]

    @pytest.mark.parametrize("budget", [2.5, True, "3", None])
    def test_budget_that_is_not_an_int_makes_every_color_a_violation(self, budget):
        g = PlanarGraph([(2,), (1,)])
        report = verify_coloring(g, Coloring({1: 1, 2: 2}, budget=budget))
        assert not report.valid
        assert report.violations == [(1, 1, 0, 1), (2, 2, 0, 2)]
        assert report.colors_used == 0

    def test_unhashable_color_is_a_violation(self):
        g = PlanarGraph([(2,), (1,)])
        report = verify_coloring(g, Coloring({1: [1], 2: 2}, budget=3))
        assert not report.valid and report.violations == [(1, 1, 0, [1])]
        assert report.colors_used == 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(
            st.one_of(
                st.integers(-1, 6),
                st.booleans(),
                st.floats(allow_nan=False),
                st.none(),
                st.text(max_size=2),
            ),
            st.one_of(
                st.integers(-1, 4),
                st.booleans(),
                st.floats(),
                st.none(),
                st.text(max_size=2),
                st.lists(st.integers(1, 3), max_size=2),
            ),
            max_size=8,
        )
    )
    def test_any_ids_and_colors_are_reported_in_a_fixed_order(self, assignment):
        g = gadgets.path(4)
        report = verify_coloring(g, Coloring(assignment, budget=3))

        def is_vertex(v):
            return type(v) is int and 1 <= v <= g.n

        def is_color(col):
            return type(col) is int and 1 <= col <= 3

        assert sorted(map(repr, report.unknown)) == sorted(
            repr(v) for v in assignment if not is_vertex(v)
        )
        colored = [v for v in assignment if is_vertex(v)]
        assert report.uncolored == [v for v in g.vertices() if v not in colored]
        bad = [(v, col) for v, col in assignment.items() if not is_color(col)]
        assert sorted(repr((v, col)) for v, _, dist, col in report.violations if dist == 0) == sorted(
            repr(vc) for vc in bad
        )
        assert report.valid == (not (report.unknown or report.uncolored or report.violations))
        assert report.colors_used == len({col for col in assignment.values() if is_color(col)})
        reordered = dict(reversed(list(assignment.items())))
        assert verify_coloring(g, Coloring(reordered, budget=3)) == report

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            st.builds(lambda n, s: gen_planar(n, seed=s), st.integers(4, 18), seeds),
            st.sampled_from(
                [gadgets.wheel(6), gadgets.star(5), gadgets.cube(), gadgets.two_triangles()]
            ),
        ),
        st.data(),
    )
    def test_clashes_are_the_brute_force_pairs(self, g, data):
        # equal colors compare with ==, across types (1, 1.0, True) and for
        # lists; a vertex may stay uncolored
        colors = st.one_of(
            st.integers(1, 4),
            st.just(1.0),
            st.just(True),
            st.lists(st.integers(1, 2), max_size=2),
        )
        assignment = {}
        for v in g.vertices():
            col = data.draw(st.one_of(st.none(), colors))
            if col is not None:
                assignment[v] = col
        report = verify_coloring(g, Coloring(assignment, budget=4))
        expected = []
        for u in g.vertices():
            for w, d in sorted(bruteforce.bfs_distances(g, u).items()):
                if u < w and d <= 2 and u in assignment and w in assignment:
                    if assignment[w] == assignment[u]:
                        expected.append((u, w, d, repr(assignment[u])))
        clashes = [(u, w, d, repr(col)) for u, w, d, col in report.violations if d > 0]
        assert clashes == expected


class TestColor:
    def test_star_uses_exactly_seven(self):
        g = gadgets.star(6)
        c = color(g)  # budget 3*6+2 = 20
        assert c.budget == 20
        assert verify_coloring(g, c).valid
        assert c.colors_used == 7  # oracle-exact base case

    def test_wheel6_uses_exactly_seven(self):
        g = gadgets.wheel(6)
        c = color(g)
        assert verify_coloring(g, c).valid
        assert c.colors_used == 7

    def test_empty_graph(self):
        c = color(PlanarGraph([]))
        assert c.assignment == {}

    def test_c6_with_budget_eight(self):
        g = gadgets.cycle(6)
        c = color(g, k=8)
        assert verify_coloring(g, c).valid
        assert c.colors_used <= 8

    def test_dodecahedron_uses_greedy_fallback(self):
        # the catalog runs dry (delta 3), but greedy fits into 3*3+2 colors
        g = gadgets.dodecahedron()
        c = color(g)
        assert verify_coloring(g, c).valid
        assert c.colors_used <= c.budget == 11

    def test_budget_exhausted_carries_the_gap(self):
        from twodist import BudgetExhausted

        g = gadgets.dodecahedron()
        with pytest.raises(BudgetExhausted) as exc:
            color(g, k=2)  # far too few colors for the greedy fallback
        assert exc.value.gap is not None
        assert exc.value.gap.delta == 3

    def test_budget_exhausted_at_the_base_case(self):
        from twodist import BudgetExhausted

        # the octahedron is small enough for the exact base case, which
        # finds no 2-distance coloring in 2 colors
        with pytest.raises(BudgetExhausted, match="^base case n=6 needs more than 2 colors$"):
            color(gadgets.octahedron(), k=2)

    def test_cut_vertex_recursion(self):
        g = gadgets.two_triangles()
        c = color(g, k=20)
        assert verify_coloring(g, c).valid

    def test_trace_records_steps_and_bounds(self):
        g = gen_planar(60, min_delta=6, seed=5)
        trace = RunTrace()
        c = color(g, trace=trace)
        assert verify_coloring(g, c).valid
        assert trace.steps
        assert not trace.gaps
        # each step strictly shrinks |V| + |E|, so the depth is capped by it
        assert len(trace.steps) <= g.n + g.m
        for (v, lemma, forbidden, near, bound) in trace.extensions:
            assert forbidden <= near and (bound is None or near <= bound)
            assert forbidden < c.budget

    def test_each_pending_walk_holds_its_distance_2_set(self, small_corpus):
        # read before each reduction, a pending vertex's distance_walk less
        # the vertex is its exact distance-2 set, and the trace counts that
        # set's size, however the walk repeats ids
        for g in small_corpus:
            seen = []

            def hook(e, outcome):
                if isinstance(outcome, Reduction) and outcome.split is None:
                    for v in outcome.pending:
                        profile = distance_profile(e, v)
                        assert profile == set(distance_walk(e, v)) - {v}
                        seen.append((v, outcome.lemma, len(profile)))

            trace = RunTrace(graph_hook=hook)
            assert verify_coloring(g, color(g, trace=trace)).valid
            assert seen
            extended = [(v, lemma, near) for v, lemma, _, near, _ in trace.extensions]
            assert Counter(extended) == Counter(seen)

    def test_leaves_the_recursion_limit_alone(self):
        limit = sys.getrecursionlimit()
        seen = []
        trace = RunTrace(graph_hook=lambda g, outcome: seen.append(sys.getrecursionlimit()))
        color(gen_planar(200, min_delta=6, seed=1), trace=trace)
        assert seen and set(seen) == {limit}
        # about 1200 steps deep, past the default recursion limit of 1000
        g = gadgets.cycle(1201)
        assert verify_coloring(g, color(g)).valid

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_guarantee_on_random_graphs(self, seed):
        g = gen_planar(12 + seed % 50, min_delta=6, seed=seed)
        c = color(g)
        assert c.budget == 3 * g.max_degree() + 2
        assert verify_coloring(g, c).valid
        assert c.colors_used <= c.budget

    def test_oracle_dominance_on_small_instances(self):
        for g in (gadgets.wheel(6), gadgets.octahedron(), gadgets.cube()):
            exact = chi2_exact(Embedding(g))
            assert exact.exact
            k = max(exact.chi2, 3 * g.max_degree() + 2)
            assert color(g, k=k).colors_used >= exact.chi2


class TestExtend:
    def test_smallest_free_color(self):
        e = Embedding(gadgets.cycle(6))
        reduction = find_reduction(e)
        assert reduction.lemma == "L2.2"
        partial = Coloring({2: 1, 3: 2, 4: 1, 5: 2, 6: 3}, budget=8)
        out = extend(partial, {1: distance_profile(e, 1)})
        # vertex 1 sees 2, 6 (adjacent) and 3, 5 (distance 2): colors {1,2,3}
        assert out.assignment[1] == 4

    def test_changes_only_pending(self):
        e = Embedding(gadgets.cycle(6))
        partial = Coloring({2: 1, 3: 2, 4: 1, 5: 2, 6: 3}, budget=8)
        before = dict(partial.assignment)
        out = extend(partial, {1: distance_profile(e, 1)})
        # extend colours in place and returns the colouring it was given
        assert out is partial
        assert {v: out.assignment[v] for v in before} == before
        assert out.assignment.keys() == before.keys() | {1}

    def test_no_safe_color(self):
        e = Embedding(gadgets.star(6))
        partial = Coloring({v: v - 1 for v in range(2, 8)}, budget=6)
        with pytest.raises(NoSafeColor):
            extend(partial, {1: distance_profile(e, 1)})

    def test_l2_11_case1_pending_pair(self):
        # read the pending vertices' distance-2 sets, apply the spoke
        # deletion by hand, color the rest, then extend both pending
        # vertices; they are distance-2 in the host so must differ
        g = gadgets.g_L2_11()
        e = Embedding(g)
        r = match_case("L2.11", e)  # find_reduction would pick L2.2 first
        assert r.lemma == "L2.11.case1" and r.pending == (1, 5)
        near = {v: distance_profile(e, v) for v in r.pending}
        e.apply(delete_edges=r.delete_edges)
        base = color(e.snapshot(), k=20)
        partial = Coloring(
            {v: col for v, col in base.assignment.items() if v not in r.pending},
            budget=20,
        )
        out = extend(partial, near, reduction=r)
        assert verify_coloring(g, out).valid
        assert out.assignment[1] != out.assignment[5]


class TestMergeAtCut:
    def test_two_triangles(self):
        g = gadgets.two_triangles()
        e, sides = Embedding(g), []
        for side in gadgets.split_sides(e, 1):
            part = e.part(side | {1})
            sub = color(part.snapshot(), k=20).assignment
            rename = gadgets.dense_ids(part)
            sides.append(Coloring({old: sub[new] for old, new in rename.items()}, 20))
        merged = merge_at_cut(*sides, 1, frozenset(g.adj(1)))
        assert verify_coloring(g, merged).valid

    def test_identical_colorings_get_repaired(self):
        g = gadgets.two_triangles()
        # both triangles colored with the same palette; the merge must
        # separate the two neighbor pairs of the cut vertex
        c1 = Coloring({1: 1, 2: 2, 3: 3}, budget=20)
        c2 = Coloring({1: 1, 4: 2, 5: 3}, budget=20)
        merged = merge_at_cut(c1, c2, 1, frozenset(g.adj(1)))
        assert verify_coloring(g, merged).valid
        assert merged.assignment[1] == 1
        assert {merged.assignment[2], merged.assignment[3]}.isdisjoint(
            {merged.assignment[4], merged.assignment[5]}
        )

    def test_too_small_a_palette_is_infeasible(self):
        # around the cut vertex the first side blocks {1, 2, 3} and the
        # second side's two neighbor colors need two of what is left: {4}
        g = gadgets.two_triangles()
        c1 = Coloring({1: 1, 2: 2, 3: 3}, budget=4)
        c2 = Coloring({1: 1, 4: 2, 5: 3}, budget=4)
        with pytest.raises(PermutationInfeasible):
            merge_at_cut(c1, c2, 1, frozenset(g.adj(1)))
        assert c1.assignment == {1: 1, 2: 2, 3: 3}  # the merge writes into c1

    def test_first_side_never_changes(self):
        g = gadgets.two_triangles()
        c1 = Coloring({1: 5, 2: 2, 3: 3}, budget=20)
        c2 = Coloring({1: 5, 4: 2, 5: 9}, budget=20)
        before = dict(c1.assignment)  # the merge adds the second side to c1
        merged = merge_at_cut(c1, c2, 1, frozenset(g.adj(1)))
        for v, col in before.items():
            assert merged.assignment[v] == col
        assert list(merged.assignment)[:3] == list(before)

    def test_permutation_is_global_bijection(self):
        # second-side colors move by one injective map: equal colors stay
        # equal and distinct colors stay distinct
        g = gadgets.two_triangles()
        c1 = Coloring({1: 1, 2: 2, 3: 3}, budget=20)
        c2 = Coloring({1: 1, 4: 3, 5: 2}, budget=20)
        merged = merge_at_cut(c1, c2, 1, frozenset(g.adj(1)))
        assert verify_coloring(g, merged).valid
        mapping = {}
        for v, col in c2.assignment.items():
            target = merged.assignment[v]
            assert mapping.setdefault(col, target) == target
        assert len(set(mapping.values())) == len(mapping)

    def test_single_edge_side(self):
        # G2 is one edge whose far end clashes with a first-side neighbor
        coords = {1: (0.0, 0.0), 2: (1.0, 0.6), 3: (1.0, -0.6), 4: (-1.0, 0.0)}
        g = gadgets.embed(coords, [(1, 2), (1, 3), (2, 3), (1, 4)])
        c1 = Coloring({1: 1, 2: 2, 3: 3}, budget=20)
        c2 = Coloring({1: 1, 4: 2}, budget=20)
        merged = merge_at_cut(c1, c2, 1, frozenset(g.adj(1)))
        assert verify_coloring(g, merged).valid
        assert merged.assignment[4] not in {1, 2, 3}


def extend_by_loops(partial, near, reduction=None, trace=None):
    """``extend`` in its earlier loop form: the forbidden colors by a
    comprehension, the free one by counting up from 1."""
    assignment = partial.assignment
    k = partial.budget
    for v, profile in near.items():
        forbidden = {assignment[u] for u in profile if u in assignment}
        if trace is not None:
            bound = reduction.d2_bound if reduction is not None else None
            lemma = reduction.lemma if reduction is not None else "-"
            trace.extensions.append((v, lemma, len(forbidden), len(profile), bound))
        if len(forbidden) >= k:
            raise NoSafeColor(f"all {k} colors forbidden at vertex {v}")
        c = 1
        while c in forbidden:
            c += 1
        assignment[v] = c
    return partial


def merge_by_loops(c1, c2, v, nbrs):
    """``merge_at_cut`` in its earlier loop form: the free colors by a
    comprehension over the palette, the second side mapped vertex by vertex."""
    k = c1.budget
    base = c1.assignment[v]
    nbr1_colors = {c1.assignment[u] for u in nbrs if u in c1.assignment}
    nbr2_colors = sorted(
        {c2.assignment[u] for u in nbrs if u in c2.assignment} - {c2.assignment[v]}
    )
    free = [c for c in range(1, k + 1) if c not in nbr1_colors and c != base]
    if len(nbr2_colors) > len(free):
        raise PermutationInfeasible(f"palette of {k} too small to merge at vertex {v}")
    perm = dict(zip(nbr2_colors, free))
    perm[c2.assignment[v]] = base
    spare = set(range(1, k + 1)).difference(perm.values())
    unmapped = set(range(1, k + 1)).difference(perm)
    perm.update((c, c) for c in unmapped & spare)
    perm.update(zip(sorted(unmapped - spare), sorted(spare - unmapped)))
    merged = dict(c1.assignment)
    for u, col in c2.assignment.items():
        if u != v:
            merged[u] = perm[col]
    return Coloring(merged, k)


def outcome(fn, *args):
    """What fn returns, as its assignment in key order, or the type it raises."""
    try:
        return list(fn(*args).assignment.items())
    except (NoSafeColor, PermutationInfeasible) as exc:
        return type(exc)


@st.composite
def palettes(draw):
    """A budget and a coloring of some of the ids 1..15 within it."""
    k = draw(st.integers(1, 12))
    ids = draw(st.sets(st.integers(1, 15), max_size=15))
    return k, {v: draw(st.integers(1, k)) for v in sorted(ids)}


class TestPaletteRewrites:
    """``extend`` and ``merge_at_cut`` gather their colors with C-level set
    operations; on any input they must give what the loop forms give, and
    refuse alike."""

    @settings(max_examples=300, deadline=None)
    @given(palettes(), st.data())
    def test_extend_equals_the_loops(self, palette, data):
        k, assignment = palette
        pending = data.draw(st.lists(st.integers(1, 15), unique=True, max_size=4))
        near = {
            v: frozenset(data.draw(st.sets(st.integers(1, 15).filter(lambda u: u != v))))
            for v in pending
        }
        r = Reduction("L2.2", None, 1, (1,), (1,), (), (), 2 * k)
        traces = RunTrace(), RunTrace()
        got = outcome(extend, Coloring(dict(assignment), k), near, r, traces[0])
        want = outcome(extend_by_loops, Coloring(dict(assignment), k), near, r, traces[1])
        assert got == want
        assert traces[0].extensions == traces[1].extensions

    @settings(max_examples=300, deadline=None)
    @given(palettes(), st.data())
    def test_extend_reads_a_tuple_as_it_reads_a_frozenset(self, palette, data):
        # a tuple of the distance-2 ids, in any order, reads as their set
        k, assignment = palette
        pending = data.draw(st.lists(st.integers(1, 15), unique=True, max_size=4))
        sets = {v: frozenset(data.draw(st.sets(st.integers(1, 15)))) - {v} for v in pending}
        tuples = {v: tuple(data.draw(st.permutations(sorted(near)))) for v, near in sets.items()}
        r = Reduction("L2.2", None, 1, (1,), (1,), (), (), 2 * k)
        traces = RunTrace(), RunTrace()
        got = outcome(extend, Coloring(dict(assignment), k), tuples, r, traces[0])
        want = outcome(extend, Coloring(dict(assignment), k), sets, r, traces[1])
        assert got == want
        assert traces[0].extensions == traces[1].extensions

    @settings(max_examples=300, deadline=None)
    @given(palettes(), st.data())
    def test_extend_reads_a_walk_as_it_reads_the_set(self, palette, data):
        # the engine passes each pending vertex's distance_walk: the set's
        # ids with repeats and the vertex itself, which is uncolored then
        k, assignment = palette
        pending = data.draw(st.lists(st.integers(1, 15), unique=True, max_size=4))
        for v in pending:
            assignment.pop(v, None)
        sets = {v: frozenset(data.draw(st.sets(st.integers(1, 15)))) - {v} for v in pending}
        walks = {}
        for v, near in sets.items():
            repeats = data.draw(st.lists(st.sampled_from(sorted(near | {v})), max_size=8))
            walks[v] = tuple(data.draw(st.permutations([*near, v, *repeats])))
        r = Reduction("L2.2", None, 1, (1,), (1,), (), (), 2 * k)
        traces = RunTrace(), RunTrace()
        got = outcome(extend, Coloring(dict(assignment), k), walks, r, traces[0])
        want = outcome(extend, Coloring(dict(assignment), k), sets, r, traces[1])
        assert got == want
        assert traces[0].extensions == traces[1].extensions

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_merge_at_cut_equals_the_loops(self, k, data):
        # the cut vertex 1, the first side's other ids below 9, the second's above
        colors = st.integers(1, k)
        first = {1: data.draw(colors)}
        first.update((u, data.draw(colors)) for u in data.draw(st.sets(st.integers(2, 8))))
        second = {1: data.draw(colors)}
        second.update((u, data.draw(colors)) for u in data.draw(st.sets(st.integers(9, 15))))
        nbrs = frozenset(data.draw(st.sets(st.integers(2, 15))))  # may hold ids of neither
        c1 = Coloring(dict(first), k)  # merge_at_cut writes into it
        got = outcome(merge_at_cut, c1, Coloring(second, k), 1, nbrs)
        want = outcome(merge_by_loops, Coloring(first, k), Coloring(second, k), 1, nbrs)
        assert got == want
        if got is PermutationInfeasible:
            assert c1.assignment == first
