"""Acceptance criteria, one test per criterion.

Each test prints a single pass line (visible with -s or in captured output)
and enforces the stated tolerance: exact rational equality for charges,
100% validity for colorings, zero catalog gaps, zero soundness violations,
and bit-for-bit determinism.
"""

import hashlib
import time
from fractions import Fraction

import pytest

import gadgets
from conftest import corpus_specs
from twodist import (
    Reduction,
    RunTrace,
    audit,
    chi2_exact,
    check_properness,
    classify_all,
    color,
    find_reduction,
    gen_planar,
    hunt,
    match_case,
    parse_graph,
    verify_coloring,
    write_coloring,
    write_graph,
)
from twodist.discharge import apply_rules, face_keys, initial_charges
from twodist.planar import Embedding, distance_profile
from twodist.reductions import reduce_in_place
from twodist.workbench import format_audit_tsv

import bruteforce
import test_reductions

MINUS_EIGHT = Fraction(-8)


def hand_corpus():
    graphs = [
        gadgets.complete4(),
        gadgets.cycle(5),
        gadgets.cycle(6),
        gadgets.star(6),
        gadgets.wheel(6),
        gadgets.octahedron(),
        gadgets.cube(),
        gadgets.icosahedron(),
        gadgets.two_triangles(),
        gadgets.grid_plus(),
        gadgets.wheel_minus_rim(4),
        gadgets.g_L2_5_2(),
        gadgets.g_L2_6(True),
        gadgets.g_L2_6(False),
        gadgets.g_L2_6(True, four_faces=2),
        gadgets.g_L2_7_1(),
        gadgets.g_L2_7_2(True),
        gadgets.g_L2_8({2: 6, 3: 6}, (4, 5)),
        gadgets.g_L2_9_3(),
        gadgets.g_L2_10_3(),
        gadgets.g_L2_11(),
        gadgets.g_L2_11(delta7=True),
        test_reductions.dodecahedron(),
    ]
    return graphs


@pytest.fixture(scope="session")
def colorings(corpus):
    """Criterion 3's full run, shared with criteria 4 and 5."""
    results = []
    start = time.perf_counter()
    for g in corpus:
        trace = RunTrace()
        c = color(g, trace=trace)
        results.append((g, c, trace))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_euler_charge_identity(corpus):
    graphs = corpus + hand_corpus()
    start = time.perf_counter()
    for g in graphs:
        assert audit(g, cross_reference=False).total == MINUS_EIGHT
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0, f"audit sweep took {elapsed:.1f}s"

    # the hunter audits every intermediate graph of every run too
    report = hunt(trials=8, n=48, min_delta=6, seed=2400)
    assert set(report.audit_totals) == {"-8"}
    print(
        f"\n[criterion 1] PASS: audit total -8/-8 exact on {len(graphs)} graphs "
        f"and {sum(report.audit_totals.values())} recursion intermediates "
        f"({elapsed:.1f}s)"
    )


def test_criterion_2_rule_conservation(corpus):
    checked_faces = 0
    for g in corpus:
        start = initial_charges(g)
        ledger = apply_rules(g, start, classify_all(g))

        sent: dict[str, Fraction] = {}
        received: dict[str, Fraction] = {}
        v = dict(start.vertex_charge)
        f = dict(start.face_charge)
        for t in ledger.transfers:
            sent[t.rule] = sent.get(t.rule, Fraction(0)) + t.amount
            received[t.rule] = received.get(t.rule, Fraction(0)) + t.amount
            kind, key = t.source
            (v if kind == "vertex" else f)[key] -= t.amount
            kind, key = t.target
            (v if kind == "vertex" else f)[key] += t.amount
        assert sent == received
        assert v == ledger.vertex_charge and f == ledger.face_charge

        for key, face in zip(face_keys(g), g.faces):
            if len(face) == 3:
                checked_faces += 1
                assert ledger.face_charge[key] == 0
    print(
        f"\n[criterion 2] PASS: per-rule flows balance exactly on "
        f"{len(corpus)} graphs; all {checked_faces} 3-faces end at 0"
    )


def test_criterion_3_coloring_guarantee(colorings):
    results, elapsed = colorings
    assert elapsed <= 300.0, f"coloring took {elapsed:.1f}s"
    for g, c, _ in results:
        budget = 3 * g.max_degree() + 2
        assert c.budget == budget
        report = verify_coloring(g, c)
        assert report.valid, f"invalid coloring on {g}"
        assert c.colors_used <= budget
    print(
        f"\n[criterion 3] PASS: {len(results)}/{len(results)} colorings valid "
        f"within 3*Delta+2 ({elapsed:.1f}s)"
    )


def test_criterion_4_no_proof_gaps(colorings):
    results, _ = colorings
    steps = 0
    in_scope_gaps = []
    for _, _, trace in results:
        steps += len(trace.steps)
        in_scope_gaps += [gap for gap in trace.gaps if gap.delta >= 6]
    assert in_scope_gaps == []
    print(
        f"\n[criterion 4] PASS: 0 catalog gaps with Delta >= 6 across "
        f"{steps} reduction steps in {len(results)} recursions"
    )


def within_bound(e, r):
    """Every vertex r leaves pending has at most r.d2_bound vertices within
    distance 2 in e, before r is applied."""
    return all(len(distance_profile(e, v)) <= r.d2_bound for v in r.pending)


def test_criterion_5_reduction_soundness(colorings, corpus):
    # bound honesty, measured at every extension of every recursion: the
    # vertices within distance 2, not only their distinct colors
    results, _ = colorings
    extensions = 0
    for g, c, trace in results:
        for (v, lemma, forbidden, near, bound) in trace.extensions:
            extensions += 1
            assert bound is not None and forbidden <= near <= bound
            assert forbidden < c.budget

    # distance-2 preservation, size decrease, the degree cap and the
    # vertex count behind each bound, re-derived step by step on a
    # sub-corpus plus every hand gadget
    sub = [g for g in corpus if g.n <= 100][:150] + hand_corpus()
    reductions_checked = 0
    lemmas_seen = set()
    for start_graph in sub:
        stack = [start_graph]
        while stack:
            g = stack.pop()
            if g.n < 4:
                continue
            e = Embedding(g)
            outcome = find_reduction(e)
            if not isinstance(outcome, Reduction):
                assert outcome.delta < 6
                continue
            assert outcome.d2_bound is None or (
                outcome.d2_bound <= 3 * g.max_degree() + 1
            )
            if outcome.split is not None:
                g1, g2 = (part.snapshot() for part in reduce_in_place(e, outcome))
                assert g1.size() < g.size()
                assert g2.size() < g.size()
                stack += [g1, g2]
                continue
            assert within_bound(e, outcome)
            assert check_properness(e, outcome)
            h = e.snapshot()
            reductions_checked += 1
            lemmas_seen.add(outcome.lemma)
            assert h.size() < g.size()
            assert h.max_degree() <= g.max_degree()
            stack.append(h)

    # the deep catalog entries fire on the hand gadgets by direct match
    import test_reductions as tr

    for tag, build, lemma, _ in tr.CONFIG_CASES:
        g = build()
        e = Embedding(g)
        r = match_case(tag, e)
        assert within_bound(e, r)
        assert check_properness(e, r)
        h = e.snapshot()
        reductions_checked += 1
        lemmas_seen.add(r.lemma)
        assert h.size() < g.size()
        assert h.max_degree() <= g.max_degree()
    for build in (lambda: gadgets.g_L2_11(), lambda: gadgets.g_L2_11(delta7=True)):
        e = Embedding(build())
        r = match_case("L2.11", e)
        reductions_checked += 1
        lemmas_seen.add(r.lemma)
        assert within_bound(e, r)
        assert check_properness(e, r)

    assert {"L2.4", "L2.8.1", "L2.10.3", "L2.11.case1", "L2.11.case2"} <= lemmas_seen
    print(
        f"\n[criterion 5] PASS: 0 violations over {extensions} measured "
        f"extensions and {reductions_checked} properness-checked reductions "
        f"({len(lemmas_seen)} distinct catalog rules exercised)"
    )


def test_criterion_6_oracle_cross_checks():
    start = time.perf_counter()
    expected = {
        "C5": (gadgets.cycle(5), 5),
        "K4": (gadgets.complete4(), 4),
        "K1,6": (gadgets.star(6), 7),
        "W6": (gadgets.wheel(6), 7),
    }
    for name, (g, chi) in expected.items():
        result = chi2_exact(Embedding(g))
        assert result.exact and result.chi2 == chi, name
        assert verify_coloring(g, result.witness).valid

    # W6 via the exhaustive secondary oracle (n <= 9)
    assert bruteforce.brute_chi2(gadgets.wheel(6)) == 7

    # the engine can never beat the exact chromatic number
    for g, chi in expected.values():
        k = max(chi, 3 * g.max_degree() + 2)
        assert color(g, k=k).colors_used >= chi
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0
    print(f"\n[criterion 6] PASS: oracle values confirmed ({elapsed:.2f}s)")


def test_criterion_7_octahedron_golden_audit():
    # hand computation, rule by rule:
    #   initial: six 4-vertices at 0, eight 3-faces at -1, total -8
    #   R1: each vertex pays 1/3 to each of its four 3-faces  -> -4/3
    #   each 3-face collects 3 * 1/3                          -> 0
    #   R2/R3: no 5+-faces, no 3-vertices                     -> nothing
    #   R4: every vertex is a (4,4)-vertex: +4 * 1/3 in, -4 * 1/3 out -> 0
    #   final: vertices -4/3, faces 0, total -8
    g = gadgets.octahedron()
    rep = audit(g)
    assert rep.total == MINUS_EIGHT
    assert all(c == Fraction(-4, 3) for c in rep.final.vertex_charge.values())
    assert all(c == 0 for c in rep.final.face_charge.values())
    assert len(rep.negative_elements) == 6
    assert rep.reduction_lemma == "L2.4"
    print("\n[criterion 7] PASS: octahedron audit matches the hand ledger")


def test_criterion_8_round_trip_and_determinism(corpus, colorings):
    for g in corpus:
        assert parse_graph(write_graph(g)) == g

    specs = corpus_specs()[:40]
    results, _ = colorings
    for (n, seed), (g, c, trace) in zip(specs, results):
        again = gen_planar(n, min_delta=6, seed=seed)
        assert again == g
        assert write_graph(again) == write_graph(g)

        trace2 = RunTrace()
        c2 = color(again, trace=trace2)
        assert c2.assignment == c.assignment
        assert trace2.steps == trace.steps

        outcome = find_reduction(Embedding(g))
        assert outcome == find_reduction(Embedding(again))

        assert format_audit_tsv(g) == format_audit_tsv(again)
    print(
        f"\n[criterion 8] PASS: round-trip identity on {len(corpus)} graphs; "
        f"{len(specs)} seeds reproduce graphs, reductions, colorings and "
        f"audits bit-for-bit"
    )


# sha256 of the traced audits and the corpus colorings, recorded before the
# audit and the engine were refactored; any change to a charge, a transfer,
# a color or a reduction step shows up here.
AUDIT_AND_COLORING_DIGEST = "58060bf03a24725c50e7fb6504e12798fad2d862c5f900217e0aa452585669ba"


def test_audits_and_colorings_match_recorded_digest(corpus, colorings):
    digest = hashlib.sha256()
    for i, g in enumerate(hand_corpus() + corpus[:100]):
        digest.update(f"audit {i}\n".encode())
        digest.update(format_audit_tsv(g, with_trace=True).encode())
    results, _ = colorings
    for i, (_, c, trace) in enumerate(results):
        digest.update(f"coloring {i} budget {c.budget}\n".encode())
        digest.update(write_coloring(c).encode())
        digest.update(f"{trace.steps!r}\n".encode())
    assert digest.hexdigest() == AUDIT_AND_COLORING_DIGEST
