import ast
import hashlib
import math
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import gadgets
from test_acceptance import hand_corpus
from twodist import classify, discharge, reductions
from twodist import audit, classify_all, gen_planar
from twodist.discharge import (
    RULE_AMOUNTS,
    UNIT,
    apply_rules,
    face_keys,
    initial_charges,
)

seeds = st.integers(min_value=0, max_value=10**6)
F = Fraction

# sha256 over the negative elements, labels included, of each hand graph
NEGATIVE_ELEMENTS_DIGEST = "23fa80b186a7ee5b267d665f622ebafbf463950590998a2bbc9e912cc5dbbbb1"


def full_ledger(g):
    return apply_rules(g, initial_charges(g), classify_all(g))


class TestInitialCharges:
    def test_octahedron(self):
        g = gadgets.octahedron()
        ledger = initial_charges(g)
        assert all(c == 0 for c in ledger.vertex_charge.values())
        assert all(c == -1 for c in ledger.face_charge.values())
        assert ledger.total() == -8

    def test_c6(self):
        g = gadgets.cycle(6)
        ledger = initial_charges(g)
        assert all(c == -2 for c in ledger.vertex_charge.values())
        assert all(c == 2 for c in ledger.face_charge.values())
        assert ledger.total() == -8

    def test_wheel6(self):
        # hub +2, rim -1 each, six 3-faces -1 each, outer 6-face +2
        g = gadgets.wheel(6)
        ledger = initial_charges(g)
        assert ledger.vertex_charge[1] == 2
        assert all(ledger.vertex_charge[v] == -1 for v in range(2, 8))
        assert sorted(ledger.face_charge.values()) == [-1] * 6 + [2]
        assert ledger.total() == -8


class TestUnits:
    def test_rule_amounts_are_whole_units(self):
        # every denominator divides 180, so the ledger runs on ints
        assert UNIT == math.lcm(*(a.denominator for a in RULE_AMOUNTS)) == 180
        amounts = [
            discharge._R1,
            discharge._R2_TO_3_VERTEX,
            discharge._R2_TO_OTHER,
        ]
        amounts += [units for _, units in discharge._INCOME.values()]
        for units in amounts:
            assert type(units) is int
            assert F(units, UNIT) in RULE_AMOUNTS


class TestApplyRules:
    def test_three_faces_end_at_zero(self, small_corpus):
        for g in small_corpus[:15]:
            ledger = full_ledger(g)
            for key, f in zip(face_keys(g), g.faces):
                if len(f) == 3:
                    assert ledger.face_charge[key] == 0

    def test_octahedron_final(self):
        # R1 drains 4/3 from each vertex; R4 income and outgo cancel on a
        # 4-regular triangulation, leaving every vertex at -4/3
        ledger = full_ledger(gadgets.octahedron())
        assert all(c == F(-4, 3) for c in ledger.vertex_charge.values())
        assert all(c == 0 for c in ledger.face_charge.values())
        assert ledger.total() == -8

    def test_c6_rules_do_nothing(self):
        # no 3-faces; the 2-vertices are not 3-vertices and with Delta = 2
        # the (Delta-1)- threshold is degree 1, so the faces pay nobody
        g = gadgets.cycle(6)
        ledger = full_ledger(g)
        assert not ledger.transfers
        assert all(c == -2 for c in ledger.vertex_charge.values())

    def test_wheel6_hand_computed(self):
        # hub: +2 - 6*(1/3) [R1] - 6*(1/9) [R3 out] = -2/3
        # rim: -1 - 2/3 [R1] + 1/3 [R2] + 3*(1/9) [R3 in] - 2*(1/9) [R3 out]
        #      = -11/9
        # 3-faces: -1 + 3*(1/3) = 0; outer: +2 - 6*(1/3) = 0
        ledger = full_ledger(gadgets.wheel(6))
        assert ledger.vertex_charge[1] == F(-2, 3)
        assert all(ledger.vertex_charge[v] == F(-11, 9) for v in range(2, 8))
        assert all(c == 0 for c in ledger.face_charge.values())
        assert ledger.total() == -8

    def test_transfer_amounts_from_rule_set(self, small_corpus):
        for g in small_corpus[:10]:
            for t in full_ledger(g).transfers:
                assert t.amount in RULE_AMOUNTS

    def test_final_recomputable_from_log(self, small_corpus):
        # conservation: initial + logged transfers reproduces the final state
        for g in small_corpus[:10]:
            start = initial_charges(g)
            ledger = apply_rules(g, start, classify_all(g))
            v = dict(start.vertex_charge)
            f = dict(start.face_charge)
            for t in ledger.transfers:
                for (kind, key), sign in ((t.source, -1), (t.target, +1)):
                    if kind == "vertex":
                        v[key] += sign * t.amount
                    else:
                        f[key] += sign * t.amount
            assert v == ledger.vertex_charge
            assert f == ledger.face_charge

    def test_per_rule_flow_balances(self):
        # each rule's total, summed from the transfer log
        ledger = full_ledger(gadgets.wheel(6))
        totals = {}
        for t in ledger.transfers:
            totals[t.rule] = totals.get(t.rule, F(0)) + t.amount
        assert totals.keys() == {"R1", "R2", "R3"}
        assert totals["R1"] == F(6)  # 6 triangles, 1/3 from 3 corners each
        assert totals["R2"] == F(2)  # outer face pays each rim 3-vertex 1/3
        assert totals["R3"] == F(2)  # six rim vertices draw 3 * 1/9 each

    def test_r12_skips_fully_triangulated_6_neighbor(self):
        # hub of the L2.11 gadget is a (6,5)-vertex, so it does pay its
        # (5,5)-neighbors; a (6,6)-vertex would not
        g = gadgets.g_L2_11()
        ledger = full_ledger(g)
        r12 = [t for t in ledger.transfers if t.rule == "R12"]
        payers = {t.source[1] for t in r12}
        assert 1 in payers

        g2 = gadgets.g_L2_10_3()
        ledger2 = full_ledger(g2)
        classes = classify_all(g2)
        sixsix = {v for v, vc in classes.items() if vc.is_kd(6, 6)}
        for t in ledger2.transfers:
            if t.rule in ("R12", "R13", "R14"):
                assert t.source[1] not in sixsix


class TestAudit:
    def test_total_is_minus_eight(self, small_corpus):
        for g in small_corpus[:20]:
            assert audit(g, cross_reference=False).total == -8

    def test_octahedron_negatives_and_cross_reference(self):
        rep = audit(gadgets.octahedron())
        assert rep.total == -8
        vertex_negatives = [e for e in rep.negative_elements if e[0] == "vertex"]
        assert len(vertex_negatives) == 6
        assert all(e[2] == F(-4, 3) for e in vertex_negatives)
        assert "(4,4,0)-vertex bad4" in vertex_negatives[0][3]
        assert rep.reduction_lemma == "L2.4"
        assert rep.consistent

    def test_negative_elements_match_recorded_digest(self):
        digest = hashlib.sha256()
        for i, g in enumerate(hand_corpus()):
            negatives = audit(g, cross_reference=False).negative_elements
            digest.update(f"graph {i} {negatives!r}\n".encode())
        assert digest.hexdigest() == NEGATIVE_ELEMENTS_DIGEST

    def test_total_formats_no_label(self, small_corpus, monkeypatch):
        formatted = [0]
        to_str = classify.VertexClass.__str__

        def counted(vc):
            formatted[0] += 1
            return to_str(vc)

        monkeypatch.setattr(classify.VertexClass, "__str__", counted)
        for g in small_corpus[:5]:
            rep = audit(g, cross_reference=False)
            assert rep.total == -8 and min(rep.final.vertex_units.values()) < 0
        assert formatted[0] == 0
        labels = [e[3] for e in rep.negative_elements if e[0] == "vertex"]
        assert formatted[0] == len(labels) > 0

    def test_negative_elements_imply_fired_rule(self, small_corpus):
        for g in small_corpus[:20]:
            rep = audit(g)
            assert rep.consistent
            if g.max_degree() >= 6 and rep.negative_elements:
                assert rep.reduction_lemma is not None

    def test_each_input_computed_once(self, small_corpus, monkeypatch):
        calls = {}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("initial_charges", "face_keys", "classify_all"):
            counted(discharge, name)
        counted(classify, "is_special_vertex")
        counted(reductions, "is_special_vertex")
        for g in small_corpus[:5]:
            calls.clear()
            audit(g, cross_reference=False)
            assert calls == {"initial_charges": 1, "face_keys": 1, "classify_all": 1}

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_total_identity_property(self, seed):
        g = gen_planar(8 + seed % 40, seed=seed)
        assert audit(g, cross_reference=False).total == -8

    def test_total_builds_no_fraction_per_transfer(self, monkeypatch):
        made = [0]

        class Counted(Fraction):
            def __new__(cls, *args, **kwargs):
                made[0] += 1
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(discharge, "Fraction", Counted)
        transfers = []
        for n in (200, 400):
            g = gen_planar(n, 6, 1)
            made[0] = 0
            rep = audit(g, cross_reference=False)
            assert rep.total == -8
            assert made[0] <= 2
            transfers.append(len(rep.final.log))
        assert 1000 < transfers[0] < transfers[1]

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_report_views_replay_from_rule_log(self, seed):
        rep = audit(gen_planar(8 + seed % 40, seed=seed), cross_reference=False)
        start, final = rep.initial, rep.final
        views = {"vertex": dict(start.vertex_charge), "face": dict(start.face_charge)}
        for t in final.transfers:
            views[t.source[0]][t.source[1]] -= t.amount
            views[t.target[0]][t.target[1]] += t.amount
        assert views["vertex"] == final.vertex_charge
        assert views["face"] == final.face_charge
        assert rep.total == sum(final.vertex_charge.values()) + sum(final.face_charge.values())
        negative = sorted(
            (kind, key, c)
            for kind in views
            for key, c in views[kind].items()
            if c < 0
        )
        assert sorted(e[:3] for e in rep.negative_elements) == negative

    def test_bad_flags_match_post_r1_r2_recomputation(self, small_corpus):
        # a negative 4- or 5-vertex is labelled bad4/bad5 exactly when
        # replaying the R1 and R2 transfers alone leaves it negative
        labelled = [0, 0]
        for g in small_corpus + hand_corpus():
            rep = audit(g, cross_reference=False)
            classes = classify_all(g)
            partial = dict(rep.initial.vertex_units)
            for rule, source, target, units in rep.final.log:
                if rule in ("R1", "R2"):
                    if source[0] == "vertex":
                        partial[source[1]] -= units
                    if target[0] == "vertex":
                        partial[target[1]] += units
            for kind, v, _, label in rep.negative_elements:
                if kind != "vertex":
                    continue
                k = g.degree(v)
                bad = k in (4, 5) and partial[v] < 0
                assert label == f"{classes[v]} bad{k}" if bad else label == str(classes[v])
                labelled[bad] += 1
        assert all(labelled)


def readers(path, reads):
    """The enclosing function, by qualified name, of each node of one source
    file for which ``reads`` holds (None at module level)."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            if reads(child):
                found.append(where)
            visit(child, where)

    visit(ast.parse(path.read_text()), None)
    return found


def read_everywhere(reads):
    """``readers`` over every source file of the package, by file name,
    leaving out the files that have none."""
    sources = sorted(Path(discharge.__file__).parent.glob("*.py"))
    found = {path.name: readers(path, reads) for path in sources}
    return {name: where for name, where in found.items() if where}


def test_r2_is_written_once_for_a_vertex():
    # what R2 brings a vertex, its 5+-corners times what each gets, is
    # read off its class in one place, so the audit and the live ledger
    # cannot disagree on it
    def reads_t5p(node):
        return isinstance(node, ast.Attribute) and node.attr == "t5p"

    assert read_everywhere(reads_t5p) == {"discharge.py": ["_after_r1_r2"]}


def test_r3_to_r14_are_written_once_for_a_vertex():
    # what R3-R14 bring a vertex, and who pays it, is read off the income
    # table and the payer test in one place, the helper that both the
    # audit's apply_rules and the live ledger's nets run; the statement
    # that builds the table stores it and reads neither
    for name in ("_INCOME", "_pays_five"):

        def reads(node, name=name):
            if isinstance(node, ast.Name):
                return node.id == name and isinstance(node.ctx, ast.Load)
            return isinstance(node, ast.Attribute) and node.attr == name

        assert read_everywhere(reads) == {"discharge.py": ["_income"]}, name
