"""Exact-rational charge bookkeeping: initial charges, the fourteen
transfer rules, and the audit that ties the two together.

Every connected embedding satisfies sum(d(v) - 4) + sum(d(f) - 4) = -8, so
the rules can only move charge around.  Rules are applied simultaneously
against the initial classification; every transfer is logged so that
per-rule conservation can be re-derived from the log alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .classify import VertexClass, classify_all
from .errors import InvariantViolated
from .planar import PlanarGraph, trace_faces

# Every amount any rule may move.
RULE_AMOUNTS = {
    Fraction(1, 3),
    Fraction(1, 5),
    Fraction(1, 9),
    Fraction(1, 4),
    Fraction(1, 6),
    Fraction(7, 60),
    Fraction(1, 15),
    Fraction(1, 12),
    Fraction(1, 30),
    Fraction(2, 45),
}

# Income per neighbor for the 4-vertex family, keyed by (t3, t4).
_FOUR_VERTEX_INCOME = {
    (4, 0): ("R4", Fraction(1, 3)),
    (3, 1): ("R5", Fraction(1, 4)),
    (3, 0): ("R6", Fraction(1, 5)),
    (2, 2): ("R7", Fraction(1, 6)),
    (2, 1): ("R8", Fraction(7, 60)),
    (2, 0): ("R9", Fraction(1, 15)),
    (1, 3): ("R10", Fraction(1, 12)),
    (1, 2): ("R11", Fraction(1, 30)),
}

# Income per contributing 6+-neighbor for the 5-vertex family.
_FIVE_VERTEX_INCOME = {
    (5, 0): ("R12", Fraction(1, 6)),
    (4, 1): ("R13", Fraction(1, 12)),
    (4, 0): ("R14", Fraction(2, 45)),
}

FaceKey = tuple


@dataclass(frozen=True)
class Transfer:
    rule: str
    source: tuple[str, object]  # ("vertex", id) or ("face", key)
    target: tuple[str, object]
    amount: Fraction


@dataclass
class ChargeLedger:
    """Exact per-element charges plus the full transfer log."""

    vertex_charge: dict[int, Fraction]
    face_charge: dict[FaceKey, Fraction]
    transfers: list[Transfer] = field(default_factory=list)

    def total(self) -> Fraction:
        return sum(self.vertex_charge.values(), Fraction(0)) + sum(
            self.face_charge.values(), Fraction(0)
        )

    def copy(self) -> "ChargeLedger":
        return ChargeLedger(
            dict(self.vertex_charge), dict(self.face_charge), list(self.transfers)
        )


def face_keys(g: PlanarGraph) -> list[FaceKey]:
    """Stable ledger keys, in face order: canonical boundary rotation,
    deduplicated by an occurrence counter in the rare case two faces trace
    identically."""
    keys: list[FaceKey] = []
    seen: dict[tuple, int] = {}
    for f in trace_faces(g):
        base = f.canonical_key()
        times = seen.get(base, 0)
        seen[base] = times + 1
        keys.append(base if times == 0 else base + (f"#{times}",))
    return keys


def initial_charges(g: PlanarGraph) -> ChargeLedger:
    """d(v) - 4 on vertices, d(f) - 4 on faces (keyed in face order);
    totals -8 when m >= 1."""
    ledger = ChargeLedger(
        vertex_charge={v: Fraction(g.degree(v) - 4) for v in g.vertices()},
        face_charge={
            key: Fraction(f.degree - 4)
            for key, f in zip(face_keys(g), trace_faces(g))
        },
    )
    total = ledger.total()
    if g.m >= 1 and total != -8:
        raise InvariantViolated(f"initial charges total {total}, not -8")
    return ledger


def apply_rules(
    g: PlanarGraph, ledger: ChargeLedger, classes: dict[int, VertexClass]
) -> ChargeLedger:
    """Apply all fourteen rules at once to a copy of ``ledger``.

    ``ledger`` holds the initial charges of g (from ``initial_charges``),
    whose face entries are in face order, and ``classes`` is
    ``classify_all(g)``.  Rules read the graph and that classification,
    never intermediate charges.  A vertex that meets the same face twice
    pays or receives once per incidence.
    """
    delta = g.max_degree()
    out = ledger.copy()

    def move(rule: str, src, dst, amount: Fraction) -> None:
        kind_s, id_s = src
        kind_t, id_t = dst
        if kind_s == "vertex":
            out.vertex_charge[id_s] -= amount
        else:
            out.face_charge[id_s] -= amount
        if kind_t == "vertex":
            out.vertex_charge[id_t] += amount
        else:
            out.face_charge[id_t] += amount
        out.transfers.append(Transfer(rule, src, dst, amount))

    for key, f in zip(ledger.face_charge, trace_faces(g), strict=True):
        fkey = ("face", key)
        if f.degree == 3:
            # R1: every 3-face receives 1/3 from each incident vertex.
            for v in f.boundary:
                move("R1", ("vertex", v), fkey, Fraction(1, 3))
        elif f.degree >= 5:
            # R2: 1/3 to each incident 3-vertex, 1/5 to every other vertex
            # of degree at most delta-1 (per incidence).
            for v in f.boundary:
                k = g.degree(v)
                if k == 3:
                    move("R2", fkey, ("vertex", v), Fraction(1, 3))
                elif k <= delta - 1:
                    move("R2", fkey, ("vertex", v), Fraction(1, 5))

    for v in g.vertices():
        vc = classes[v]
        if vc.k == 3:
            # R3: a 3-vertex receives 1/9 from each neighbor.
            for w in g.neighbors(v):
                move("R3", ("vertex", w), ("vertex", v), Fraction(1, 9))
        elif vc.k == 4:
            entry = _FOUR_VERTEX_INCOME.get((vc.t3, vc.t4))
            if entry:
                rule, amount = entry
                for w in g.neighbors(v):
                    move(rule, ("vertex", w), ("vertex", v), amount)
        elif vc.k == 5:
            entry = _FIVE_VERTEX_INCOME.get((vc.t3, vc.t4))
            if entry:
                rule, amount = entry
                for w in g.neighbors(v):
                    wc = classes[w]
                    # contributions come from 6+-neighbors, except the
                    # fully triangulated 6-vertex which has nothing to give
                    if wc.k >= 6 and not wc.is_kd(6, 6):
                        move(rule, ("vertex", w), ("vertex", v), amount)
    return out


@dataclass
class AuditReport:
    """Outcome of initial_charges + apply_rules on one graph."""

    total: Fraction
    initial_vertex: dict[int, Fraction]
    initial_face: dict[FaceKey, Fraction]
    final_vertex: dict[int, Fraction]
    final_face: dict[FaceKey, Fraction]
    negative_elements: list[tuple[str, object, Fraction, str]]
    rule_log: list[Transfer]
    delta: int
    reduction_lemma: str | None  # catalog rule that fires on this graph, if any
    consistent: bool  # negatives on a Delta>=6 graph imply a fired rule

    def negative_count(self) -> int:
        return len(self.negative_elements)


def audit(g: PlanarGraph, cross_reference: bool = True) -> AuditReport:
    """Run the whole charge pipeline and classify every negative element.

    On a graph with maximum degree at least 6, any element left negative
    must coexist with a configuration the reduction catalog can fire on; the
    report records the cross-reference (skippable when the caller already
    knows the fired rule).  The grand total is always -8, so an
    all-nonnegative outcome on such a graph would be impossible.
    """
    from .reductions import Reduction, find_reduction

    classes = classify_all(g)
    initial = initial_charges(g)
    ledger = apply_rules(g, initial, classes)

    negatives: list[tuple[str, object, Fraction, str]] = []
    for v in sorted(ledger.vertex_charge):
        c = ledger.vertex_charge[v]
        if c < 0:
            vc = classes[v]
            label = str(vc)
            if vc.bad4:
                label += " bad4"
            if vc.bad5:
                label += " bad5"
            negatives.append(("vertex", v, c, label))
    for key in sorted(ledger.face_charge):
        c = ledger.face_charge[key]
        if c < 0:
            size = len([x for x in key if isinstance(x, int)])
            negatives.append(("face", key, c, f"{size}-face"))

    lemma = None
    if cross_reference:
        outcome = find_reduction(g)
        lemma = outcome.lemma if isinstance(outcome, Reduction) else None
    delta = g.max_degree()
    consistent = not (
        cross_reference and delta >= 6 and negatives and lemma is None
    )

    return AuditReport(
        total=ledger.total(),
        initial_vertex=initial.vertex_charge,
        initial_face=initial.face_charge,
        final_vertex=ledger.vertex_charge,
        final_face=ledger.face_charge,
        negative_elements=negatives,
        rule_log=ledger.transfers,
        delta=delta,
        reduction_lemma=lemma,
        consistent=consistent,
    )


def rule_totals(transfers: list[Transfer]) -> dict[str, Fraction]:
    """Total amount moved per rule (outgoing equals incoming by construction;
    the audit tests re-derive both sides from the log)."""
    totals: dict[str, Fraction] = {}
    for t in transfers:
        totals[t.rule] = totals.get(t.rule, Fraction(0)) + t.amount
    return totals
