"""Exact charge bookkeeping: initial charges, the fourteen transfer rules,
and the audit that ties the two together.

Every connected embedding satisfies sum(d(v) - 4) + sum(d(f) - 4) = -8, so
the rules can only move charge around.  Rules are applied simultaneously
against the initial classification; every transfer is logged so that
per-rule conservation can be re-derived from the log alone.

The arithmetic is exact.  Every rule amount is written once, as a
``Fraction``, and RULE_AMOUNTS gathers them.  UNIT = 180, the lcm of
their denominators, makes each a whole number of units of 1/UNIT, so
inside this module charges and transfers are ints in those units and a
transfer is one int subtraction plus one int addition.  ``Fraction`` is the
type at the API: the ledger's and the report's charge views and their
totals are Fractions built only when a caller reads them, and so is
``Transfer.amount``, its units over UNIT.

The rules are written once, per element, and only here: ``_r2_units``
(what a 5+-face gives one corner), ``_after_r1_r2`` (a vertex's charge
after its 3-face payments and 5+-face income), and ``_income`` (R3-R14 at
one vertex: its rule, what it draws from each payer, and its payers), the
one reader of the ``_INCOME`` table and the ``_pays_five`` payer test.
``apply_rules`` runs them over a whole graph, logging every transfer, and
``audit`` stays the from-scratch reference; its report reads the negative
elements off the final ledger when asked, and labels a 4- or 5-vertex
``bad4``/``bad5`` when ``_after_r1_r2`` leaves it negative.
``initial_charges``, ``apply_rules`` and ``audit`` read only a validated
``PlanarGraph``: its rotations and its face boundary walks, each keyed by
``face_key``, its least rotation.  ``LiveCharges`` reads the same helpers
to keep the final charges of the engine's Embedding current as it
changes; it gives what the audit of the Embedding's snapshot holds, whose
vertices are the live ids renumbered in ascending order and whose faces
are keyed by their walks.  It keeps each vertex's class and each face's
units, and no R3-R14 state: every such transfer runs between two
neighbors, so what R3-R14 move sums to 0 over a graph and the total needs
none.  Its one per-vertex view, a vertex's units, is derived from the
classes when read: the vertex's ``_after_r1_r2`` part, plus what it draws
by ``_income``, less what it pays, as ``apply_rules`` derives its
transfers.  It follows each apply from the
``planar.Change`` that apply recorded: it re-derives the faces born or
shrunk and those of their corners whose class moved, moves the rest by
what changed next to them, and moves the total by the same amounts, never
rescanning the graph.  It knows nothing of the undo log:
``Embedding.undo`` derives an attached ledger afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .classify import VertexClass, classify_all, classify_vertex
from .errors import InvariantViolated
from .planar import Change, Embedding, PlanarGraph
from .reductions import Reduction, find_reduction

# Every rule amount, written once.  R1: what a vertex pays each of its
# 3-face corners; R2: what a 5+-face gives a corner at a 3-vertex, and at
# any other vertex of degree at most delta-1.
_R1_R2 = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 5))

# R3-R14: the rule by which a vertex draws charge and the amount each payer
# gives, keyed by the vertex's (k, t3, t4).  A 3-vertex receives 1/9 from
# each neighbor, and the 4-vertex family from each neighbor; the 5-vertex
# family only from the neighbors that ``_pays_five``.
_DRAWN = {
    **{(3, t3, t4): ("R3", Fraction(1, 9)) for t3 in range(4) for t4 in range(4 - t3)},
    (4, 4, 0): ("R4", Fraction(1, 3)),
    (4, 3, 1): ("R5", Fraction(1, 4)),
    (4, 3, 0): ("R6", Fraction(1, 5)),
    (4, 2, 2): ("R7", Fraction(1, 6)),
    (4, 2, 1): ("R8", Fraction(7, 60)),
    (4, 2, 0): ("R9", Fraction(1, 15)),
    (4, 1, 3): ("R10", Fraction(1, 12)),
    (4, 1, 2): ("R11", Fraction(1, 30)),
    (5, 5, 0): ("R12", Fraction(1, 6)),
    (5, 4, 1): ("R13", Fraction(1, 12)),
    (5, 4, 0): ("R14", Fraction(2, 45)),
}

RULE_AMOUNTS = frozenset((*_R1_R2, *(amount for _, amount in _DRAWN.values())))
UNIT = math.lcm(*(a.denominator for a in RULE_AMOUNTS))

# the same amounts in whole units of 1/UNIT, the only form the rules read
_R1, _R2_TO_3_VERTEX, _R2_TO_OTHER = (int(a * UNIT) for a in _R1_R2)
_INCOME = {key: (rule, int(amount * UNIT)) for key, (rule, amount) in _DRAWN.items()}


def _r2_units(k: int, delta: int) -> int:
    """R2: what a 5+-face gives a corner at a k-vertex: 1/3 to a 3-vertex,
    1/5 to any other vertex of degree at most delta-1, nothing to the rest."""
    if k == 3:
        return _R2_TO_3_VERTEX
    return _R2_TO_OTHER if k <= delta - 1 else 0


def _after_r1_r2(vc: VertexClass, delta: int) -> int:
    """The units of a vertex of class vc after R1 and R2 alone: d(v) - 4,
    less 1/3 per 3-corner, plus what R2 gives per 5+-corner."""
    return (vc.k - 4) * UNIT - vc.t3 * _R1 + vc.t5p * _r2_units(vc.k, delta)


def _pays_five(vc: VertexClass) -> bool:
    """Does a vertex of class vc pay a 5-vertex neighbor that draws income?
    A 6+-vertex does, except the fully triangulated 6-vertex, which has
    nothing to give."""
    return vc.k >= 6 and not vc.is_kd(6, 6)


def _income(
    vc: VertexClass, nbrs: Sequence[int], classes: dict[int, VertexClass]
) -> tuple[str, int, Sequence[int]] | None:
    """R3-R14 at a vertex of class vc with neighbors nbrs: the rule by which
    it draws charge, the units it draws from each payer, and its payers,
    every neighbor or, at a 5-vertex, those whose class in ``classes``
    ``_pays_five``; None when it draws nothing."""
    income = _INCOME.get((vc.k, vc.t3, vc.t4))
    if income is None:
        return None
    rule, amount = income
    return rule, amount, [w for w in nbrs if _pays_five(classes[w])] if vc.k == 5 else nbrs


def _face_units(d: int, corners: Iterable[int], rot: dict, delta: int) -> int:
    """The final units of a face of degree d (R1, R2).  ``corners``, its
    corner vertices with a vertex once per corner, is read only when d >= 5."""
    if d == 3:
        return 3 * _R1 - UNIT
    units = (d - 4) * UNIT
    if d >= 5:
        units -= sum(_r2_units(len(rot[v]), delta) for v in corners)
    return units


FaceKey = tuple[int, ...]  # a canonical boundary walk
Element = tuple[str, object]  # ("vertex", id) or ("face", key)


def face_key(walk: tuple[int, ...]) -> FaceKey:
    """A face's ledger key: the lexicographically smallest rotation of its
    boundary walk, which starts at an occurrence of the smallest vertex."""
    low = min(walk)
    if walk.count(low) == 1:  # one candidate, as on every face of a 2-connected graph
        i = walk.index(low)
        return walk[i:] + walk[:i]
    return min(walk[i:] + walk[:i] for i, u in enumerate(walk) if u == low)


class Transfer(NamedTuple):
    rule: str
    source: Element
    target: Element
    units: int  # the amount in units of 1/UNIT

    @property
    def amount(self) -> Fraction:
        return Fraction(self.units, UNIT)


@dataclass
class ChargeLedger:
    """Exact per-element charges plus the full transfer log, kept in whole
    units of 1/UNIT; the Fraction views are built on first read."""

    vertex_units: dict[int, int]
    face_units: dict[FaceKey, int]
    log: list[tuple[str, Element, Element, int]]  # Transfer fields

    @cached_property
    def vertex_charge(self) -> dict[int, Fraction]:
        return {v: Fraction(c, UNIT) for v, c in self.vertex_units.items()}

    @cached_property
    def face_charge(self) -> dict[FaceKey, Fraction]:
        return {key: Fraction(c, UNIT) for key, c in self.face_units.items()}

    @cached_property
    def transfers(self) -> list[Transfer]:
        return list(map(Transfer._make, self.log))

    def total_units(self) -> int:
        return sum(self.vertex_units.values()) + sum(self.face_units.values())

    def total(self) -> Fraction:
        return Fraction(self.total_units(), UNIT)


def face_keys(g: PlanarGraph) -> list[FaceKey]:
    """Stable ledger keys, in face order: ``face_key`` of each boundary
    walk.  No two faces share one: a boundary walk determines the darts of
    its face, and every dart borders exactly one face."""
    return list(map(face_key, g.faces))


def initial_charges(g: PlanarGraph) -> ChargeLedger:
    """d(v) - 4 on vertices, d(f) - 4 on faces (keyed in face order);
    totals -8 when m >= 1."""
    ledger = ChargeLedger(
        vertex_units={v: (len(r) - 4) * UNIT for v, r in enumerate(g.rotation, 1)},
        face_units={key: (d - 4) * UNIT for key, d in zip(face_keys(g), g.fdeg)},
        log=[],
    )
    if g.m >= 1 and ledger.total_units() != -8 * UNIT:
        raise InvariantViolated(f"initial charges total {ledger.total()}, not -8")
    return ledger


def apply_rules(
    g: PlanarGraph, ledger: ChargeLedger, classes: dict[int, VertexClass]
) -> ChargeLedger:
    """Apply all fourteen rules at once to a copy of ``ledger``.

    ``ledger`` holds the initial charges of g (from ``initial_charges``),
    whose face entries are in face order, and ``classes`` is
    ``classify_all(g)``.  Rules read the graph and that classification,
    never intermediate charges.  A vertex that meets the same face twice
    pays or receives once per incidence.  Vertex and face keys are those
    of ``initial_charges``.
    """
    rot = g.rotation
    delta = g.max_degree()
    vertex = dict(ledger.vertex_units)
    face = dict(ledger.face_units)
    log = list(ledger.log)
    record = log.append
    elem = {v: ("vertex", v) for v in g.vertices()}

    for key, corners in zip(ledger.face_units, g.faces, strict=True):
        fkey = ("face", key)
        degree = len(corners)
        if degree == 3:
            # R1: every 3-face receives 1/3 from each incident vertex.
            face[key] += 3 * _R1
            for v in corners:
                vertex[v] -= _R1
                record(("R1", elem[v], fkey, _R1))
        elif degree >= 5:
            # R2: 1/3 to each incident 3-vertex, 1/5 to every other vertex
            # of degree at most delta-1 (per incidence).
            for v in corners:
                amount = _r2_units(len(rot[v - 1]), delta)
                if not amount:
                    continue
                face[key] -= amount
                vertex[v] += amount
                record(("R2", fkey, elem[v], amount))

    for v, nbrs in enumerate(rot, 1):
        income = _income(classes[v], nbrs, classes)
        if income is None:
            continue
        rule, amount, payers = income
        dst = elem[v]
        vertex[v] += amount * len(payers)
        for w in payers:
            vertex[w] -= amount
            record((rule, elem[w], dst, amount))
    return ChargeLedger(vertex, face, log)


class LiveCharges:
    """The final charges of one Embedding, kept current as it changes.

    ``classes`` holds each vertex's class, ``face_units`` each face's
    units, ``delta`` the maximum degree and ``total_units`` the sum of all
    units.  No R3-R14 state is kept: those rules move charge between
    neighbors, and what one draws the other gives, so they sum to 0 over
    any graph and the total is the vertices' ``_after_r1_r2`` parts plus
    the face units.  ``vertex_units(e)`` derives each vertex's final units
    from the classes and e's rotations when read: its ``_after_r1_r2``
    part, moved by ``_income`` at every vertex, the helper ``apply_rules``
    runs.  By vertex id and face id, ``vertex_units(e)`` and
    ``face_units`` give what the final ledger of ``audit(e.snapshot())``
    holds by dense id and canonical walk.
    Attached as ``e.charges``, it follows every successful ``e.apply``
    from the ``Change`` that apply recorded, and writes nothing into the
    apply's undo log: any ``e.undo()`` re-derives it afresh, so it may be
    attached with an apply in force.
    """

    def __init__(self, e: Embedding):
        rot, delta = e.rot, e.max_degree()
        self.delta = delta
        self.classes = classes = classify_all(e)
        corners: dict[int, list[int]] = {f: [] for f in e.fdeg}
        for x, fx in e.face.items():  # a face's corners: the tails of its darts
            for f in fx.values():
                corners[f].append(x)
        self.face_units = {f: _face_units(d, corners[f], rot, delta) for f, d in e.fdeg.items()}
        units = sum(_after_r1_r2(vc, delta) for vc in classes.values())
        self.total_units = units + sum(self.face_units.values())

    def vertex_units(self, e: Embedding) -> dict[int, int]:
        """Each vertex's final units: its ``_after_r1_r2`` part, plus what
        it draws by R3-R14 from its neighbors in e, less what it gives."""
        classes, rot, delta = self.classes, e.rot, self.delta
        units = {v: _after_r1_r2(vc, delta) for v, vc in classes.items()}
        for v, vc in classes.items():
            income = _income(vc, rot[v], classes)
            if income is not None:
                _, amount, payers = income
                units[v] += amount * len(payers)
                for w in payers:
                    units[w] -= amount
        return units

    def follow(self, e: Embedding, change: Change) -> None:
        """Update after an apply on e that recorded ``change``.

        A vertex's class reads its degree and its corners' face degrees, so
        it can move only at a corner of a face born or shrunk (a born face
        is read from its birth darts, a shrunk one walked), and every vertex
        that lost or gained a neighbor is a corner of one; a corner whose
        class did not move costs nothing more.  Lost and gained neighbors
        and moved classes touch what R3-R14 move too, which the total does
        not hold, so a deleted vertex leaves it by its ``_after_r1_r2``
        part alone.
        When delta moves, R2 moves at the vertices of degree between the
        old and the new delta.  Those and the vertices whose class moved
        move the total by their ``_after_r1_r2`` part, new less old, in one
        pass.  Faces born or shrunk are derived afresh; any other 5+-face
        moves by the change in what R2 gives its corners.
        """
        rot, face, fdeg = e.rot, e.face, e.fdeg
        classes, faces = self.classes, self.face_units
        delta, was_delta, total = e.max_degree(), self.delta, self.total_units
        fresh = dict(change.born)  # the faces born or shrunk, as darts
        for f, dart in dict(change.links).items():  # the last dart left on f
            fresh[f] = e.walk(dart)
        for v in change.dels:
            total -= _after_r1_r2(classes.pop(v), was_delta)
        for f in change.popped:
            total -= faces.pop(f)

        moved = {}  # the vertices whose R1-R2 part may move, with their classes before
        for x in {x for darts in fresh.values() for x, _ in darts}:
            vc = classify_vertex(e, x)
            old = classes[x]
            if vc != old:
                classes[x], moved[x] = vc, old
        if delta != was_delta:
            self.delta = delta
            low, high = sorted((delta, was_delta))
            for k in range(low, high):
                if _r2_units(k, delta) != _r2_units(k, was_delta):
                    for v in e.of_degree(k):
                        moved.setdefault(v, classes[v])
        shifts = []  # (v, the change in what R2 gives each corner at v)
        for v, old in moved.items():
            vc = classes[v]
            total += _after_r1_r2(vc, delta) - _after_r1_r2(old, was_delta)
            step = _r2_units(vc.k, delta) - _r2_units(old.k, was_delta)
            if step:
                shifts.append((v, step))
        for f, darts in fresh.items():
            units = _face_units(fdeg[f], (x for x, _ in darts), rot, delta)
            total += units - faces.get(f, 0)
            faces[f] = units
        for v, step in shifts:
            for f in face[v].values():
                if f not in fresh and fdeg[f] >= 5:
                    faces[f] -= step
                    total -= step
        self.total_units = total


@dataclass
class AuditReport:
    """Outcome of initial_charges + apply_rules on one graph.

    The ledgers hold the charges in units of 1/UNIT, with Fraction views
    built on first read (``rep.final.vertex_charge``, ``rep.final.transfers``);
    ``classes`` is ``classify_all`` of the graph, which labels the negatives.
    """

    initial: ChargeLedger
    final: ChargeLedger
    classes: dict[int, VertexClass]
    delta: int
    reduction_lemma: str | None  # catalog rule that fires on this graph, if any
    consistent: bool  # a Delta>=6 graph, which always has negatives, has a fired rule

    @property
    def total(self) -> Fraction:
        return self.final.total()

    @cached_property
    def negative_elements(self) -> list[tuple[str, object, Fraction, str]]:
        """(kind, id, charge, label) per negative element of ``final``, the
        vertices first and then the faces, each in ascending order; they are
        found and labelled here, on first read, not by ``audit``.  A 4- or
        5-vertex that R1 and R2 alone leave negative is labelled bad4 or bad5."""
        vertex, face = self.final.vertex_units, self.final.face_units
        negatives = []
        for v in sorted(v for v, c in vertex.items() if c < 0):
            vc = self.classes[v]
            bad = vc.k in (4, 5) and _after_r1_r2(vc, self.delta) < 0
            label = f"{vc} bad{vc.k}" if bad else str(vc)
            negatives.append(("vertex", v, Fraction(vertex[v], UNIT), label))
        for key in sorted(k for k, c in face.items() if c < 0):
            # a face's key is its boundary walk, one entry per corner
            negatives.append(("face", key, Fraction(face[key], UNIT), f"{len(key)}-face"))
        return negatives


def audit(g: PlanarGraph, cross_reference: bool = True) -> AuditReport:
    """Run the whole charge pipeline and cross-reference the catalog.

    On a graph with maximum degree at least 6, the elements left negative
    must coexist with a configuration the reduction catalog can fire on; the
    report records the cross-reference (skippable when the caller already
    knows the fired rule).  The grand total is always -8, so such a graph
    always has a negative element.
    """
    classes = classify_all(g)
    initial = initial_charges(g)
    final = apply_rules(g, initial, classes)
    lemma = None
    if cross_reference:
        outcome = find_reduction(Embedding(g))
        lemma = outcome.lemma if isinstance(outcome, Reduction) else None
    delta = g.max_degree()
    return AuditReport(
        initial=initial,
        final=final,
        classes=classes,
        delta=delta,
        reduction_lemma=lemma,
        consistent=not (cross_reference and delta >= 6 and lemma is None),
    )
