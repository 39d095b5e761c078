"""Exact charge bookkeeping: initial charges, the fourteen transfer rules,
and the audit that ties the two together.

Every connected embedding satisfies sum(d(v) - 4) + sum(d(f) - 4) = -8, so
the rules can only move charge around.  Rules are applied simultaneously
against the initial classification; every transfer is logged so that
per-rule conservation can be re-derived from the log alone.

The arithmetic is exact.  Every rule amount is a whole number of units of
1/UNIT, where UNIT = 180 is the lcm of the denominators in RULE_AMOUNTS,
so inside this module charges and transfers are ints in those units and a
transfer is one int subtraction plus one int addition.  ``Fraction`` is the
type at the API: the ledger's and the report's charge views and their
totals are Fractions built only when a caller reads them, and
``Transfer.amount`` is the rule's amount as it stands in RULE_AMOUNTS.

The rules are written once, per element, and only here: ``_r2_units``
(what a 5+-face gives one corner), ``_after_r1_r2`` (a vertex's charge
after its 3-face payments and 5+-face income), the ``_INCOME`` table and
the ``_pays_five`` payer test.  ``apply_rules`` runs them over a whole
graph, logging every transfer, and ``audit`` stays the from-scratch
reference; its report labels a 4- or 5-vertex ``bad4``/``bad5`` when
``_after_r1_r2`` leaves it negative.  ``LiveCharges`` reads the same
helpers to keep the final charges of the engine's Embedding current as it
changes, re-deriving only what each change can reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .classify import VertexClass, classify_all, classify_vertex
from .errors import InvariantViolated
from .planar import Embedding, PlanarGraph

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

UNIT = math.lcm(*(a.denominator for a in RULE_AMOUNTS))


def _units(amount: Fraction) -> int:
    """A rule amount as a whole number of units of 1/UNIT."""
    if amount not in RULE_AMOUNTS:
        raise InvariantViolated(f"{amount} is not in RULE_AMOUNTS")
    return amount.numerator * (UNIT // amount.denominator)


_R1 = _units(Fraction(1, 3))  # per corner of a 3-face
_R2_TO_3_VERTEX = _units(Fraction(1, 3))
_R2_TO_OTHER = _units(Fraction(1, 5))

# R3-R14: the rule by which a vertex draws charge and the units each payer
# gives, keyed by the vertex's (k, t3, t4).  A 3-vertex receives 1/9 from
# each neighbor, and the 4-vertex family from each neighbor; the 5-vertex
# family only from the neighbors that ``_pays_five``.
_INCOME = {
    (3, t3, t4): ("R3", _units(Fraction(1, 9))) for t3 in range(4) for t4 in range(4 - t3)
}
_INCOME.update({
    (4, 4, 0): ("R4", _units(Fraction(1, 3))),
    (4, 3, 1): ("R5", _units(Fraction(1, 4))),
    (4, 3, 0): ("R6", _units(Fraction(1, 5))),
    (4, 2, 2): ("R7", _units(Fraction(1, 6))),
    (4, 2, 1): ("R8", _units(Fraction(7, 60))),
    (4, 2, 0): ("R9", _units(Fraction(1, 15))),
    (4, 1, 3): ("R10", _units(Fraction(1, 12))),
    (4, 1, 2): ("R11", _units(Fraction(1, 30))),
    (5, 5, 0): ("R12", _units(Fraction(1, 6))),
    (5, 4, 1): ("R13", _units(Fraction(1, 12))),
    (5, 4, 0): ("R14", _units(Fraction(2, 45))),
})


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


# What R3-R14 read of a vertex: the units it draws from each payer (0 when
# it draws nothing), whether only neighbors that ``_pays_five`` pay it (it
# is a 5-vertex), and whether it pays such a neighbor itself.
Stake = tuple[int, bool, bool]


def _stake(vc: VertexClass) -> Stake:
    income = _INCOME.get((vc.k, vc.t3, vc.t4))
    return (income[1] if income else 0, vc.k == 5, _pays_five(vc))


def _net(mine: Stake, theirs: Stake) -> int:
    """R3-R14 between two neighbors: what the one with stake ``mine``
    draws from the other, less what it gives the other."""
    draw, picky, pays = mine
    their_draw, their_picky, they_pay = theirs
    return (draw if they_pay or not picky else 0) - (their_draw if pays or not their_picky else 0)


def _vertex_units(
    vc: VertexClass, nbrs: Sequence[int], stakes: dict[int, Stake], delta: int
) -> int:
    """The final units of a vertex of class vc with these neighbors: its
    units after R1 and R2, then its net under R3-R14 with each neighbor."""
    mine = stakes[vc.v]
    return _after_r1_r2(vc, delta) + sum(_net(mine, stakes[w]) for w in nbrs)


def _face_units(d: int, corners: Iterable[int], rot: dict, delta: int) -> int:
    """The final units of a face of degree d (R1, R2).  ``corners``, its
    corner vertices with a vertex once per corner, is read only when d >= 5."""
    if d == 3:
        return 3 * _R1 - UNIT
    units = (d - 4) * UNIT
    if d >= 5:
        units -= sum(_r2_units(len(rot[v]), delta) for v in corners)
    return units


# Transfer.amount reads each amount back from RULE_AMOUNTS.
_AMOUNT_OF_UNITS = {_units(a): a for a in RULE_AMOUNTS}

FaceKey = tuple[int, ...] | int  # a canonical boundary walk, or a face id
Element = tuple[str, object]  # ("vertex", id) or ("face", key)


class Transfer(NamedTuple):
    rule: str
    source: Element
    target: Element
    units: int  # the amount in units of 1/UNIT

    @property
    def amount(self) -> Fraction:
        return _AMOUNT_OF_UNITS[self.units]


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
    """Stable ledger keys, in face order: each face's canonical boundary
    rotation.  No two faces share one: a boundary walk determines the darts
    of its face, and every dart borders exactly one face."""
    return [f.canonical_key() for f in g.faces]


def _rotations(g: PlanarGraph | Embedding) -> dict[int, Sequence[int]]:
    """Vertex id -> rotation; an Embedding's own dict, read only."""
    return g.rot if isinstance(g, Embedding) else dict(enumerate(g.rotation, 1))


def _corners(g: PlanarGraph | Embedding) -> Iterable[Sequence[int]]:
    """Each face's corner vertices in face order, a vertex once per corner:
    on an Embedding, the tails of the face's darts, in ``fdeg`` order."""
    if isinstance(g, PlanarGraph):
        return [f.boundary for f in g.faces]
    corners: dict[int, list[int]] = {f: [] for f in g.fdeg}
    for x, fx in g.face.items():
        for f in fx.values():
            corners[f].append(x)
    return corners.values()


def initial_charges(g: PlanarGraph | Embedding) -> ChargeLedger:
    """d(v) - 4 on vertices, d(f) - 4 on faces (keyed in face order);
    totals -8 when m >= 1.  An Embedding's vertex ids have gaps where
    vertices were deleted, and its face ids name faces only until it
    changes."""
    faces = g.fdeg.items() if isinstance(g, Embedding) else zip(face_keys(g), g.fdeg)
    ledger = ChargeLedger(
        vertex_units={v: (len(r) - 4) * UNIT for v, r in _rotations(g).items()},
        face_units={key: (d - 4) * UNIT for key, d in faces},
        log=[],
    )
    if g.m >= 1 and ledger.total_units() != -8 * UNIT:
        raise InvariantViolated(f"initial charges total {ledger.total()}, not -8")
    return ledger


def apply_rules(
    g: PlanarGraph | Embedding, ledger: ChargeLedger, classes: dict[int, VertexClass]
) -> ChargeLedger:
    """Apply all fourteen rules at once to a copy of ``ledger``.

    ``ledger`` holds the initial charges of g (from ``initial_charges``),
    whose face entries are in face order, and ``classes`` is
    ``classify_all(g)``.  Rules read the graph and that classification,
    never intermediate charges.  A vertex that meets the same face twice
    pays or receives once per incidence.  Vertex and face keys are those
    of ``initial_charges``.
    """
    rot = _rotations(g)
    delta = g.max_degree()
    vertex = dict(ledger.vertex_units)
    face = dict(ledger.face_units)
    log = list(ledger.log)
    record = log.append
    elem = {v: ("vertex", v) for v in rot}

    for key, corners in zip(ledger.face_units, _corners(g), strict=True):
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
                amount = _r2_units(len(rot[v]), delta)
                if not amount:
                    continue
                face[key] -= amount
                vertex[v] += amount
                record(("R2", fkey, elem[v], amount))

    for v, nbrs in rot.items():
        vc = classes[v]
        income = _INCOME.get((vc.k, vc.t3, vc.t4))
        if income is None:
            continue
        rule, amount = income
        payers = [w for w in nbrs if _pays_five(classes[w])] if vc.k == 5 else nbrs
        dst = elem[v]
        vertex[v] += amount * len(payers)
        for w in payers:
            vertex[w] -= amount
            record((rule, elem[w], dst, amount))
    return ChargeLedger(vertex, face, log)


class LiveCharges:
    """The final charges of one Embedding, kept current as it changes.

    ``vertex_units`` and ``face_units`` hold what ``audit(e).final`` holds,
    by vertex id and face id, ``total_units`` their sum, ``stakes`` each
    vertex's ``Stake`` and ``delta`` the maximum degree.  Attached as
    ``e.charges`` while no apply is in force (undoing an earlier one would
    leave it stale), it follows every successful ``e.apply`` and logs its
    old values in the apply's undo log, so that ``e.undo()`` restores them
    with the rest.
    """

    def __init__(self, e: Embedding):
        rot, delta = e.rot, e.max_degree()
        classes = classify_all(e)
        self.delta = delta
        self.stakes = {v: _stake(vc) for v, vc in classes.items()}
        self.vertex_units = {
            v: _vertex_units(vc, rot[v], self.stakes, delta) for v, vc in classes.items()
        }
        self.face_units = {
            f: _face_units(d, corners, rot, delta)
            for (f, d), corners in zip(e.fdeg.items(), _corners(e))
        }
        self.total_units = sum(self.vertex_units.values()) + sum(self.face_units.values())

    def total(self) -> Fraction:
        return Fraction(self.total_units, UNIT)

    def follow(self, e: Embedding, log: list, touched: set[int], rebuilt: bool) -> None:
        """Update after an apply on e that logged its changes in ``log``,
        changed the darts of the ``touched`` vertices and, if ``rebuilt``,
        built e's structures afresh.

        A vertex's class reads its degree and its corners' face degrees, so
        it changes only at a touched vertex or at a corner of a resized
        face (the face ``_link`` keeps shrinks without touching its other
        corners, so it is walked).  R2 reads delta, so when delta moves,
        the vertices of degree between the old and the new delta are redone
        too.  Redone vertices get their final units afresh, and their
        untouched neighbors trade their net with them; faces are redone
        when new, resized, or at a corner whose R2 amount may have moved.
        """
        state = vars(self)
        if rebuilt:
            # the survivors are few: build afresh and swap, as the frame does
            log += [(state, name, old) for name, old in state.items()]
            self.__init__(e)
            return
        rot, face, fdeg = e.rot, e.face, e.fdeg
        stakes, vertex, faces = self.stakes, self.vertex_units, self.face_units
        delta, total = e.max_degree(), self.total_units

        for v in touched - rot.keys():
            log += ((stakes, v, stakes.pop(v)), (vertex, v, vertex[v]))
            total -= vertex.pop(v)
        changed = set()  # faces made or resized
        for f in {f for d, f, _ in log if d is fdeg}:
            if f in fdeg:
                changed.add(f)
            elif f in faces:
                log.append((faces, f, faces[f]))
                total -= faces.pop(f)
        redo = touched & rot.keys()
        darts = {}  # the faces to redo, each with a dart on it
        corners = {}  # the corners of the faces walked here
        for x in list(redo):
            for y, f in face[x].items():
                darts.setdefault(f, (x, y))
                if f in changed and f in faces and f not in corners:
                    corners[f] = [z for z, _ in e.walk((x, y))]
                    redo.update(corners[f])
        if delta != self.delta:
            low, high = sorted((delta, self.delta))
            band = set().union(*(e.of_degree(k) for k in range(low, high) if k != 3))
            for v in band - redo:
                for y, f in face[v].items():
                    darts.setdefault(f, (v, y))
            redo |= band
            log.append((state, "delta", self.delta))
            self.delta = delta

        classes = {v: classify_vertex(e, v) for v in redo}
        was = {}  # the stakes that changed, as they were
        for v, vc in classes.items():
            new = _stake(vc)
            if new != stakes[v]:
                was[v] = stakes[v]
                log.append((stakes, v, was[v]))
                stakes[v] = new
        units = {v: _vertex_units(vc, rot[v], stakes, delta) for v, vc in classes.items()}
        for c, old in was.items():
            new = stakes[c]
            for u in rot[c]:
                if u not in redo:
                    mine = stakes[u]
                    units[u] = units.get(u, vertex[u]) + _net(mine, new) - _net(mine, old)
        for v, new in units.items():
            if new != vertex[v]:
                log.append((vertex, v, vertex[v]))
                total += new - vertex[v]
                vertex[v] = new

        for f, dart in darts.items():
            d = fdeg[f]
            if d >= 5 and f not in corners:
                corners[f] = [z for z, _ in e.walk(dart)]
            new = _face_units(d, corners.get(f, ()), rot, delta)
            old = faces.get(f)
            if new != old:
                log.append((faces, f, old))
                total += new - (old or 0)
                faces[f] = new
        log.append((state, "total_units", self.total_units))
        self.total_units = total


@dataclass
class AuditReport:
    """Outcome of initial_charges + apply_rules on one graph.

    The ledgers hold the charges in units of 1/UNIT, with Fraction views
    built on first read (``rep.final.vertex_charge``, ``rep.final.transfers``).
    """

    initial: ChargeLedger
    final: ChargeLedger
    # kind, id, units, and for a vertex its class (None for a face)
    negative_units: list[tuple[str, object, int, VertexClass | None]]
    delta: int
    reduction_lemma: str | None  # catalog rule that fires on this graph, if any
    consistent: bool  # negatives on a Delta>=6 graph imply a fired rule

    @property
    def total(self) -> Fraction:
        return self.final.total()

    @cached_property
    def negative_elements(self) -> list[tuple[str, object, Fraction, str]]:
        """(kind, id, charge, label) per negative element; the labels are
        formatted here, on first read, not by ``audit``.  A 4- or 5-vertex
        that R1 and R2 alone leave negative is labelled bad4 or bad5."""
        return [
            (
                kind,
                key,
                Fraction(units, UNIT),
                # a face's degree d, from its initial charge d - 4
                f"{self.initial.face_units[key] // UNIT + 4}-face" if vc is None
                else f"{vc} bad{vc.k}" if vc.k in (4, 5) and _after_r1_r2(vc, self.delta) < 0
                else str(vc),
            )
            for kind, key, units, vc in self.negative_units
        ]


def audit(g: PlanarGraph | Embedding, cross_reference: bool = True) -> AuditReport:
    """Run the whole charge pipeline and classify every negative element.

    g may be the engine's live Embedding, which the audit only reads; the
    report then names its vertex ids and face ids (see ``initial_charges``).

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

    vertex, face = ledger.vertex_units, ledger.face_units
    negatives: list[tuple[str, object, int, VertexClass | None]] = [
        ("vertex", v, vertex[v], classes[v]) for v in sorted(v for v, c in vertex.items() if c < 0)
    ]
    negatives += [
        ("face", key, face[key], None) for key in sorted(k for k, c in face.items() if c < 0)
    ]

    lemma = None
    if cross_reference:
        outcome = find_reduction(g)
        lemma = outcome.lemma if isinstance(outcome, Reduction) else None
    delta = g.max_degree()
    consistent = not (
        cross_reference and delta >= 6 and negatives and lemma is None
    )

    return AuditReport(
        initial=initial,
        final=ledger,
        negative_units=negatives,
        delta=delta,
        reduction_lemma=lemma,
        consistent=consistent,
    )


def rule_totals(transfers: list[Transfer]) -> dict[str, Fraction]:
    """Total amount moved per rule (outgoing equals incoming by construction;
    the audit tests re-derive both sides from the log)."""
    totals: dict[str, int] = {}
    for t in transfers:
        totals[t.rule] = totals.get(t.rule, 0) + t.units
    return {rule: Fraction(units, UNIT) for rule, units in totals.items()}
