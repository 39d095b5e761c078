"""File format, random generation, and the proof-gap hunter.

Graph files are line based and carry the embedding explicitly:

    # optional comments
    p <n> <m>
    r <v> <deg> <u1> ... <udeg>      one line per vertex, ccw rotation

Vertices are dense 1-based integers.  Coloring files hold one "<v> <c>"
pair per line, colors 1-based.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Iterable

from .colorer import Coloring, RunTrace, color, verify_coloring
from .discharge import UNIT, LiveCharges, audit
from .errors import GenerationFailed, ParseError
from .planar import Embedding, PlanarGraph
from .reductions import ProofGapReport

# -- graph files -----------------------------------------------------------


def parse_graph(text: str) -> PlanarGraph:
    """Parse the native format; every embedding invariant is validated."""
    header: tuple[int, int] | None = None
    rotations: dict[int, tuple[int, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if header is not None:
                raise ParseError("duplicate header", lineno)
            if len(parts) != 3:
                raise ParseError("header must be 'p <n> <m>'", lineno)
            try:
                header = (int(parts[1]), int(parts[2]))
            except ValueError:
                raise ParseError("header fields must be integers", lineno)
            if min(header) < 0:
                raise ParseError("header counts must be non-negative", lineno)
        elif parts[0] == "r":
            if header is None:
                raise ParseError("rotation line before header", lineno)
            try:
                nums = list(map(int, parts[1:]))
            except ValueError:
                raise ParseError("rotation fields must be integers", lineno)
            if len(nums) < 2:
                raise ParseError("rotation line too short", lineno)
            v, deg, nbrs = nums[0], nums[1], nums[2:]
            if len(nbrs) != deg:
                raise ParseError(
                    f"vertex {v} declares degree {deg} but lists {len(nbrs)}",
                    lineno,
                )
            if not (1 <= v <= header[0]):
                raise ParseError(f"vertex {v} outside 1..{header[0]}", lineno)
            if v in rotations:
                raise ParseError(f"duplicate rotation for vertex {v}", lineno)
            rotations[v] = tuple(nbrs)
        else:
            raise ParseError(f"unknown record '{parts[0]}'", lineno)
    if header is None:
        raise ParseError("missing 'p' header")
    n, m = header
    if len(rotations) != n:
        # every 'r' line names a distinct vertex in 1..n, so some are missing
        missing = (v for v in range(1, n + 1) if v not in rotations)
        raise ParseError(
            f"missing rotation lines for {id_list(missing, n - len(rotations))}"
        )
    g = PlanarGraph([rotations[v] for v in range(1, n + 1)])
    if g.m != m:
        raise ParseError(f"header says m={m} but rotations define m={g.m}")
    return g


def id_list(ids: Iterable[int], count: int | None = None) -> str:
    """The first five of `count` ids (default: len(ids)), for messages about
    lists of any length."""
    if count is None:
        count = len(ids)
    text = ", ".join(map(str, islice(ids, 5)))
    return text if count <= 5 else f"{text}, ... ({count} in all)"


def write_graph(g: PlanarGraph, comment: str | None = None) -> str:
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}")
    lines.append(f"p {g.n} {g.m}")
    for v, nbrs in enumerate(g.rotation, 1):
        lines.append(f"r {v} {len(nbrs)} {' '.join(map(str, nbrs))}")
    return "\n".join(lines) + "\n"


def parse_coloring(text: str, budget: int) -> Coloring:
    assignment: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("coloring line must be '<v> <c>'", lineno)
        try:
            v, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("coloring fields must be integers", lineno)
        if v in assignment:
            raise ParseError(f"duplicate color for vertex {v}", lineno)
        assignment[v] = c
    return Coloring(assignment, budget)


def write_coloring(c: Coloring) -> str:
    lines = [f"{v} {c.assignment[v]}" for v in sorted(c.assignment)]
    return "\n".join(lines) + "\n"


# -- random generation -------------------------------------------------------


def gen_planar(
    n: int,
    min_delta: int = 0,
    seed: int = 0,
    deletions: int | None = None,
) -> PlanarGraph:
    """Random connected embedded planar graph on n vertices.

    Grow a stacked triangulation by dropping each new vertex into a
    uniformly chosen face, then delete random edges (about m/5 by default)
    rejecting any deletion that would disconnect the graph or pull the
    maximum degree under min_delta.  Fully determined by the seed.

    Deleting edges only merges faces, so a union-find over the
    triangulation's triangles knows the current face of every dart, and an
    edge is a bridge exactly when one face lies on both of its sides.  A
    count of the vertices of degree >= min_delta decides the degree test.
    Each attempted deletion is thus decided before anything changes, in
    near-constant amortised time.  Apart from the memmoves of list
    deletions (a chosen face, an accepted edge), generation is near-linear
    in n.
    """
    if n < 3:
        raise GenerationFailed("need n >= 3")
    for attempt in range(60):
        rng = random.Random(seed * 1_000_003 + attempt)
        g = _try_generate(n, min_delta, rng, deletions)
        if g is not None:
            return g
    raise GenerationFailed(
        f"could not reach maximum degree {min_delta} with n={n} vertices"
    )


def _try_generate(
    n: int, min_delta: int, rng: random.Random, deletions: int | None
) -> PlanarGraph | None:
    rot: dict[int, list[int]] = {1: [2, 3], 2: [3, 1], 3: [1, 2]}
    # faces as oriented triangles (a, b, c): darts a->b, b->c, c->a
    faces: list[tuple[int, int, int]] = [(1, 2, 3), (2, 1, 3)]

    for w in range(4, n + 1):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        # the new neighbor goes right after the face predecessor of each corner
        rot[a].insert(rot[a].index(c) + 1, w)
        rot[b].insert(rot[b].index(a) + 1, w)
        rot[c].insert(rot[c].index(b) + 1, w)
        rot[w] = [a, c, b]
        faces.extend([(a, b, w), (b, c, w), (c, a, w)])

    # vertices of degree >= min_delta; the maximum degree reaches it while > 0
    big = sum(len(r) >= min_delta for r in rot.values())
    if not big:
        return None

    face: dict[tuple[int, int], int] = {}
    for i, (a, b, c) in enumerate(faces):
        face[a, b] = face[b, c] = face[c, a] = i
    parent = list(range(len(faces)))
    size = [1] * len(faces)

    def find(f: int) -> int:
        while parent[f] != f:
            parent[f] = f = parent[parent[f]]
        return f

    edges = sorted((v, u) for v in rot for u in rot[v] if v < u)
    target = deletions if deletions is not None else len(edges) // 5
    removed = 0
    attempts = 0
    while removed < target and attempts < 10 * target + 20:
        attempts += 1
        u, v = edges[rng.randrange(len(edges))]
        fu, fv = find(face[u, v]), find(face[v, u])
        lost = (len(rot[u]) == min_delta) + (len(rot[v]) == min_delta)
        if fu == fv or lost == big:
            continue  # a bridge, or the last vertices of degree >= min_delta
        if size[fu] < size[fv]:
            fu, fv = fv, fu
        parent[fv] = fu
        size[fu] += size[fv]
        big -= lost
        rot[u].remove(v)
        rot[v].remove(u)
        del edges[bisect_left(edges, (u, v))]
        removed += 1

    return PlanarGraph([tuple(rot[v]) for v in range(1, n + 1)])


# -- the hunter ---------------------------------------------------------------


@dataclass
class HuntReport:
    """Aggregate evidence from coloring many random graphs end to end."""

    trials: int
    n: int
    min_delta: int
    seeds: tuple[int, ...]
    lemma_fires: dict[str, int] = field(default_factory=dict)
    gap_reports: list[ProofGapReport] = field(default_factory=list)
    audit_totals: dict[str, int] = field(default_factory=dict)
    colorings_valid: int = 0

    @property
    def gap_count(self) -> int:
        """The catalog gaps found at Delta >= 6, one report each."""
        return len(self.gap_reports)

    def summary(self) -> str:
        lines = [
            f"trials={self.trials} n={self.n} min_delta={self.min_delta}",
            f"colored {self.trials}, valid {self.colorings_valid}",  # or hunt raised
            f"gap count: {self.gap_count}",
        ]
        if self.audit_totals:
            lines.append(
                "audit totals: "
                + ", ".join(f"{t} x{c}" for t, c in sorted(self.audit_totals.items()))
            )
        for lemma in sorted(self.lemma_fires):
            lines.append(f"  {lemma}: {self.lemma_fires[lemma]}")
        return "\n".join(lines)


def hunt(
    trials: int,
    n: int,
    min_delta: int = 6,
    seed: int = 0,
    audit_each: bool = True,
) -> HuntReport:
    """Generate graphs, color each one while recording every reduction the
    engine takes, audit every intermediate graph, and count catalog gaps
    on graphs with maximum degree >= 6 (the expected count is zero).

    The audit runs in place, on the engine's Embedding: the hook's first
    call in a run, made before the engine changes anything, attaches a
    ``LiveCharges`` to it, which follows every later reduction the engine
    applies, and each call counts the total it reads from it."""
    totals: dict[int, int] = {}  # audited graphs by total, in units of 1/UNIT
    report = HuntReport(
        trials=trials,
        n=n,
        min_delta=min_delta,
        seeds=tuple(seed + t for t in range(trials)),
    )

    def hook(e: Embedding, outcome) -> None:
        if not audit_each:
            return
        if e.charges is None:
            e.charges = LiveCharges(e)
        if e.n >= 2:
            key = e.charges.total_units
            totals[key] = totals.get(key, 0) + 1

    for s in report.seeds:
        g = gen_planar(n, min_delta, s)
        trace = RunTrace(graph_hook=hook)
        c = color(g, trace=trace)
        if verify_coloring(g, c).valid and c.colors_used <= c.budget:
            report.colorings_valid += 1
        for lemma, *_ in trace.steps:
            report.lemma_fires[lemma] = report.lemma_fires.get(lemma, 0) + 1
        report.gap_reports += [gap for gap in trace.gaps if gap.delta >= 6]
    report.audit_totals = {str(Fraction(t, UNIT)): c for t, c in totals.items()}
    return report


def format_audit_tsv(g: PlanarGraph, with_trace: bool = False) -> str:
    """TSV dump of an audit: kind, id, initial, final (rationals as p/q)."""
    rep = audit(g, cross_reference=False)
    initial, final = rep.initial, rep.final
    lines = ["kind\tid\tinitial\tfinal"]
    for v in sorted(final.vertex_charge):
        lines.append(
            f"vertex\t{v}\t{initial.vertex_charge[v]}\t{final.vertex_charge[v]}"
        )
    for key in sorted(final.face_charge):
        fid = "-".join(str(x) for x in key)
        lines.append(
            f"face\t{fid}\t{initial.face_charge[key]}\t{final.face_charge[key]}"
        )
    lines.append(f"total\t-\t{initial.total()}\t{rep.total}")
    if with_trace:
        for t in final.transfers:
            src = _element_id(t.source)
            dst = _element_id(t.target)
            lines.append(f"transfer\t{t.rule}\t{src}->{dst}\t{t.amount}")
    return "\n".join(lines) + "\n"


def _element_id(element: tuple[str, object]) -> str:
    kind, key = element
    if kind == "vertex":
        return f"v{key}"
    return "f" + "-".join(str(x) for x in key)  # type: ignore[union-attr]
