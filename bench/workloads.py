"""Seeded inputs and the per-graph pipeline of each workload.

Every workload builds a pool of inputs from the seed, then the timed phase
runs whole passes over the pool.  Processing one graph always ends in the
checks that decide whether it failed (see ``_check``).  All twodist calls
go through module attributes, so the tracer in ``layers`` sees them.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from twodist import colorer, discharge, planar, workbench

import hostspeed

MIN_DELTA = 6


def spread(count: int, lo: int, hi: int) -> tuple[int, ...]:
    """The middles of `count` equal strata of [lo, hi]."""
    width = (hi - lo + 1) / count
    return tuple(lo + int((i + 0.5) * width) for i in range(count))


# Pool sizes do not depend on the seed, so only the graphs' structure
# changes with it and medians stay steady across seeds.  Each pool also
# repeats the middle of its size range, so that the median graph time is
# taken among graphs of one size (see NOTES.md for what it did on flip).
SIZES = {
    "corpus": spread(32, 14, 200) + (107,) * 32,
    "scale": (250, 450, 450, 450, 800),
    "hunt": spread(24, 50, 110) + (80,) * 16,
    "flip": spread(12, 80, 300) + (190,) * 4,
}
FLIP_MIN_DEGREE = 5
FLIP_DELETIONS = 4
WARMUP_N = 20


@dataclass
class Sample:
    """One processed graph.  ``steps`` and the ``trace.steps`` part of
    ``record`` are known only when the graph was colored with a RunTrace."""

    n: int
    steps: int  # find_reduction hits, or audited intermediate graphs in hunt
    graph_s: float  # the whole per-graph pipeline
    color_s: float  # the color() call alone
    coloring: str  # write_coloring output
    record: bytes  # n, the coloring and the RunTrace.steps sequence
    failure: str | None
    scale: float = 1.0  # NOMINAL_S / mean reference time around the sample


# -- the flip family ---------------------------------------------------------


def gen_flip(n: int, seed: int) -> planar.PlanarGraph:
    """A stacked triangulation whose minimum degree is raised by edge flips,
    followed by a few edge deletions that keep every endpoint at degree
    >= 4.  Flips reach configurations (4- and 5-vertices next to each other)
    that the plain generator never produces."""
    rng = random.Random(seed)
    base = workbench.gen_planar(n, MIN_DELTA, seed, deletions=0)
    rot = {v: list(base.neighbors(v)) for v in base.vertices()}

    def succ(v: int, u: int) -> int:
        r = rot[v]
        return r[(r.index(u) + 1) % len(r)]

    for _ in range(50):
        edges = sorted((a, b) for a in rot for b in rot[a] if a < b)
        rng.shuffle(edges)
        flipped = 0
        for a, b in edges:
            if b not in rot[a]:
                continue
            # the triangles on either side of a-b are a,b,c and b,a,d
            c, d = succ(b, a), succ(a, b)
            if c == d or d in rot[c]:
                continue
            da, db, dc, dd = len(rot[a]), len(rot[b]), len(rot[c]), len(rot[d])
            if min(da, db) <= FLIP_MIN_DEGREE:
                continue
            if min(dc, dd) >= FLIP_MIN_DEGREE and da + db < dc + dd + 4:
                continue
            rot[a].remove(b)
            rot[b].remove(a)
            rot[c].insert(rot[c].index(b) + 1, d)
            rot[d].insert(rot[d].index(a) + 1, c)
            flipped += 1
        if not flipped or min(map(len, rot.values())) >= FLIP_MIN_DEGREE:
            break

    edges = sorted((a, b) for a in rot for b in rot[a] if a < b)
    rng.shuffle(edges)
    removed = 0
    for a, b in edges:
        if removed == FLIP_DELETIONS:
            break
        if len(rot[a]) <= 4 or len(rot[b]) <= 4:
            continue
        ia, ib = rot[a].index(b), rot[b].index(a)
        rot[a].pop(ia)
        rot[b].pop(ib)
        if _connected(rot):
            removed += 1
        else:
            rot[a].insert(ia, b)
            rot[b].insert(ib, a)
    return planar.PlanarGraph([tuple(rot[v]) for v in range(1, n + 1)])


def _connected(rot: dict[int, list[int]]) -> bool:
    seen = {1}
    stack = [1]
    while stack:
        for u in rot[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(rot)


# -- pools -------------------------------------------------------------------


def make_pool(workload: str, seed: int) -> list:
    """The inputs of one pass, fully determined by the seed: graphs, or
    (n, seed) pairs for hunt, which generates its own graphs."""
    sizes = list(SIZES[workload])
    random.Random(f"{workload}:{seed}").shuffle(sizes)
    items = [(n, seed * 1000 + i) for i, n in enumerate(sizes)]
    if workload == "hunt":
        return items
    if workload == "flip":
        return [gen_flip(n, s) for n, s in items]
    return [workbench.gen_planar(n, MIN_DELTA, s) for n, s in items]


def warmup_item(workload: str, seed: int):
    if workload == "hunt":
        return (WARMUP_N, seed)
    return workbench.gen_planar(WARMUP_N, MIN_DELTA, seed)


# -- processing --------------------------------------------------------------


def _check(g, c, trace) -> str | None:
    """Why a colored graph fails, or None.  verify_coloring is run by the
    caller; this covers what it does not.  Gaps are known only with a
    RunTrace."""
    if set(c.assignment) != set(g.vertices()):
        return "coloring does not cover exactly the graph's vertices"
    if c.colors_used > 3 * g.max_degree() + 2:
        return f"{c.colors_used} colors > 3*Delta+2"
    if trace is not None and any(gap.delta >= MIN_DELTA for gap in trace.gaps):
        return "catalog gap at Delta >= 6"
    return None


def _sample(h, c, trace, graph_s, color_s, steps, failure) -> Sample:
    coloring = workbench.write_coloring(c)
    record = f"n={h.n}\n{coloring}".encode()
    if trace is not None:
        record += repr(trace.steps).encode()
    return Sample(h.n, steps, graph_s, color_s, coloring, record, failure)


class Runner:
    """Processes the items of one workload and calibrates every sample
    with a hostspeed.Meter.  Times exclude the meter's own reference runs.

    ``run_pass(pool, traced=False)`` colors each graph as the CLI does,
    with no RunTrace; ``traced=True`` passes a RunTrace, whose steps and
    gaps the checks and the digest need.  ``hunt`` always colors with the
    hunter's own RunTrace, so its samples are traced either way.

    While entered, the runner stands in for the ``color`` that
    ``workbench.hunt`` looks up: each generated graph goes through the
    write/parse round trip, the parsed copy is colored by the real
    (possibly traced) ``colorer.color`` with the hunter's RunTrace, and the
    result is kept for the checks."""

    def __init__(self, workload: str, meter: hostspeed.Meter) -> None:
        self.workload = workload
        self.meter = meter
        self._seen: list[tuple] = []
        self._saved = None

    @property
    def always_traced(self) -> bool:
        return self.workload == "hunt"

    def __enter__(self) -> "Runner":
        self._saved = workbench.color
        workbench.color = self
        return self

    def __exit__(self, *exc) -> None:
        workbench.color = self._saved

    def __call__(self, g, k=None, trace=None):
        h = workbench.parse_graph(workbench.write_graph(g))
        start, spent = time.perf_counter(), self.meter.spent
        c = colorer.color(h, k, trace=trace)
        self._seen.append((h, c, trace, self._elapsed(start, spent), h == g))
        return c

    def _elapsed(self, start: float, spent: float) -> float:
        return time.perf_counter() - start - (self.meter.spent - spent)

    def _graph(self, g, traced: bool) -> Sample:
        """The CLI path: write, parse back, color, verify, audit."""
        trace = colorer.RunTrace() if traced else None
        start, spent = time.perf_counter(), self.meter.spent
        h = workbench.parse_graph(workbench.write_graph(g))
        color_start, color_spent = time.perf_counter(), self.meter.spent
        c = colorer.color(h, trace=trace)
        color_s = self._elapsed(color_start, color_spent)
        report = colorer.verify_coloring(h, c)
        total = discharge.audit(h, cross_reference=False).total
        graph_s = self._elapsed(start, spent)
        failure = _check(h, c, trace)
        if h != g:
            failure = "parse_graph(write_graph(g)) != g"
        elif not report.valid:
            failure = f"verify_coloring: {len(report.violations)} violations"
        elif total != Fraction(-8):
            failure = f"audit total {total}"
        steps = len(trace.steps) if traced else 0
        return _sample(h, c, trace, graph_s, color_s, steps, failure)

    def _hunt(self, item) -> Sample:
        """One trial of workbench.hunt, auditing every intermediate graph."""
        n, seed = item
        self._seen.clear()
        start, spent = time.perf_counter(), self.meter.spent
        report = workbench.hunt(1, n, MIN_DELTA, seed)
        graph_s = self._elapsed(start, spent)
        h, c, trace, color_s, round_trip = self._seen.pop()
        failure = _check(h, c, trace)
        if not round_trip:
            failure = "parse_graph(write_graph(g)) != g"
        elif report.colorings_valid != 1:
            failure = "hunt reports an invalid coloring"
        elif report.gap_count:
            failure = f"hunt reports {report.gap_count} gaps"
        elif set(report.audit_totals) != {"-8"}:
            failure = f"audit totals {report.audit_totals}"
        audited = sum(report.audit_totals.values())
        return _sample(h, c, trace, graph_s, color_s, audited, failure)

    def run_pass(self, pool: list, traced: bool = False) -> list[Sample]:
        """Process every item once; a sample's scale comes from the
        reference timings taken from just before it to just after it."""
        samples = []
        self.meter.sample()
        for item in pool:
            first = len(self.meter.samples) - 1
            try:
                if self.workload == "hunt":
                    sample = self._hunt(item)
                else:
                    sample = self._graph(item, traced)
            except Exception as exc:  # any exception is a failed graph
                n = item[0] if self.workload == "hunt" else item.n
                sample = Sample(n, 0, 0.0, 0.0, "", b"", f"{type(exc).__name__}: {exc}")
            self.meter.sample()
            sample.scale = self.meter.scale_since(first)
            samples.append(sample)
        return samples


def against(checked: list[Sample], samples: list[Sample]) -> None:
    """Give untraced samples, pass after pass over the pool, the step
    counts of the traced pass `checked` over the same pool, and fail any
    whose coloring differs from it."""
    for i, s in enumerate(samples):
        ref = checked[i % len(checked)]
        s.steps = ref.steps
        if s.failure is None and s.coloring != ref.coloring:
            s.failure = "coloring differs from the traced pass"


def digest(samples: list[Sample]) -> str:
    h = hashlib.sha256()
    for s in samples:
        h.update(s.record)
        h.update(b"\0")
    return h.hexdigest()[:16]
