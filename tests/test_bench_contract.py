"""The benchmark's tracer (bench/layers.py) wraps twodist functions by module
and name, reads ``.transfers`` from what ``apply_rules`` returns and rebinds
``reductions.MATCHER_ORDER``; its workloads (bench/workloads.py) read fields
of ``HuntReport``, ``RunTrace`` and ``ProofGapReport``.  Running them here
makes a renamed or deleted name fail the tests instead of the benchmark."""

import dataclasses

import gadgets
import hostspeed
import layers
import workloads
from twodist import colorer, discharge, gen_planar, planar, reductions, workbench


def _bindings():
    found = [
        (module, name)
        for module in layers.MODULES
        for _, name in layers.SPANS
        if hasattr(module, name)
    ]
    found += [(planar.PlanarGraph, "__init__"), (reductions, "MATCHER_ORDER")]
    return [(owner, name, getattr(owner, name)) for owner, name in found]


def test_tracer_wraps_and_restores_every_binding():
    before = _bindings()
    tracer = layers.Tracer()
    tracer.install()
    try:
        g = gen_planar(40, 6, 1)
        trace = colorer.RunTrace()
        built = tracer.calls["planar.PlanarGraph"]
        colorer.color(g, trace=trace)
        built = tracer.calls["planar.PlanarGraph"] - built
        discharge.audit(g, cross_reference=False)
    finally:
        tracer.uninstall()
    assert tracer.counts["colorer.steps"] == len(trace.steps) > 0
    # the one L2.1 split goes through the module attributes like every step
    assert tracer.counts["colorer.splits"] == 1
    assert tracer.calls["colorer.merge_at_cut"] == 1
    # base cases and the greedy fallback are colored on the live Embedding:
    # without a catalog gap, a run builds no graph at all
    assert built == 0
    assert tracer.calls["colorer.extend"] == len(trace.steps) - 1
    assert tracer.counts["reductions.matcher_calls"] > 0
    assert tracer.counts["discharge.transfers"] > 0
    assert tracer.calls["classify.classify_all"] > 0
    assert all(getattr(owner, name) is value for owner, name, value in before)


def test_the_hunter_audits_without_rerunning_the_rules():
    # the hunter's charges follow each reduction, so the rules and
    # the classification run once per coloring run, to attach them, and
    # once per cut-vertex split, whose smaller part gets a ledger of its own
    tracer = layers.Tracer()
    tracer.install()
    try:
        report = workbench.hunt(1, 60, 6, 1)
    finally:
        tracer.uninstall()
    runs = 1 + tracer.counts["colorer.splits"]
    assert tracer.calls["discharge.apply_rules"] <= runs
    assert 0 < tracer.calls["classify.classify_all"] <= runs
    assert sum(report.audit_totals.values()) > 3 * runs


def test_the_workloads_read_what_hunt_and_a_trace_hold():
    # a hunt sample reads HuntReport.colorings_valid, gap_count and
    # audit_totals, and records RunTrace.steps
    runner = workloads.Runner("hunt", hostspeed.Meter())
    with runner:
        sample = runner._hunt((30, 1))
    assert sample.failure is None and sample.steps > 0
    report = workbench.hunt(1, 30, 6, 1)
    assert (report.colorings_valid, report.gap_count) == (1, 0)
    assert sum(report.audit_totals.values()) == sample.steps
    # the checks read RunTrace.gaps and each gap's ProofGapReport.delta:
    # the dodecahedron, with Delta = 3, leaves the catalog a gap
    g = gadgets.dodecahedron()
    trace = colorer.RunTrace()
    c = colorer.color(g, trace=trace)
    assert trace.steps == [] and [gap.delta for gap in trace.gaps] == [3]
    assert workloads._check(g, c, trace) is None
    trace.gaps = [dataclasses.replace(gap, delta=6) for gap in trace.gaps]
    assert workloads._check(g, c, trace) == "catalog gap at Delta >= 6"
