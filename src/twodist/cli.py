"""Command line surface: gen, color, verify, audit, oracle, reduce, hunt.

``reduce`` replays the catalog's reductions on one Embedding of the input,
so every step names vertices by their ids in the input file; as in the
coloring engine, each step makes the one before it final.

Exit codes: 0 success/valid, 1 invalid or violation, 2 input error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .colorer import color, verify_coloring
from .errors import BudgetExhausted, NoSafeColor, PermutationInfeasible, TwodistError
from .oracle import DEFAULT_NODE_BUDGET, chi2_exact
from .planar import Embedding
from .reductions import Reduction, check_properness, find_reduction, reduce_in_place
from .workbench import (
    format_audit_tsv,
    gen_planar,
    hunt,
    id_list,
    parse_coloring,
    parse_graph,
    write_coloring,
    write_graph,
)


def _int_at_least(low: int):
    """An argparse type for integers no smaller than low."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value

    return integer


def _read_graph(path: str):
    return parse_graph(Path(path).read_text())


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    g = gen_planar(args.n, args.min_delta, args.seed)
    _emit(
        write_graph(g, comment=f"gen n={args.n} min-delta={args.min_delta} seed={args.seed}"),
        args.output,
    )
    return 0


def _cmd_color(args) -> int:
    g = _read_graph(args.graph)
    try:
        c = color(g, args.k)
    except (BudgetExhausted, NoSafeColor, PermutationInfeasible) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 1
    report = verify_coloring(g, c)
    _emit(write_coloring(c), args.output)
    print(
        f"colors used: {c.colors_used} of {c.budget}; "
        f"verified: {'ok' if report.valid else 'INVALID'}",
        file=sys.stderr,
    )
    return 0 if report.valid else 1


def _cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    budget = args.k if args.k is not None else 3 * g.max_degree() + 2
    c = parse_coloring(Path(args.coloring).read_text(), budget)
    report = verify_coloring(g, c)
    if report.valid:
        print(f"valid: {report.colors_used} colors within budget {report.budget}")
        return 0
    if report.uncolored:
        print(f"uncolored vertices: {id_list(report.uncolored)}")
    if report.unknown:
        print(f"colored ids not in 1..{g.n}: {id_list(report.unknown)}")
    for (u, v, dist, col) in report.violations[:20]:
        if dist == 0:
            print(f"color {col} at vertex {u} outside 1..{report.budget}")
        else:
            print(f"vertices {u},{v} at distance {dist} share color {col}")
    print(f"{len(report.violations)} violations")
    return 1


def _cmd_audit(args) -> int:
    g = _read_graph(args.graph)
    sys.stdout.write(format_audit_tsv(g, with_trace=args.trace))
    return 0


def _cmd_oracle(args) -> int:
    g = _read_graph(args.graph)
    result = chi2_exact(Embedding(g), node_budget=args.budget)
    kind = "exact" if result.exact else "upper bound (budget hit)"
    print(f"chi2 = {result.chi2} ({kind}), nodes explored: {result.nodes_explored}")
    if args.output:
        Path(args.output).write_text(write_coloring(result.witness))
        print(f"witness: {args.output}")
    return 0


def _cmd_reduce(args) -> int:
    e = Embedding(_read_graph(args.graph))
    ok = True
    for step in range(args.steps):
        outcome = find_reduction(e)
        if not isinstance(outcome, Reduction):
            print(f"step {step}: no rule fires (delta={outcome.delta})")
            for tag, note in outcome.nearest_miss:
                print(f"  {tag}: {note}")
            ok = ok and outcome.delta < 6  # at delta >= 6 a gap is a catalog bug
            break
        r = outcome
        if r.split is not None:
            n = e.n
            e = reduce_in_place(e, r)[0]
            print(
                f"step {step}: {r.lemma} split at {r.split} -> "
                f"n={e.n}+{n - e.n + 1}; following first part"
            )
            continue
        proper = check_properness(e, r)
        ok = ok and proper
        print(
            f"step {step}: {r.lemma}"
            + (f" [{r.case}]" if r.case else "")
            + f" at {r.vertex}, bound {r.d2_bound},"
            f" delete {list(r.delete_vertices) or list(r.delete_edges)},"
            f" add {list(r.add_edges)},"
            f" proper={'yes' if proper else 'NO'}"
        )
        if args.trace:
            print(f"  pending {list(r.pending)}; result n={e.n} m={e.m}")
        if e.n == 0:
            break
    return 0 if ok else 1


def _cmd_hunt(args) -> int:
    report = hunt(
        trials=args.trials,
        n=args.n,
        min_delta=args.min_delta,
        seed=args.seed,
        audit_each=not args.no_audit,
    )
    print(report.summary())
    return 0 if report.gap_count == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="twodist",
        description="2-distance coloring workbench for embedded planar graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random embedded planar graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-delta", type=_int_at_least(0), default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("color", help="2-distance color a graph file")
    p.add_argument("graph")
    p.add_argument("-k", type=_int_at_least(1), help="color budget (default 3*Delta+2)")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_color)

    p = sub.add_parser("verify", help="check a coloring file against a graph")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("-k", type=_int_at_least(1))
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("audit", help="exact discharging audit (TSV)")
    p.add_argument("graph")
    p.add_argument("--trace", action="store_true", help="include the transfer log")
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("oracle", help="exact 2-distance chromatic number")
    p.add_argument("graph")
    p.add_argument("--budget", type=_int_at_least(0), default=DEFAULT_NODE_BUDGET)
    p.add_argument("-o", "--output", help="write the witness coloring here")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("reduce", help="show which catalog rules fire")
    p.add_argument("graph")
    p.add_argument("--steps", type=_int_at_least(1), default=1)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("hunt", help="color random graphs, audit intermediates, count gaps")
    p.add_argument("--trials", type=_int_at_least(1), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-delta", type=_int_at_least(0), default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-audit", action="store_true")
    p.set_defaults(fn=_cmd_hunt)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, UnicodeDecodeError, TwodistError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
