"""Command-line frontend.

Subcommands:
    gen      emit the generalized Moebius ladder M_{m,n}
    line     emit its line graph
    mpoly    emit the M-polynomial of the ladder (or its line graph)
    indices  compute the six degree-based indices two independent ways
    verify   compare the claimed closed forms against graph enumeration

All output is deterministic: identical invocations produce byte-identical
bytes.  Exit status: 0 success, 2 invalid parameters, 3 when a verify run
finds mismatches in a theorem subject (proposition mismatches are expected
findings and leave the status at 0), 1 on I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

from .graph import Graph
from .indices import (
    Alpha,
    IndexSet,
    alpha_label,
    check_graph_alphas,
    indices_from_edges,
    indices_from_mpoly,
    normalize_alpha,
)
from .ladder import InvalidParams, build_ladder
from .verify import (
    PROPOSITION_SUBJECTS,
    THEOREM_SUBJECTS,
    _json_value,
    _table,
    _text_value,
    values_equal,
    verify_all,
)

PROG = "mladder"


def _range_arg(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A:B with integers, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _alpha_arg(text: str) -> float:
    try:
        alpha = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(alpha):
        raise argparse.ArgumentTypeError(f"alpha must be finite, got {text!r}")
    return alpha


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description=(
            "Generalized Moebius ladders, their line graphs, M-polynomials, "
            "degree-based topological indices, and closed-form verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")

    size = argparse.ArgumentParser(add_help=False)
    size.add_argument("--m", type=int, help="ladder parameter m (columns before identification, >= 4)")
    size.add_argument("--n", type=int, help="ladder parameter n (rows, >= 2)")

    p = sub.add_parser("gen", parents=[common, size], help="emit the ladder M_{m,n}")
    p.add_argument("--format", choices=("edgelist", "json"), default="edgelist")

    p = sub.add_parser("line", parents=[common, size], help="emit the line graph of M_{m,n}")
    p.add_argument("--format", choices=("edgelist", "json"), default="edgelist")

    p = sub.add_parser("mpoly", parents=[common, size], help="emit an M-polynomial")
    p.add_argument("--line", action="store_true", help="use the line graph of the base graph")
    p.add_argument("--from-file", metavar="PATH", help="read the base graph from an edge-list file")
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")

    p = sub.add_parser("indices", parents=[common, size],
                       help="compute indices from edges and from the M-polynomial")
    p.add_argument("--line", action="store_true", help="use the line graph of the base graph")
    p.add_argument("--from-file", metavar="PATH", help="read the base graph from an edge-list file")
    p.add_argument("--alpha", action="append", type=_alpha_arg, metavar="A",
                   help="Randic exponent; repeatable (default: 1)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", parents=[common],
                       help="cross-validate the claimed closed forms")
    p.add_argument("--subject", choices=("thm31", "thm32", "props", "all"), default="all")
    p.add_argument("--m-range", type=_range_arg, metavar="A:B", default=None)
    p.add_argument("--n-range", type=_range_arg, metavar="A:B", default=None)
    p.add_argument("--alpha", action="append", type=_alpha_arg, metavar="A",
                   help="Randic exponent for proposition subjects; repeatable (default: 1)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _alphas(args: argparse.Namespace) -> list[Alpha]:
    raw = args.alpha if args.alpha else [1.0]
    return list(dict.fromkeys(normalize_alpha(a) for a in raw))


def _base_graph(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Graph:
    from_file = getattr(args, "from_file", None)
    if from_file is not None:
        if args.m is not None or args.n is not None:
            parser.error(f"{args.command}: --from-file excludes --m/--n")
        with open(from_file, encoding="ascii") as fh:
            return Graph.from_edgelist(fh.read())
    if args.m is None or args.n is None:
        parser.error(f"{args.command}: --m and --n are required (or --from-file)")
    return build_ladder(args.m, args.n)


def _graph_json(g: Graph) -> str:
    return json.dumps(
        {
            "vertex_count": g.vertex_count,
            "edge_count": g.edge_count,
            "edges": [[u, v] for u, v in g.edges],
        }
    )


def _indexset_json(s: IndexSet, alphas: Sequence[Alpha]) -> dict:
    return {
        "m1": _json_value(s.m1),
        "m2": _json_value(s.m2),
        "mm2": _json_value(s.mm2),
        "sdd": _json_value(s.sdd),
        "r_alpha": {alpha_label(a): _json_value(s.r_alpha[a]) for a in alphas},
        "rr_alpha": {alpha_label(a): _json_value(s.rr_alpha[a]) for a in alphas},
    }


def _cmd_graph(args, parser) -> tuple[str, int]:
    if args.m is None or args.n is None:
        parser.error(f"{args.command}: --m and --n are required")
    g = build_ladder(args.m, args.n)
    if args.command == "line":
        g = g.line_graph()
    if args.format == "edgelist":
        return g.to_edgelist(), 0
    return _graph_json(g) + "\n", 0


def _cmd_mpoly(args, parser) -> tuple[str, int]:
    g = _base_graph(args, parser)
    poly = g.line_m_polynomial() if args.line else g.m_polynomial()
    fmt = {"text": "plain", "json": "json", "latex": "latex"}[args.format]
    return poly.render(fmt) + "\n", 0


def _cmd_indices(args, parser) -> tuple[str, int]:
    g = _base_graph(args, parser)
    alphas = _alphas(args)
    # With --line the two routes share not even the line graph: the edge
    # sum runs over the built line graph, the polynomial is tallied from g.
    summed = g.line_graph() if args.line else g
    check_graph_alphas(summed, alphas)
    from_edges = indices_from_edges(summed, alphas)
    from_mpoly = indices_from_mpoly(g.line_m_polynomial() if args.line else g.m_polynomial(), alphas)
    rows = from_edges.paired(from_mpoly, alphas)
    if args.format == "json":
        payload = {
            "from_edges": _indexset_json(from_edges, alphas),
            "from_mpoly": _indexset_json(from_mpoly, alphas),
            "agreement": {q: values_equal(a, b) for q, a, b in rows},
        }
        return json.dumps(payload, indent=2) + "\n", 0
    header = ("quantity", "edges", "mpoly", "agree")
    table = [(q, _text_value(a), _text_value(b), "yes" if values_equal(a, b) else "NO")
             for q, a, b in rows]
    return "\n".join(_table(header, table)) + "\n", 0


VERIFY_SUBJECTS = {
    "thm31": ("thm31",),
    "thm32": ("thm32",),
    "props": PROPOSITION_SUBJECTS,
    "all": THEOREM_SUBJECTS + PROPOSITION_SUBJECTS,
}


def _cmd_verify(args) -> tuple[str, int]:
    report = verify_all(_alphas(args), VERIFY_SUBJECTS[args.subject], args.m_range, args.n_range)
    text = report.to_json() + "\n" if args.format == "json" else report.to_text()
    return text, 3 if report.theorem_mismatches() else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("gen", "line"):
            output, status = _cmd_graph(args, parser)
        elif args.command == "mpoly":
            output, status = _cmd_mpoly(args, parser)
        elif args.command == "indices":
            output, status = _cmd_indices(args, parser)
        else:
            output, status = _cmd_verify(args)
    except InvalidParams as exc:
        print(f"{PROG} {args.command}: error: {exc}", file=sys.stderr)
        print(f"usage hint: {PROG} {args.command} --help", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"{PROG} {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except OverflowError:
        print(f"{PROG} {args.command}: error: a Randic term overflows float arithmetic; "
              "use a smaller |alpha|", file=sys.stderr)
        return 2
    except OSError as exc:
        path = exc.filename if exc.filename else getattr(args, "out", None) or "<io>"
        print(f"{PROG} {args.command}: error: {path}: {exc.strerror or exc}", file=sys.stderr)
        return 1

    if args.out:
        try:
            with open(args.out, "w", encoding="ascii", newline="") as fh:
                fh.write(output)
        except OSError as exc:
            print(f"{PROG} {args.command}: error: {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(output)
    return status


if __name__ == "__main__":
    sys.exit(main())
