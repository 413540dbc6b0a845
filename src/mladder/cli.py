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
from contextlib import nullcontext
from typing import Optional, Sequence

from .graph import Graph
from .indices import IndexSet, alpha_label, alpha_list, indices_from_edges, indices_from_mpoly
from .ladder import MIN_M, MIN_N, InvalidParams, build_ladder
from .verify import SUBJECT_GROUPS, json_value, table, text_value, values_equal, verify_all

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
    size.add_argument("--m", type=int, help=f"ladder parameter m (columns before identification, >= {MIN_M})")
    size.add_argument("--n", type=int, help=f"ladder parameter n (rows, >= {MIN_N})")

    source = argparse.ArgumentParser(add_help=False, parents=[common, size])
    source.add_argument("--line", action="store_true", help="use the line graph of the base graph")
    source.add_argument("--from-file", metavar="PATH", help="read the base graph from an edge-list file")

    for name, help_text in (("gen", "emit the ladder M_{m,n}"),
                            ("line", "emit the line graph of M_{m,n}")):
        p = sub.add_parser(name, parents=[common, size], help=help_text)
        p.add_argument("--format", choices=("edgelist", "json"), default="edgelist")

    p = sub.add_parser("mpoly", parents=[source], help="emit an M-polynomial")
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")

    p = sub.add_parser("indices", parents=[source],
                       help="compute indices from edges and from the M-polynomial")
    p.add_argument("--alpha", action="append", type=_alpha_arg, metavar="A",
                   help="Randic exponent; repeatable (default: 1)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", parents=[common],
                       help="cross-validate the claimed closed forms")
    p.add_argument("--subject", choices=SUBJECT_GROUPS, default="all")
    p.add_argument("--m-range", type=_range_arg, metavar="A:B", default=None)
    p.add_argument("--n-range", type=_range_arg, metavar="A:B", default=None)
    p.add_argument("--alpha", action="append", type=_alpha_arg, metavar="A",
                   help="Randic exponent for proposition subjects; repeatable (default: 1)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _base_graph(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Graph:
    if args.from_file is not None:
        if args.m is not None or args.n is not None:
            parser.error(f"{args.command}: --from-file excludes --m/--n")
        with open(args.from_file, encoding="ascii") as fh:
            try:
                text = fh.read()
            except OSError as exc:  # a failed read names no file; main reports exc.filename
                exc.filename = args.from_file
                raise
        return Graph.from_edgelist(text)
    if args.m is None or args.n is None:
        parser.error(f"{args.command}: --m and --n are required (or --from-file)")
    return build_ladder(args.m, args.n)


def _indexset_json(s: IndexSet) -> dict:
    return {name: {alpha_label(a): json_value(v) for a, v in value.items()}
            if isinstance(value, dict) else json_value(value)
            for name, value in s._asdict().items()}


def _cmd_graph(args, parser) -> tuple[str, int]:
    if args.m is None or args.n is None:
        parser.error(f"{args.command}: --m and --n are required")
    g = build_ladder(args.m, args.n)
    if args.command == "line":
        g = g.line_graph()
    if args.format == "edgelist":
        return g.to_edgelist(), 0
    payload = {"vertex_count": g.vertex_count, "edge_count": g.edge_count, "edges": g.edges}
    return json.dumps(payload) + "\n", 0


def _cmd_mpoly(args, parser) -> tuple[str, int]:
    g = _base_graph(args, parser)
    poly = g.line_m_polynomial() if args.line else g.m_polynomial()
    fmt = {"text": "plain", "json": "json", "latex": "latex"}[args.format]
    return poly.render(fmt) + "\n", 0


def _cmd_indices(args, parser) -> tuple[str, int]:
    g = _base_graph(args, parser)
    alphas = alpha_list(args.alpha or ())
    # With --line the two routes share not even the line graph: the edge
    # sum runs over the built line graph, the polynomial is tallied from g.
    from_edges = indices_from_edges(g.line_graph() if args.line else g, alphas)
    from_mpoly = indices_from_mpoly(g.line_m_polynomial() if args.line else g.m_polynomial(), alphas)
    rows = from_edges.paired(from_mpoly)
    if args.format == "json":
        payload = {
            "from_edges": _indexset_json(from_edges),
            "from_mpoly": _indexset_json(from_mpoly),
            "agreement": {q: values_equal(a, b) for q, a, b in rows},
        }
        return json.dumps(payload, indent=2) + "\n", 0
    header = ("quantity", "edges", "mpoly", "agree")
    cells = [(q, text_value(a), text_value(b), "yes" if values_equal(a, b) else "NO")
             for q, a, b in rows]
    return "\n".join(table(header, cells)) + "\n", 0


def _cmd_verify(args, parser) -> tuple[str, int]:
    report = verify_all(args.alpha or (), SUBJECT_GROUPS[args.subject], args.m_range, args.n_range)
    text = report.to_json() + "\n" if args.format == "json" else report.to_text()
    return text, 3 if report.theorem_mismatches() else 0


COMMANDS = {"gen": _cmd_graph, "line": _cmd_graph, "mpoly": _cmd_mpoly,
            "indices": _cmd_indices, "verify": _cmd_verify}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output, status = COMMANDS[args.command](args, parser)
        # --out is opened only now, so a failed command leaves it untouched.
        with open(args.out, "wb") if args.out else nullcontext(sys.stdout.buffer) as fh:
            # Under PYTHONUNBUFFERED=1 stdout is a raw stream, and a raw write
            # may take only part of its bytes; write until all are taken.
            view = memoryview(output.encode("ascii"))
            while view:
                view = view[fh.write(view):]
            fh.flush()
    except ValueError as exc:
        print(f"{PROG} {args.command}: error: {exc}", file=sys.stderr)
        if isinstance(exc, InvalidParams):
            print(f"usage hint: {PROG} {args.command} --help", file=sys.stderr)
        return 2
    except OverflowError:
        print(f"{PROG} {args.command}: error: a Randic term overflows float arithmetic; "
              "use a smaller |alpha|", file=sys.stderr)
        return 2
    except OSError as exc:
        path = exc.filename or args.out or "<stdout>"
        print(f"{PROG} {args.command}: error: {path}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
