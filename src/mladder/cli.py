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
findings and leave the status at 0), 1 on I/O failure.  An ``--out`` path
that is empty or names a directory, whose parent is missing or not a
directory, or whose name is too long for its file system, is reported
before the command runs, so it exits 1 even when the parameters are
invalid too.  The parsers check only syntax: alphas, ranges and sizes are
checked by the library, which raises ``ValueError`` (exit 2).  An empty ``--out`` or ``--from-file`` path is a
path that cannot be opened, never a stand-in for stdout.

:func:`main` runs one command and returns its status, for callers in
process; :func:`run`, the console script and ``python -m mladder.cli``, also
ends the process.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import stat
import sys
from contextlib import nullcontext
from typing import Optional, Sequence

from .graph import Graph
from .indices import IndexSet, alpha_label, check_alpha_digits, indices_from_edges, indices_from_mpoly
from .ladder import MIN_M, MIN_N, InvalidParams, build_ladder
from .verify import SUBJECT_GROUPS, json_value, table, text_value, values_equal, verify_all

PROG = "mladder"


def _range_arg(text: str) -> tuple[int, int]:
    # Only the syntax: verify_all refuses an empty range or one outside the domain.
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A:B with integers, got {text!r}") from None


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
    p.add_argument("--alpha", action="append", type=float, metavar="A",
                   help="Randic exponent; repeatable (default: 1)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", parents=[common],
                       help="cross-validate the claimed closed forms")
    p.add_argument("--subject", choices=SUBJECT_GROUPS, default="all")
    p.add_argument("--m-range", type=_range_arg, metavar="A:B", default=None)
    p.add_argument("--n-range", type=_range_arg, metavar="A:B", default=None)
    p.add_argument("--alpha", action="append", type=float, metavar="A",
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
    # A non-finite alpha is refused before the graph is read or built.
    alphas = check_alpha_digits(args.alpha or (1,), 1)
    g = _base_graph(args, parser)
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
    report = verify_all(args.alpha or (1,), SUBJECT_GROUPS[args.subject], args.m_range, args.n_range)
    text = report.to_json() + "\n" if args.format == "json" else report.to_text()
    return text, 3 if report.theorem_mismatches() else 0


def _check_out(path: str) -> None:
    """Raise the error that opening ``path`` for writing would raise when it
    is empty, names a directory, its parent cannot be reached as a
    directory, or its last component is longer than the parent's file
    system allows.

    Only ``stat`` and ``pathconf`` are called: nothing is opened, created or
    truncated, so a FIFO at ``path`` is opened once, by the write after the
    command.
    """
    if not path:
        code = errno.ENOENT
    elif path.endswith(os.sep) or os.path.isdir(path):
        code = errno.EISDIR
    else:
        parent = os.path.dirname(path) or os.curdir
        try:
            mode = os.stat(parent).st_mode
            # A file system with no limit on name length reports -1.
            too_long = len(os.fsencode(os.path.basename(path))) > os.pathconf(parent, "PC_NAME_MAX") > 0
        except OSError as exc:  # what resolving the parent meets, opening path meets too
            code = exc.errno
        else:
            code = errno.ENOTDIR if not stat.S_ISDIR(mode) else errno.ENAMETOOLONG if too_long else None
    if code is not None:
        raise OSError(code, os.strerror(code), path)


COMMANDS = {"gen": _cmd_graph, "line": _cmd_graph, "mpoly": _cmd_mpoly,
            "indices": _cmd_indices, "verify": _cmd_verify}


def main(argv: Optional[Sequence[str]] = None) -> int:
    # A run makes next to no reference cycles: its graphs, tallies and
    # reports are tuples, lists, dicts and Fractions that refer to nothing
    # that refers back.  Automatic cycle collection would scan them again
    # and again and find nothing, so it is off for the run, and the caller's
    # setting is restored on every exit.
    collecting = gc.isenabled()
    gc.disable()
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        try:
            if args.out is not None:
                _check_out(args.out)
            text, status = COMMANDS[args.command](args, parser)
            # --out is opened only now, so a failed command leaves it untouched.
            with open(args.out, "wb") if args.out is not None else nullcontext(sys.stdout.buffer) as fh:
                # Under PYTHONUNBUFFERED=1 stdout is a raw stream, and a raw write
                # may take only part of its bytes; write until all are taken.
                view = memoryview(text.encode("ascii"))
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
            # An empty path is a path too: it names itself, not stdout.
            path = next(name for name in (exc.filename, args.out, "<stdout>") if name is not None)
            print(f"{PROG} {args.command}: error: {path}: {exc.strerror or exc}", file=sys.stderr)
            return 1
        return status
    finally:
        if collecting:
            gc.enable()


def run() -> None:
    """Run :func:`main` on ``sys.argv`` and end the process with its status.

    The heap is frozen first, so the collections the interpreter makes as it
    shuts down skip every object the run made: its output is written and
    flushed by then, and none of its objects has a finalizer that matters at
    exit.  ``main`` itself never freezes, so callers in process keep a heap
    the collector can reach.
    """
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
