"""In-process layer trace of one mladder command line.

    python bench/tracer.py SPANS.json ARG...

With mladder importable, this wraps every public function, method and
constructor of the layer modules (:data:`LAYERS`) in every mladder
namespace that holds it -- ``cli`` and ``verify`` import ``build_ladder``,
``indices_from_edges`` and the ``verify_*`` functions by name, so patching
only the defining module would miss those calls.  It then runs
``mladder.cli.main(ARG...)``, exits with its status, and writes the spans
to SPANS.json.  A span is ``[parent, name, start, end, attrs]``; spans nest
through ``parent`` (an index into the list, -1 for a root), and ``attrs``
holds the work counts of that call.

:func:`layer_metrics` turns spans into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path
from types import FunctionType

LAYERS = ("cli", "ladder", "graph", "mpoly", "indices", "closed_forms", "verify")

# Span name -> the group whose self time it counts toward.  Other spans are
# transparent: their time stays in the self time of the nearest grouped
# ancestor (``values_equal`` in the grid loop, ``sort_key`` in sorting, ...).
GROUPS = {
    "cli.main": "cli.main",
    "cli.build_parser": "cli.main",
    "ladder.build_ladder": "ladder.build_ladder",
    "graph.Graph.__init__": "graph.init",
    "graph.Graph.line_graph": "graph.line_graph",
    "graph.Graph.m_polynomial": "graph.m_polynomial",
    "graph.Graph.to_edgelist": "graph.to_edgelist",
    "graph.Graph.from_edgelist": "graph.from_edgelist",
    "mpoly.MPoly.__init__": "mpoly.init",
    "mpoly.MPoly.render": "mpoly.render",
    "mpoly.MPoly.weight_by": "mpoly.weight_by",
    "indices.indices_from_edges": "indices.from_edges",
    "indices.indices_from_mpoly": "indices.from_mpoly",
    "closed_forms.thm31_mpoly": "closed_forms",
    "closed_forms.thm32_mpoly": "closed_forms",
    "closed_forms.prop41_indices": "closed_forms",
    "closed_forms.prop42_indices": "closed_forms",
    "verify.verify_thm31": "verify.grid",
    "verify.verify_thm32": "verify.grid",
    "verify.verify_propositions": "verify.grid",
    "verify.verify_all": "verify.grid",
    "verify.combine": "verify.report",
    "verify.VerificationReport.to_json": "verify.report",
    "verify.VerificationReport.to_text": "verify.report",
    "verify.VerificationReport.theorem_mismatches": "verify.report",
}

# Per-layer metric -> unit.  Counts repeat exactly from run to run; only
# the "s" and "ns" metrics are timings.
PER_LAYER = {
    "indices.from_edges.calls": "count",
    "indices.from_edges.edges": "count",
    "indices.from_edges.self_s": "s",
    "indices.from_edges.ns_per_edge": "ns",
    "indices.from_mpoly.self_s": "s",
    "indices.from_mpoly.terms": "count",
    "graph.init.calls": "count",
    "graph.init.edges": "count",
    "graph.init.self_s": "s",
    "graph.init.trusted_share": "ratio",
    "graph.line_graph.calls": "count",
    "graph.line_graph.pairs": "count",
    "graph.line_graph.self_s": "s",
    "graph.m_polynomial.edges": "count",
    "graph.m_polynomial.self_s": "s",
    "graph.to_edgelist.bytes": "B",
    "graph.to_edgelist.self_s": "s",
    "graph.from_edgelist.bytes": "B",
    "graph.from_edgelist.self_s": "s",
    "cli.main.self_s": "s",
    "cli.out_bytes": "B",
    "ladder.build_ladder.calls": "count",
    "ladder.build_ladder.self_s": "s",
    "mpoly.init.calls": "count",
    "mpoly.init.self_s": "s",
    "mpoly.terms": "count",
    "mpoly.render.self_s": "s",
    "mpoly.weight_by.calls": "count",
    "mpoly.weight_by.self_s": "s",
    "closed_forms.calls": "count",
    "closed_forms.self_s": "s",
    "verify.grid.self_s": "s",
    "verify.builds_per_point": "ratio",
    "verify.line_graphs_per_point": "ratio",
    "verify.report.self_s": "s",
    "verify.cases.match": "count",
    "verify.cases.mismatch": "count",
    "verify.cases.out-of-domain": "count",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.overhead_s": "s",
}
TIMING_UNITS = ("s", "ns")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _verdicts(args, kwargs, result):
    totals = Counter()
    for counts in args[0].summary.values():
        totals.update(counts)
    return dict(totals)


# Span name -> function of (args, kwargs, result) giving the call's work counts.
ATTRS = {
    "ladder.build_ladder": lambda a, k, r: {"point": [_arg(a, k, 0, "m"), _arg(a, k, 1, "n")]},
    "graph.Graph.__init__": lambda a, k, r: {"edges": a[0].edge_count},
    "graph.Graph.line_graph": lambda a, k, r: {"pairs": r.edge_count},
    "graph.Graph.m_polynomial": lambda a, k, r: {"edges": a[0].edge_count},
    "graph.Graph.to_edgelist": lambda a, k, r: {"bytes": len(r)},
    "graph.Graph.from_edgelist": lambda a, k, r: {"bytes": len(_arg(a, k, 1, "text"))},
    "mpoly.MPoly.__init__": lambda a, k, r: {"terms": len(a[0].terms)},
    "indices.indices_from_edges": lambda a, k, r: {"edges": _arg(a, k, 0, "g").edge_count},
    "indices.indices_from_mpoly": lambda a, k, r: {"terms": len(_arg(a, k, 0, "p").terms)},
    "verify.VerificationReport.to_json": _verdicts,
    "verify.VerificationReport.to_text": _verdicts,
}


class Tracer:
    """Records one span per call of each wrapped callable."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._last_error = None

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                # An exception passes through every enclosing span; count it
                # once, where it was raised.
                first = exc is not self._last_error
                self._last_error = exc
                spans[sid] = [parent, name, start, end, {"error": type(exc).__name__} if first else None]
                raise
            end = clock()
            stack.pop()
            spans[sid] = [parent, name, start, end, attrs_of(args, kwargs, result) if attrs_of else None]
            return result

        return traced


def install(tracer: Tracer):
    """Wrap the layer modules' public callables; return the wrapped ``mladder.cli``."""
    originals = {}
    for layer in LAYERS:
        module = importlib.import_module(f"mladder.{layer}")
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, FunctionType):
                originals[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
            elif isinstance(obj, type):
                for meth, member in list(vars(obj).items()):
                    if meth.startswith("_") and meth != "__init__":
                        continue
                    name = f"{layer}.{obj.__name__}.{meth}"
                    if isinstance(member, FunctionType):
                        setattr(obj, meth, tracer.wrap(name, member))
                    elif isinstance(member, (classmethod, staticmethod)):
                        setattr(obj, meth, type(member)(tracer.wrap(name, member.__func__)))
    for module_name, module in list(sys.modules.items()):
        if module_name != "mladder" and not module_name.startswith("mladder."):
            continue
        for attr, obj in list(vars(module).items()):
            entry = originals.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(module, attr, entry[1])
    return sys.modules["mladder.cli"]


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics from one traced run, all of :data:`PER_LAYER` but the two
    measured outside the process (``cli.out_bytes``, ``trace.overhead_s``)."""
    groups = [GROUPS.get(span[1]) for span in spans]
    host = [-1] * len(spans)      # nearest grouped span at or above each span
    in_grid = [False] * len(spans)
    self_s: Counter = Counter()
    calls: Counter = Counter()
    sums: Counter = Counter()
    errors: Counter = Counter()
    verdicts: Counter = Counter()
    trusted_edges = 0
    grid_points, grid_builds, grid_lines = set(), 0, 0
    for sid, (parent, name, start, end, attrs) in enumerate(spans):
        group = groups[sid]
        above = host[parent] if parent >= 0 else -1
        host[sid] = sid if group else above
        in_grid[sid] = group == "verify.grid" or (parent >= 0 and in_grid[parent])
        calls[name] += 1
        if group:
            self_s[group] += end - start
            if above >= 0:
                self_s[groups[above]] -= end - start
        attrs = attrs or {}
        if "error" in attrs:
            errors[name.split(".")[0]] += 1
        for key in ("edges", "pairs", "bytes", "terms"):
            sums[name, key] += attrs.get(key, 0)
        if name.startswith("verify.VerificationReport.to_"):
            verdicts.update({k: v for k, v in attrs.items() if k != "error"})
        if name == "graph.Graph.__init__" and parent >= 0 and \
                spans[parent][1] in ("ladder.build_ladder", "graph.Graph.line_graph"):
            trusted_edges += attrs.get("edges", 0)
        if in_grid[sid] and name == "ladder.build_ladder" and "point" in attrs:
            grid_points.add(tuple(attrs["point"]))
            grid_builds += 1
        if in_grid[sid] and name == "graph.Graph.line_graph":
            grid_lines += 1

    def per(a, b):
        return a / b if b else 0.0

    def group_calls(group):
        return sum(c for name, c in calls.items() if GROUPS.get(name) == group)

    edge_sum_edges = sums["indices.indices_from_edges", "edges"]
    init_edges = sums["graph.Graph.__init__", "edges"]
    m = {
        "indices.from_edges.calls": calls["indices.indices_from_edges"],
        "indices.from_edges.edges": edge_sum_edges,
        "indices.from_edges.self_s": self_s["indices.from_edges"],
        "indices.from_edges.ns_per_edge": per(self_s["indices.from_edges"] * 1e9, edge_sum_edges),
        "indices.from_mpoly.self_s": self_s["indices.from_mpoly"],
        "indices.from_mpoly.terms": sums["indices.indices_from_mpoly", "terms"],
        "graph.init.calls": calls["graph.Graph.__init__"],
        "graph.init.edges": init_edges,
        "graph.init.self_s": self_s["graph.init"],
        "graph.init.trusted_share": per(trusted_edges, init_edges),
        "graph.line_graph.calls": calls["graph.Graph.line_graph"],
        "graph.line_graph.pairs": sums["graph.Graph.line_graph", "pairs"],
        "graph.line_graph.self_s": self_s["graph.line_graph"],
        "graph.m_polynomial.edges": sums["graph.Graph.m_polynomial", "edges"],
        "graph.m_polynomial.self_s": self_s["graph.m_polynomial"],
        "graph.to_edgelist.bytes": sums["graph.Graph.to_edgelist", "bytes"],
        "graph.to_edgelist.self_s": self_s["graph.to_edgelist"],
        "graph.from_edgelist.bytes": sums["graph.Graph.from_edgelist", "bytes"],
        "graph.from_edgelist.self_s": self_s["graph.from_edgelist"],
        "cli.main.self_s": self_s["cli.main"],
        "ladder.build_ladder.calls": calls["ladder.build_ladder"],
        "ladder.build_ladder.self_s": self_s["ladder.build_ladder"],
        "mpoly.init.calls": calls["mpoly.MPoly.__init__"],
        "mpoly.init.self_s": self_s["mpoly.init"],
        "mpoly.terms": sums["mpoly.MPoly.__init__", "terms"],
        "mpoly.render.self_s": self_s["mpoly.render"],
        "mpoly.weight_by.calls": calls["mpoly.MPoly.weight_by"],
        "mpoly.weight_by.self_s": self_s["mpoly.weight_by"],
        "closed_forms.calls": group_calls("closed_forms"),
        "closed_forms.self_s": self_s["closed_forms"],
        "verify.grid.self_s": self_s["verify.grid"],
        "verify.builds_per_point": per(grid_builds, len(grid_points)),
        "verify.line_graphs_per_point": per(grid_lines, len(grid_points)),
        "verify.report.self_s": self_s["verify.report"],
    }
    for verdict in ("match", "mismatch", "out-of-domain"):
        m[f"verify.cases.{verdict}"] = verdicts[verdict]
    for layer in LAYERS:
        m[f"{layer}.errors"] = errors[layer]
    return m


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    cli = install(tracer)
    try:
        status = cli.main(cli_args)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        spans_path.write_text(json.dumps(tracer.spans), encoding="ascii")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
