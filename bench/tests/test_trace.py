"""The layer trace: self-time arithmetic, and exact counts that repeat between runs."""

import json

import pytest

import run
import tracer
import workloads

MEASURED_OUTSIDE = ("cli.out_bytes", "trace.overhead_s")


def span(parent, name, start, end, attrs=None):
    return [parent, name, start, end, attrs]


def test_self_time_excludes_grouped_children_only():
    spans = [
        span(-1, "cli.main", 0.0, 10.0),
        span(0, "verify.verify_thm31", 1.0, 9.0),
        span(1, "ladder.build_ladder", 2.0, 5.0, {"point": [4, 3]}),
        span(2, "graph.Graph.__init__", 3.0, 4.0, {"edges": 15}),
        span(1, "verify.values_equal", 5.0, 6.0),             # transparent
        span(4, "graph.Graph.__init__", 5.5, 5.75, {"edges": 5}),
        span(1, "ladder.build_ladder", 6.0, 7.0, {"point": [4, 3]}),
    ]
    m = tracer.layer_metrics(spans)
    assert m["cli.main.self_s"] == 2.0
    assert m["verify.grid.self_s"] == 8.0 - 3.0 - 0.25 - 1.0
    assert m["ladder.build_ladder.self_s"] == 3.0 - 1.0 + 1.0
    assert m["graph.init.self_s"] == 1.25
    assert m["graph.init.edges"] == 20
    assert m["graph.init.trusted_share"] == 15 / 20
    assert m["verify.builds_per_point"] == 2.0
    assert set(m) == set(tracer.PER_LAYER) - set(MEASURED_OUTSIDE)


def test_error_counted_once_where_raised():
    spans = [
        span(-1, "cli.main", 0.0, 3.0, None),
        span(0, "graph.Graph.from_edgelist", 1.0, 2.0, None),
        span(1, "graph.Graph.__init__", 1.5, 1.75, {"error": "ValueError"}),
    ]
    m = tracer.layer_metrics(spans)
    assert m["graph.errors"] == 1
    assert m["cli.errors"] == 0


def traced_run(name):
    case = workloads.prepare(name, 3, run.OUT)
    spans_path = run.OUT / f"spans-test-{name}.json"
    sample = run.spawn([str(run.BENCH / "tracer.py"), str(spans_path), *case.argv], run.child_env())
    assert workloads.problems(case, sample.status, sample.stdout) == []
    return tracer.layer_metrics(json.loads(spans_path.read_text()))


@pytest.mark.parametrize("name", ["verify-grid", "hubs-mpoly"])
def test_counts_repeat_between_traced_runs(name):
    run.OUT.mkdir(exist_ok=True)
    a, b = traced_run(name), traced_run(name)
    counts = [k for k, unit in tracer.PER_LAYER.items()
              if unit not in tracer.TIMING_UNITS and k not in MEASURED_OUTSIDE]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert all(a[k] == 0 for k in a if k.endswith(".errors"))
    if name == "verify-grid":
        # Reached only through names that verify imported from other modules.
        assert a["verify.builds_per_point"] > 1
        assert a["closed_forms.calls"] > 0
        assert a["indices.from_edges.edges"] > 0
        assert a["verify.cases.mismatch"] > 0
    else:
        assert a["graph.from_edgelist.bytes"] > 0
        assert 0 < a["graph.init.trusted_share"] < 1
