"""Fast routes against the plain ones they replaced.

``indices_from_edges`` tallies degree pairs and sums each exact index in
integers over one common denominator, and ``Graph.__init__`` checks its
edges in bulk on a sorted list.  The references below are the plain
per-edge loops those replaced; both versions must give the same values
(exactly, and bit for bit for float alpha) and accept and reject the same
edge lists.  ``Graph.line_m_polynomial`` tallies the line graph's
M-polynomial from the degree-transfer law once per neighbour-degree
profile; it must equal both the per-vertex tally it replaced and the
M-polynomial of the materialized line graph.  ``VerificationReport.to_json``
lays its records out from a template; it must give the very bytes of
``json.dumps(records, indent=2)``, which it replaced.
"""

import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mladder import Graph, MPoly, indices_from_edges, normalize_alpha, verify_all
from mladder.verify import CaseResult, VerificationReport, json_value

from conftest import path_graph, star_graph
from test_acceptance import EXACT_ALPHAS, FLOAT_ALPHAS, corpus

ALPHAS = EXACT_ALPHAS + FLOAT_ALPHAS + (1.5, -2.25, 3.0)


def reference_indices(g, alphas):
    """One term per edge per index, added in edge order."""
    d = g.degrees()
    m1 = m2 = mm2 = sdd = Fraction(0)
    for u, v in g.edges:
        du, dv = d[u], d[v]
        m1 += du + dv
        m2 += du * dv
        mm2 += Fraction(1, du * dv)
        lo, hi = (du, dv) if du <= dv else (dv, du)
        sdd += Fraction(lo, hi) + Fraction(hi, lo)
    r, rr = {}, {}
    for alpha in (normalize_alpha(a) for a in alphas):
        if isinstance(alpha, int):
            r[alpha] = sum((Fraction(d[u] * d[v]) ** alpha for u, v in g.edges), Fraction(0))
            rr[alpha] = sum((Fraction(d[u] * d[v]) ** -alpha for u, v in g.edges), Fraction(0))
        else:
            r[alpha] = sum(((d[u] * d[v]) ** alpha for u, v in g.edges), 0.0)
            rr[alpha] = sum(((d[u] * d[v]) ** -alpha for u, v in g.edges), 0.0)
    return m1, m2, mm2, sdd, r, rr


def reference_graph(vertex_count, edges):
    """Validate edge by edge; return ``(edges, degrees)`` or raise ``ValueError``."""
    normalized = set()
    degrees = [0] * vertex_count
    for u, v in edges:
        if not (isinstance(u, int) and isinstance(v, int)):
            raise ValueError("ids")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError("range")
        if u == v:
            raise ValueError("loop")
        e = (u, v) if u < v else (v, u)
        if e in normalized:
            raise ValueError("parallel")
        normalized.add(e)
        degrees[u] += 1
        degrees[v] += 1
    return tuple(sorted(normalized)), tuple(degrees)


def reference_line_mpoly(g):
    """One tally keyed by ``(vertex, line degree)``, then the pairs vertex by vertex."""
    d = g.degrees()
    around = Counter()
    for u, v in g.edges:
        k = d[u] + d[v] - 2
        around[(u, k)] += 1
        around[(v, k)] += 1
    counts = Counter()
    vertex, seen = None, []  # seen: the (a, c_a) of this vertex with a < k
    for (w, k), c in sorted(around.items()):
        if w != vertex:
            vertex, seen = w, []
        counts[(k, k)] += c * (c - 1) // 2
        for a, count_a in seen:
            counts[(a, k)] += count_a * c
        seen.append((k, c))
    return MPoly(counts)


def hub_graph(seed, vertices=2000, background_edges=4000, hubs=4, hub_degree=60):
    """Random background edges plus a few hubs: many vertices share a neighbour-degree
    profile, and the hubs' neighbours have high-degree profiles."""
    rng = random.Random(seed)
    hub_ids = rng.sample(range(vertices), hubs)
    others = [v for v in range(vertices) if v not in hub_ids]
    edges = set()
    while len(edges) < background_edges:
        u, v = rng.sample(others, 2)
        edges.add((min(u, v), max(u, v)))
    edges.update((h, v) for h in hub_ids for v in rng.sample(others, hub_degree))
    return Graph(vertices, edges)


def assert_same_line_mpoly(g):
    got = g.line_m_polynomial()
    assert got == reference_line_mpoly(g)
    assert got == g.line_graph().m_polynomial()


def assert_same_indices(g, alphas):
    got = indices_from_edges(g, alphas)
    m1, m2, mm2, sdd, r, rr = reference_indices(g, alphas)
    assert (got.m1, got.m2, got.mm2, got.sdd) == (m1, m2, mm2, sdd)
    assert all(isinstance(x, Fraction) for x in (got.m1, got.m2, got.mm2, got.sdd))
    assert got.r_alpha == r and got.rr_alpha == rr
    for a in r:
        assert type(got.r_alpha[a]) is type(r[a]) and type(got.rr_alpha[a]) is type(rr[a])


def test_edge_sum_matches_reference_on_corpus():
    for g in corpus():
        assert_same_indices(g, ALPHAS)


@pytest.mark.parametrize("g", [
    hub_graph(seed=2015),
    hub_graph(seed=2015, vertices=400, background_edges=600, hubs=3, hub_degree=40).line_graph(),
], ids=["hubs", "hubs-line"])
def test_edge_sum_matches_reference_over_large_common_denominator(g):
    # 67 and 167 distinct degree products, whose lcm has 9 and 21 digits.
    assert_same_indices(g, range(-3, 4))


@st.composite
def simple_graphs(draw):
    k = draw(st.integers(2, 14))
    pairs = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=40, unique_by=lambda e: (min(e), max(e))))
    return Graph(k, edges)


@given(simple_graphs(), st.lists(st.integers(-4, 4) | st.floats(-3, 3), min_size=1, max_size=4))
def test_edge_sum_matches_reference(g, alphas):
    assert_same_indices(g, alphas)


def test_line_mpoly_matches_line_graph_on_corpus():
    # The corpus holds ladders with n = 2, 3 (below the stated domain) and
    # every ladder's line graph, so this also covers line graphs of line graphs.
    for g in corpus():
        assert_same_line_mpoly(g)


@pytest.mark.parametrize("g", [
    Graph(0),
    Graph(5),
    Graph(2, [(0, 1)]),
    star_graph(300),
    Graph(9, path_graph(6).edges),
    hub_graph(seed=2015),
], ids=["empty", "isolated-only", "single-edge", "star-300", "path-with-isolated", "hubs"])
def test_line_mpoly_edge_cases(g):
    assert_same_line_mpoly(g)


def test_line_mpoly_memory_does_not_grow_with_vertex_count():
    g = Graph(10**6, [(0, 1), (1, 2), (2, 3)])
    tracemalloc.start()
    try:
        assert g.line_m_polynomial() == MPoly({(1, 2): 2})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024  # one byte per vertex would already be 1e6 bytes


def test_line_mpoly_of_star_and_single_edge():
    assert star_graph(300).line_m_polynomial() == MPoly({(299, 299): 300 * 299 // 2})
    assert Graph(2, [(0, 1)]).line_m_polynomial() == MPoly()


@given(simple_graphs())
def test_line_mpoly_matches_line_graph(g):
    assert_same_line_mpoly(g)


# Vertex ids the reference rejects or accepts; bools are left out here
# because the constructor now rejects them on purpose (see below).
ids = st.integers(-2, 9) | st.sampled_from([1.0, 2.5, "1", "a"])


@st.composite
def edge_lists(draw):
    k = draw(st.integers(0, 8))
    edges = draw(st.lists(st.tuples(ids, ids), max_size=12))
    if edges and draw(st.booleans()):  # a duplicate, possibly reversed
        u, v = draw(st.sampled_from(edges))
        edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from([(u, v), (v, u)])))
    return k, edges


@given(edge_lists())
def test_constructor_accepts_and_rejects_like_reference(case):
    k, edges = case
    try:
        want = reference_graph(k, edges)
    except ValueError:
        with pytest.raises(ValueError):
            Graph(k, edges)
        return
    g = Graph(k, edges)
    assert (g.edges, g.degrees()) == want


@given(simple_graphs())
def test_constructor_matches_reference_on_valid_graphs(g):
    reversed_edges = [(v, u) for u, v in reversed(g.edges)]
    assert (Graph(g.vertex_count, reversed_edges).edges, g.degrees()) == \
        reference_graph(g.vertex_count, reversed_edges)


@pytest.mark.parametrize("edges,message", [
    ([(0, 1), (2, 2)], "self-loop at vertex 2"),
    ([(0, 1), (1, 0)], r"parallel edge \(0, 1\)"),
    ([(0, 1), (1, 3)], r"edge \(1, 3\) out of range for 3 vertices"),
    ([(-1, 1)], r"edge \(-1, 1\) out of range for 3 vertices"),
    ([(0, 1.0)], r"vertex identifiers must be integers, got \(0, 1.0\)"),
    ([(0, 1), (0, "a")], r"vertex identifiers must be integers, got \(0, 'a'\)"),
    ([("a", "b")], r"vertex identifiers must be integers, got \('a', 'b'\)"),
    (iter([(0, 1), ("a", 2)]), r"vertex identifiers must be integers, got \('a', 2\)"),
])
def test_constructor_messages(edges, message):
    with pytest.raises(ValueError, match=message):
        Graph(3, edges)


def test_bool_vertex_ids_are_rejected():
    with pytest.raises(ValueError, match="vertex identifiers must be integers"):
        Graph(3, [(True, 2), (0, 1)])
    with pytest.raises(ValueError, match="vertex identifiers must be integers"):
        Graph(3, [(0, False)])


def reference_report_json(report):
    """The case records laid out by ``json``'s own indenting encoder."""
    return json.dumps([
        {
            "m": c.m,
            "n": c.n,
            "subject": c.subject,
            "quantity": c.quantity,
            "computed": json_value(c.computed),
            "closed_form": json_value(c.closed_form),
            "verdict": c.verdict,
        }
        for c in report.cases
    ], indent=2)


@pytest.mark.parametrize("kwargs", [
    {},
    {"alphas": (1, 0.5, -1.5, 1e-05)},
    {"subjects": ()},
], ids=["default", "float-alphas", "empty"])
def test_report_json_matches_json_dumps(kwargs):
    report = verify_all(**kwargs)
    assert report.to_json() == reference_report_json(report)


report_values = st.none() | st.sampled_from([5e-324, 1e16, 1.7976931348623157e308, -0.0]) \
    | st.floats(allow_nan=False, allow_infinity=False) \
    | st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40))
labels = st.sampled_from(['r_alpha[0.5]', 'say "hi"', 'back\\slash', 'Randi\u0107', 'x\ty\n']) | st.text()


@given(st.lists(st.builds(
    CaseResult, m=st.integers(-10**20, 10**20), n=st.integers(0, 10**6), subject=labels,
    quantity=labels, computed=report_values, closed_form=report_values,
    verdict=st.sampled_from(["match", "mismatch", "out-of-domain"]) | labels,
), max_size=6))
def test_report_json_matches_json_dumps_on_any_cases(cases):
    report = VerificationReport(cases=tuple(cases), summary={})
    assert report.to_json() == reference_report_json(report)
