"""Fast routes against the plain ones they replaced.

``indices_from_edges`` tallies degree pairs and ``Graph.__init__`` checks
its edges in bulk on a sorted list.  The references below are the plain
per-edge loops those replaced; both versions must give the same values
(exactly, and bit for bit for float alpha) and accept and reject the same
edge lists.  ``Graph.line_m_polynomial`` tallies the line graph's
M-polynomial from the degree-transfer law; it must equal the M-polynomial
of the materialized line graph.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mladder import Graph, MPoly, indices_from_edges, normalize_alpha

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
        assert g.line_m_polynomial() == g.line_graph().m_polynomial()


@pytest.mark.parametrize("g", [
    Graph(0),
    Graph(5),
    Graph(2, [(0, 1)]),
    star_graph(300),
    Graph(9, path_graph(6).edges),
], ids=["empty", "isolated-only", "single-edge", "star-300", "path-with-isolated"])
def test_line_mpoly_edge_cases(g):
    assert g.line_m_polynomial() == g.line_graph().m_polynomial()


def test_line_mpoly_of_star_and_single_edge():
    assert star_graph(300).line_m_polynomial() == MPoly({(299, 299): 300 * 299 // 2})
    assert Graph(2, [(0, 1)]).line_m_polynomial() == MPoly()


@given(simple_graphs())
def test_line_mpoly_matches_line_graph(g):
    assert g.line_m_polynomial() == g.line_graph().m_polynomial()


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
