"""Fast routes against the plain ones they replaced.

``Graph.m_polynomial`` and ``indices_from_edges`` count each edge's
degree pair in a table indexed by the ranks of the distinct degrees, which
is O(E) since distinct positive degrees sum to at most ``2E``; the
references are the per-edge tuple-keyed tallies they replaced.
``indices_from_edges`` then sums each exact index in integers over one
common denominator, and ``Graph.__init__`` checks its edges in bulk on a
sorted list.  The references below are the plain per-edge loops those
replaced; both versions must give the same values and accept and reject
the same edge lists.  Exact values must be equal;
a float value for non-integer alpha must lie within 2 ulp of the
reference, the correctly rounded sum of one term per edge.  The edge
route sums one term ``c * p ** alpha`` per distinct degree product ``p``
instead, which rounds each term once more.
``Graph.line_m_polynomial`` tallies the line graph's
M-polynomial from the degree-transfer law once per neighbour-degree
profile, counting the degree pairs of short profiles and the runs of
long ones; it must equal both the per-vertex tally it replaced and the
M-polynomial of the materialized line graph, on profiles on both sides of
that bound.  ``Graph.from_edgelist`` finds
the header without splitting the text into lines, whatever its line ends,
and parses a body in bulk when its digits and blanks are laid out as the
header's edge count says a canonical body's are; it must give the same
graph or the same error message as the per-line parser alone, on canonical
text, on near misses of it and on every line end ``str.splitlines`` knows.
``VerificationReport.to_json``
lays its records out from a template; it must give the very bytes of
``json.dumps(records, indent=2)``, which it replaced.
"""

import json
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mladder import Graph, MPoly, indices_from_edges, normalize_alpha, verify_all
from mladder.graph import _SHORT_PROFILE as SHORT
from mladder.verify import CaseResult, VerificationReport, json_value

from conftest import (EXACT_ALPHAS, FLOAT_ALPHAS, HUGE_ID, corpus, edgelist_texts, path_graph,
                      simple_graphs, star_graph)

ALPHAS = EXACT_ALPHAS + FLOAT_ALPHAS + (1.5, -2.25, 3.0, -3)


def reference_indices(g, alphas):
    """One term per edge per index; float terms summed with ``math.fsum``."""
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
            r[alpha] = math.fsum((d[u] * d[v]) ** alpha for u, v in g.edges)
            rr[alpha] = math.fsum((d[u] * d[v]) ** -alpha for u, v in g.edges)
    return m1, m2, mm2, sdd, r, rr


def reference_mpoly(g):
    """One ``(smaller, larger)`` degree pair per edge, tallied in a ``Counter``."""
    d = g.degrees()
    return MPoly(Counter((d[u], d[v]) if d[u] <= d[v] else (d[v], d[u]) for u, v in g.edges))


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


def hubs_on_a_cycle(seed, vertices=400, hub_degrees=(40,) * 4):
    """Hubs joined to random vertices of a cycle: nearly every neighbour of a hub
    has degree 3, so a hub's profile is a few long runs of equal degrees."""
    rng = random.Random(seed)
    edges = [(v, (v + 1) % vertices) for v in range(vertices)]
    edges += [(v, h) for h, k in enumerate(hub_degrees, vertices) for v in rng.sample(range(vertices), k)]
    return Graph(vertices + len(hub_degrees), edges)


def assert_same_line_mpoly(g):
    got = g.line_m_polynomial()
    assert got == reference_line_mpoly(g)
    assert got == g.line_graph().m_polynomial()


def assert_same_indices(g, alphas):
    got = indices_from_edges(g, alphas)
    m1, m2, mm2, sdd, r, rr = reference_indices(g, alphas)
    assert (got.m1, got.m2, got.mm2, got.sdd) == (m1, m2, mm2, sdd)
    assert all(isinstance(x, Fraction) for x in (got.m1, got.m2, got.mm2, got.sdd))
    assert got.r_alpha.keys() == r.keys() and got.rr_alpha.keys() == rr.keys()
    for values, want in ((got.r_alpha, r), (got.rr_alpha, rr)):
        for a, w in want.items():
            assert type(values[a]) is type(w)
            if isinstance(w, float):
                # All terms are positive: one rounding per tally term plus the final one.
                assert abs(values[a] - w) <= 2 * math.ulp(w), (a, values[a], w)
            else:
                assert values[a] == w


def staircase_graph(k):
    """Vertices ``0 .. k-1``, with ``i < j`` adjacent iff ``i + j >= k``: nested
    neighbourhoods, so vertex ``i`` has degree ``i`` or ``i - 1``, and the degrees
    are ``0 .. k-2``, each distinct one a row and a column of the rank table."""
    return Graph(k, [(i, j) for j in range(k) for i in range(max(k - j, 0), j)])


STAIRCASE = staircase_graph(203)


def test_staircase_has_many_distinct_degrees():
    assert len(set(STAIRCASE.degrees())) == 202


def test_edge_sum_matches_reference_on_corpus():
    for g in corpus():
        assert_same_indices(g, ALPHAS)


def test_mpoly_matches_reference_on_corpus():
    for g in corpus():
        assert g.m_polynomial() == reference_mpoly(g)


@pytest.mark.parametrize("graphs", [
    [Graph(0)],
    [Graph(5)],
    [Graph(9, path_graph(6).edges)],
    [Graph(10**6, [(0, 1), (1, 2), (2, 3)])],
    [STAIRCASE],
    # 67 and 167 distinct degree products, whose lcm has 9 and 21 digits.
    [hub_graph(seed=2015)],
    [hub_graph(seed=2015, vertices=400, background_edges=600, hubs=3, hub_degree=40).line_graph()],
], ids=["empty", "isolated-only", "path-with-isolated", "few-edges-many-vertices", "staircase",
        "hubs", "hubs-line"])
def test_tallies_match_reference_edge_cases(graphs):
    for g in graphs:
        assert g.m_polynomial() == reference_mpoly(g)
        assert_same_indices(g, ALPHAS)


@given(simple_graphs(), st.lists(st.integers(-4, 4) | st.floats(-3, 3), min_size=1, max_size=4))
def test_edge_sum_matches_reference(g, alphas):
    assert_same_indices(g, alphas)


@given(simple_graphs())
def test_mpoly_matches_reference(g):
    assert g.m_polynomial() == reference_mpoly(g)


def test_degree_pair_tallies_memory_does_not_grow_with_vertex_count():
    g = Graph(10**6, [(0, 1), (1, 2), (2, 3)])
    tracemalloc.start()
    try:
        assert g.m_polynomial() == MPoly({(1, 2): 2, (2, 2): 1})
        assert indices_from_edges(g).m1 == 10
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024  # one byte per vertex would already be 1e6 bytes


@pytest.mark.parametrize("graphs", [
    # Ladders with n = 2, 3 (below the stated domain) and every ladder's
    # line graph, so line graphs of line graphs too.
    corpus(),
    [Graph(0)],
    [Graph(5)],
    [Graph(2, [(0, 1)])],
    [star_graph(300)],
    [Graph(9, path_graph(6).edges)],
    [hub_graph(seed=2015)],
    [hubs_on_a_cycle(seed=2015)],
    # Profiles of 12 and 16 entries are counted pair by pair, of 17 and 40 by runs.
    [hubs_on_a_cycle(seed=7, vertices=200, hub_degrees=(12, SHORT, SHORT + 1, 40))],
], ids=["corpus", "empty", "isolated-only", "single-edge", "star-300", "path-with-isolated", "hubs",
        "hubs-on-a-cycle", "hubs-of-both-profile-kinds"])
def test_line_mpoly_edge_cases(graphs):
    for g in graphs:
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


def test_line_graph_memory_does_not_grow_with_vertex_count():
    g = Graph(10**6, [(0, 1), (1, 2), (2, 3)])
    tracemalloc.start()
    try:
        assert g.line_graph() == Graph(3, [(0, 1), (1, 2)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024  # one empty list per vertex would already be 56e6 bytes


def test_line_mpoly_of_star_and_single_edge():
    assert star_graph(300).line_m_polynomial() == MPoly({(299, 299): 300 * 299 // 2})
    assert Graph(2, [(0, 1)]).line_m_polynomial() == MPoly()


@given(simple_graphs())
def test_line_mpoly_matches_line_graph(g):
    assert_same_line_mpoly(g)


@st.composite
def profile_graphs(draw):
    """Centres of degree 0 .. SHORT + 4 over a pool of SHORT + 6 vertices with
    a few edges of their own, so a centre's profile is short or long and
    repeats neighbour degrees; a twin centre copies an earlier centre's
    neighbours, so their profiles are equal and counted once, twice over."""
    pool = SHORT + 6
    pairs = st.tuples(st.integers(0, pool - 1), st.integers(0, pool - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=12, unique_by=lambda e: (min(e), max(e))))
    neighbourhoods = []
    for centre in range(pool, pool + draw(st.integers(1, 5))):
        if neighbourhoods and draw(st.booleans()):
            around = draw(st.sampled_from(neighbourhoods))
        else:
            size = draw(st.sampled_from([SHORT, SHORT + 1]) | st.integers(0, SHORT + 4))
            around = draw(st.lists(st.integers(0, pool - 1), min_size=size, max_size=size, unique=True))
        neighbourhoods.append(around)
        edges += [(v, centre) for v in around]
    return Graph(pool + len(neighbourhoods), edges)


@given(profile_graphs())
def test_line_mpoly_matches_line_graph_on_short_and_long_profiles(g):
    assert_same_line_mpoly(g)


def twin_hubs(k):
    """Two hubs joined to the same k vertices of a 2k-cycle, a third of which
    carry a leaf: both hubs have the profile (4, ..., 4, 5, ..., 5) of k entries."""
    edges = [(v, (v + 1) % (2 * k)) for v in range(2 * k)]
    edges += [(v, hub) for hub in (2 * k, 2 * k + 1) for v in range(k)]
    edges += [(v, 2 * k + 2 + v) for v in range(k // 3)]
    return Graph(2 * k + 2 + k // 3, edges)


@pytest.mark.parametrize("k", [SHORT, SHORT + 1], ids=["at-the-bound", "past-the-bound"])
def test_line_mpoly_of_twin_hubs_at_the_profile_bound(k):
    g = twin_hubs(k)
    assert sorted(g.degrees())[-2:] == [k, k]
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


@pytest.mark.parametrize("edges,message", [
    ([(0, 1), (2, 2)], "self-loop at vertex 2"),
    ([(0, 1), (1, 0)], r"parallel edge \(0, 1\)"),
    ([(0, 1), (1, 3)], r"edge \(1, 3\) out of range for 3 vertices"),
    ([(-1, 1)], r"edge \(-1, 1\) out of range for 3 vertices"),
    ([(0, 1.0)], r"vertex identifiers must be integers, got \(0, 1.0\)"),
    ([(0, 1), (0, "a")], r"vertex identifiers must be integers, got \(0, 'a'\)"),
    ([("a", "b")], r"vertex identifiers must be integers, got \('a', 'b'\)"),
    (iter([(0, 1), ("a", 2)]), r"vertex identifiers must be integers, got \('a', 2\)"),
    ([(True, 2), (0, 1)], r"vertex identifiers must be integers, got \(True, 2\)"),
    ([(0, False)], r"vertex identifiers must be integers, got \(0, False\)"),
])
def test_constructor_messages(edges, message):
    with pytest.raises(ValueError, match=message):
        Graph(3, edges)


def flipped(edges):
    return [(v, u) for u, v in edges]


@given(simple_graphs())
def test_constructor_matches_reference_on_valid_graphs(g):
    backwards = flipped(reversed(g.edges))
    built = Graph(g.vertex_count, backwards)
    assert (built.edges, built.degrees()) == reference_graph(g.vertex_count, backwards)


@given(simple_graphs())
def test_orientation_builds_equal_graphs(g):
    # Every orientation, and edges given as lists, go through the one normalisation.
    assert Graph(g.vertex_count, g.edges) == Graph(g.vertex_count, flipped(g.edges)) == g
    as_lists = Graph(g.vertex_count, [list(e) for e in g.edges])
    assert as_lists == g and all(type(e) is tuple for e in as_lists.edges)


def test_ordered_tuple_edges_are_stored_as_the_objects_given():
    # Only a flipped edge becomes a new tuple; an ordered one is kept as it came.
    ordered = [(0, 1), (1, 2), (2, 3)]
    g = Graph(6, [ordered[0], (4, 3), ordered[1], (5, 0), ordered[2]])
    assert g.edges == ((0, 1), (0, 5), (1, 2), (2, 3), (3, 4))
    assert all(g.edges[i] is e for i, e in zip((0, 2, 3), ordered))
    assert all(type(g.edges[i]) is tuple for i in (1, 4))


@pytest.mark.parametrize("bad,flip_bad,message", [
    ([(0, 1.0)], False, r"vertex identifiers must be integers, got \(0, 1.0\)"),
    ([(1, 4)], True, r"edge \(1, 4\) out of range for 4 vertices"),
    ([(-1, 2)], True, r"edge \(-1, 2\) out of range for 4 vertices"),
    ([(3, 3)], True, "self-loop at vertex 3"),
    ([(0, 2)], True, r"parallel edge \(0, 2\)"),
])
def test_orientation_keeps_error_messages(bad, flip_bad, message):
    # The type error quotes the edge as given, so that edge keeps its orientation.
    base = [(0, 1), (0, 2), (1, 3)]
    for edges in (base + bad, flipped(base) + bad, base + (flipped(bad) if flip_bad else bad)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Graph(4, edges)


def per_line_from_edgelist(text):
    """The per-line parser alone, as ``Graph.from_edgelist`` ran on every text
    before canonical text got its bulk path."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "p":
        raise ValueError(f"malformed header line {lines[0]!r}; expected 'p <vertices> <edges>'")
    try:
        vertex_count, edge_count = int(header[1]), int(header[2])
    except ValueError:
        raise ValueError(f"malformed header line {lines[0]!r}") from None
    if len(lines) - 1 != edge_count:
        raise ValueError(f"header declares {edge_count} edges but {len(lines) - 1} lines follow")
    edges = []
    for line in lines[1:]:
        try:
            u, v = line.split()
            edges.append((int(u), int(v)))
        except ValueError:
            raise ValueError(f"malformed edge line {line!r}") from None
    return Graph(vertex_count, edges)


def assert_parses_like_per_line(text):
    try:
        want = per_line_from_edgelist(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            Graph.from_edgelist(text)
        assert str(got.value) == str(exc)
        return
    assert Graph.from_edgelist(text) == want


@st.composite
def near_canonical_texts(draw):
    """Canonical text with a character or two inserted, deleted or replaced:
    the near misses that tell the bulk path's test for the form from a
    looser one."""
    text = draw(simple_graphs()).to_edgelist()
    for _ in range(draw(st.integers(1, 2))):
        at, cut = draw(st.integers(0, len(text))), draw(st.integers(0, 1))
        put = draw(st.sampled_from(["0", "7", " ", "\n", "p", "\r", "\t", "+", "\u0663"]) | st.just(""))
        text = text[:at] + put + text[at + cut:]
    return text


@settings(max_examples=300)
@given(simple_graphs().map(Graph.to_edgelist) | edgelist_texts() | near_canonical_texts())
def test_edgelist_parses_like_per_line(text):
    assert_parses_like_per_line(text)


# Every line end str.splitlines() knows, "\r\n" being one of them.
LINE_ENDS = ["\r\n", "\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def line_end_texts(draw):
    """A graph's text with blank lines and blanks before its header, which may
    be malformed, a line end drawn for the header and one drawn once for
    every later line.  U+001F and U+00A0 are blanks that end no line."""
    header, *body = draw(simple_graphs()).to_edgelist().splitlines()
    end = st.sampled_from(LINE_ENDS)
    blank = st.sampled_from([" ", "\t", "\x1f", "\xa0"])
    lead = "".join(draw(st.lists(blank | end, max_size=5)))
    header += draw(st.sampled_from(["", " 0", "x"]))
    body_end = draw(end)
    text = lead + header + draw(end) + body_end.join(body)
    return text + draw(st.sampled_from([body_end, ""])) if body else text


@settings(max_examples=300)
@given(line_end_texts())
def test_any_line_ends_parse_like_per_line(text):
    assert_parses_like_per_line(text)


PARSER_CASES = [
    "p 3 2\r\n0 1\r\n1 2\r\n",
    "p 3 2\n\n0 1\n\n1 2\n",
    "p 3 2\n0\t1\n1 2\n",
    "p 3 2\n0 +1\n1 2\n",
    "p 21 2\n0 1\n1 2_0\n",
    "p 03 2\n00 01\n1 002\n",
    "p 3 2\n-1 1\n1 2\n",
    "p 3 2\n0 1\n1 2",
    f"p 3 1\n0 {HUGE_ID}\n",
    f"p 3 {HUGE_ID}\n0 1\n",
    "p 3 2\n0 1\n",
    "p 3 1\n0 1\n1 2\n",
    "\n\n  \np 3 2\n0 1\n1 2\n",
    " \tp 3 2\n0 1\n1 2\n",
    "\n 2 0\n",
    "p 3 2\r0 1\r1 2\r",
    "p 3 2\f0 1\f1 2\f",
    "p 3 2\x1c0 1\x1c1 2\x1c",
    "p 3 2\x850 1\x851 2\x85",
    "p 3 2\u20280 1\u20281 2\u2028",
    "p 3 2\r\n0 1\n1 2\n",
    "p 2 0\n0",
    "p 2 0",
    "p 2 1\n 1\n",
    "p 2 1\n1 \n",
    "p 4 2\n0\n1 2 3\n",
    "p 3 -1\n",
    "p 3 -1\n0 1\n",
]
PARSER_CASE_IDS = ["crlf", "blank-lines", "tab", "plus-sign", "underscore", "leading-zeros",
                   "negative-id", "no-final-newline", "5000-digit-id", "5000-digit-count",
                   "too-few-edges", "too-many-edges", "blank-lines-before-header",
                   "indented-header", "indented-malformed-header", "cr", "form-feed",
                   "file-separator", "next-line", "line-separator", "crlf-header-lf-body",
                   "digit-after-empty-body", "header-only", "empty-first-id", "empty-second-id",
                   "ids-across-lines", "negative-edge-count", "negative-edge-count-with-edge"]


@pytest.mark.parametrize("text", PARSER_CASES, ids=PARSER_CASE_IDS)
def test_edgelist_cases_parse_like_per_line(text):
    assert_parses_like_per_line(text)


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
    {"alphas": (0.5, -1), "subjects": ("prop41", "prop42"), "m_range": (4, 6), "n_range": (2, 5)},
], ids=["default", "float-alphas", "empty", "props-small-grid"])
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
    report = VerificationReport(cases=tuple(cases))
    assert report.to_json() == reference_report_json(report)
