import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mladder.graph
from mladder import Graph, build_ladder
from mladder.graph import MAX_SIZE

from conftest import cycle_graph, path_graph, star_graph
from test_equivalence import simple_graphs
from test_indices import IRREGULAR


def test_path_basics():
    p4 = path_graph(4)
    assert p4.vertex_count == 4
    assert p4.edge_count == 3
    assert p4.degrees() == (1, 2, 2, 1)
    assert Counter(p4.degrees()) == {1: 2, 2: 2}


def test_mpoly_of_path():
    p = path_graph(4).m_polynomial()
    assert p.terms == {(1, 2): Fraction(2), (2, 2): Fraction(1)}


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(0, 0)])


def test_rejects_parallel_edge():
    with pytest.raises(ValueError, match="parallel"):
        Graph(3, [(0, 1), (1, 0)])


def test_rejects_out_of_range_vertex():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    for vertex_count in (-1, True, False):
        with pytest.raises(ValueError):
            Graph(vertex_count, [])


def test_rejects_vertex_count_past_the_limit():
    message = f"^vertex_count {MAX_SIZE + 1} exceeds the limit of {MAX_SIZE}$"
    with pytest.raises(ValueError, match=message):
        Graph(MAX_SIZE + 1)


def test_edge_count_limit_boundary(monkeypatch):
    # At a lowered limit of 6: K4 has exactly 6 edges, K4 plus a pendant edge 7.
    k4 = list(combinations(range(4), 2))
    monkeypatch.setattr(mladder.graph, "MAX_SIZE", 6)
    assert Graph(5, k4).edge_count == 6
    with pytest.raises(ValueError, match="^the graph has 7 edges, more than the limit of 6$"):
        Graph(5, k4 + [(0, 4)])


def test_edge_lists_past_the_edge_limit_are_refused(monkeypatch):
    # Canonical text, parsed in bulk, and messy text (CRLF, + ids), parsed
    # line by line, reach the same check of the header.
    canonical = Graph(5, list(combinations(range(5), 2))).to_edgelist()
    header, *lines = canonical.splitlines()
    messy = "\r\n".join([header] + ["+" + line for line in lines])
    monkeypatch.setattr(mladder.graph, "MAX_SIZE", 9)
    for text in (canonical, messy):
        with pytest.raises(ValueError, match="^the header declares 10 edges, more than the limit of 9$"):
            Graph.from_edgelist(text)


@pytest.mark.parametrize("text,message", [
    ("p 5 10\n0 1\n", "the header declares 10 edges, more than the limit of 9"),
    ("p 5 10\nx y\n", "the header declares 10 edges, more than the limit of 9"),
    ("p 5 10\r\n0 1 2\r\n", "the header declares 10 edges, more than the limit of 9"),
    ("p 10 2\n00 1\n", "vertex_count 10 exceeds the limit of 9"),
    ("\n p 10 1\nx\n", "vertex_count 10 exceeds the limit of 9"),
], ids=["canonical-short", "bad-ids", "crlf-bad-line", "leading-zero-id", "blank-first-line"])
def test_edge_list_header_past_the_limit_is_refused_before_its_body(monkeypatch, text, message):
    # Each body would fail on its own (too few lines, or a malformed edge
    # line), so the limit is checked before any edge line is parsed.
    monkeypatch.setattr(mladder.graph, "MAX_SIZE", 9)
    with pytest.raises(ValueError, match=f"^{message}$"):
        Graph.from_edgelist(text)


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_edge_list_header_past_the_limit_costs_no_memory_per_line(monkeypatch, end):
    # Splitting these 500,000 lines would take about 33 MiB: the header alone
    # is read before the refusal, whatever the line ends.
    text = f"p 3 500000{end}" + f"0 1{end}" * 500_000
    monkeypatch.setattr(mladder.graph, "MAX_SIZE", 50_000)
    message = "^the header declares 500000 edges, more than the limit of 50000$"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            Graph.from_edgelist(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("end", ["\r\n", "\u2028"], ids=["crlf", "line-separator"])
def test_edge_list_with_too_many_lines_keeps_no_more_than_its_header_declares(end):
    # A header within the limit over 500,000 lines: the per-line parser keeps
    # at most the declared lines and only counts the rest.  Splitting them
    # all took about 14 times the text, and the bulk test copies nothing of
    # a text whose LF count is not the header's edge count plus one.
    text = f"p 3 1{end}" + f"0 1{end}" * 500_000
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^header declares 1 edges but 500000 lines follow$"):
            Graph.from_edgelist(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_line_graph_of_path():
    # edges of P4 are (0,1) < (1,2) < (2,3); consecutive ones share a vertex
    line = path_graph(4).line_graph()
    assert line.vertex_count == 3
    assert line.edges == ((0, 1), (1, 2))


def test_line_graph_of_star():
    # every pair of spokes meets at the hub
    line = star_graph(4).line_graph()
    assert line.vertex_count == 4
    assert line.edge_count == comb(4, 2)


def test_line_graph_of_vertices_met_out_of_order():
    # Vertex 5 is met in the first edge, before 2.  Edge 1 = (2, 5) pairs with
    # edge 2 at vertex 2 and with edge 3 at vertex 5, so taking the vertices in
    # the order they are met would put (1, 3) before (1, 2).
    g = Graph(7, [(0, 5), (2, 5), (2, 6), (3, 5)])
    line = g.line_graph()
    assert line == Graph(4, [(0, 1), (0, 3), (1, 2), (1, 3)])
    assert all(a < b for a, b in zip(line.edges, line.edges[1:]))
    assert_matches_validating_constructor(line)


def test_line_graph_edge_limit_boundary(monkeypatch):
    # At a lowered limit: the hub of star_graph(4) joins C(4, 2) = 6 pairs,
    # and a path adds one pair per inner vertex.  The paths have more than 6
    # vertices, so every base is built before the limit is lowered.
    stars, paths = (star_graph(4), star_graph(5)), (path_graph(8), path_graph(9))
    monkeypatch.setattr(mladder.graph, "MAX_SIZE", 6)
    assert stars[0].line_graph().edge_count == 6
    assert paths[0].line_graph().edge_count == 6
    with pytest.raises(ValueError, match="^the line graph has 10 edges, more than the limit of 6$"):
        stars[1].line_graph()
    with pytest.raises(ValueError, match="^the line graph has 7 edges, more than the limit of 6$"):
        paths[1].line_graph()


def test_line_graph_past_the_edge_limit():
    # C(5000, 2) = 12,497,500 line edges at the hub: refused before any pair is made.
    with pytest.raises(ValueError, match="^the line graph has 12497500 edges, more than the "
                                         "limit of 10000000$"):
        star_graph(5000).line_graph()


def test_line_graph_past_the_vertex_limit_is_refused_by_its_edge_budget(monkeypatch):
    # With the limit at 4: K4, built before the limit is lowered, has 6 edges,
    # so its line graph would have 6 vertices, and the budget refuses its
    # 4 * C(3, 2) = 12 edges.  The line graph of the 4-cycle, a 4-cycle too,
    # is at the limit.
    k4 = Graph(4, list(combinations(range(4), 2)))
    monkeypatch.setattr(mladder.graph, "MAX_SIZE", 4)
    line = cycle_graph(4).line_graph()
    assert (line.vertex_count, line.edge_count) == (4, 4)
    with pytest.raises(ValueError, match="^the line graph has 12 edges, more than the limit of 4$"):
        k4.line_graph()


@given(simple_graphs(), st.integers(0, 8))
def test_line_graph_within_its_edge_budget_is_within_the_vertex_limit(g, extra):
    # With the limit at k >= V: Graph(...) keeps at most k edges, and a line
    # graph's vertices are its base's edges, so every graph made is within k.
    k = g.vertex_count + extra
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mladder.graph, "MAX_SIZE", k)
        try:
            base = Graph(g.vertex_count, g.edges)
            line = base.line_graph()
        except ValueError as refused:
            assert re.fullmatch(rf"the (line )?graph has \d+ edges, more than the limit of {k}",
                                str(refused))
        else:
            assert base.edge_count <= k and line.vertex_count <= k and line.edge_count <= k


def test_edgelist_round_trip():
    g = cycle_graph(5)
    assert Graph.from_edgelist(g.to_edgelist()) == g


def test_edgelist_format():
    assert path_graph(3).to_edgelist() == "p 3 2\n0 1\n1 2\n"


@pytest.mark.parametrize("g", [Graph(3), path_graph(4), star_graph(5), cycle_graph(7),
                               build_ladder(5, 3), IRREGULAR],
                         ids=["no-edges", "path", "star", "cycle", "ladder", "irregular"])
def test_canonical_text_and_only_it_is_read_in_bulk(monkeypatch, g):
    # json.loads reads the ids of a canonical text only; the same graph with
    # a CRLF header line or a blank line before its header is read line by line.
    calls = []
    loads = mladder.graph.json.loads
    monkeypatch.setattr(mladder.graph.json, "loads", lambda s: calls.append(s) or loads(s))
    text = g.to_edgelist()
    assert Graph.from_edgelist(text) == g
    assert len(calls) == 1
    for other in (text.replace("\n", "\r\n", 1), "\n" + text):
        assert Graph.from_edgelist(other) == g
    assert len(calls) == 1
    # Every edge line written "v u" is still the bulk form; Graph(...) flips the pairs.
    head, *body = text.splitlines()
    reversed_lines = "\n".join([head, *(" ".join(line.split()[::-1]) for line in body), ""])
    assert Graph.from_edgelist(reversed_lines) == g
    assert len(calls) == 2


def test_crlf_text_is_not_copied_for_the_bulk_test(monkeypatch):
    # CRLF after every line also ends in LF and holds E + 1 LFs, but the CR
    # test refuses it before the digit-deleting translate copies it.
    lookups = []

    class CountingTable(dict):
        def __getitem__(self, key):
            lookups.append(key)
            return super().__getitem__(key)

    monkeypatch.setattr(mladder.graph, "_NO_DIGITS", CountingTable(mladder.graph._NO_DIGITS))
    g = build_ladder(5, 3)
    text = g.to_edgelist()
    crlf = text.replace("\n", "\r\n")
    assert crlf.endswith("\n") and crlf.count("\n") == g.edge_count + 1
    assert Graph.from_edgelist(crlf) == g
    assert lookups == []
    assert Graph.from_edgelist(text) == g
    assert lookups


def test_from_edgelist_rejects_malformed():
    with pytest.raises(ValueError):
        Graph.from_edgelist("")
    with pytest.raises(ValueError):
        Graph.from_edgelist("q 3 2\n0 1\n1 2\n")
    with pytest.raises(ValueError, match="^header declares 2 edges but 1 lines follow$"):
        Graph.from_edgelist("p 3 2\n0 1\n")
    for line in ("0", "0 1 2", "0 x"):
        with pytest.raises(ValueError, match=f"^malformed edge line '{line}'$"):
            Graph.from_edgelist(f"p 3 1\n{line}\n")
    # Surrounding blanks, blank lines, signs and digit underscores are int()'s forms.
    assert Graph.from_edgelist("p 21 2\n 0   +1 \n\n1\t2_0\n").edges == ((0, 1), (1, 20))


edge_sets = st.integers(2, 12).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.sets(
            st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)).map(
                lambda e: (min(e), max(e))
            ).filter(lambda e: e[0] != e[1]),
            max_size=20,
        ),
    )
)


@st.composite
def graphs(draw):
    k, edges = draw(edge_sets)
    return Graph(k, sorted(edges))


@given(graphs())
def test_handshake(g):
    assert sum(g.degrees()) == 2 * g.edge_count


@given(graphs())
def test_line_graph_size_law(g):
    line = g.line_graph()
    assert line.vertex_count == g.edge_count
    assert line.edge_count == sum(comb(d, 2) for d in g.degrees())


@given(graphs())
def test_line_graph_degree_transfer(g):
    d, line_d = g.degrees(), g.line_graph().degrees()
    for idx, (u, v) in enumerate(g.edges):
        assert line_d[idx] == d[u] + d[v] - 2


def line_graph_by_definition(g):
    """L(g) as defined: one vertex per edge of g (in g.edges order), and two of
    them adjacent iff their edges share an endpoint, every pair looked at."""
    pairs = [(a, b) for (a, e), (b, f) in combinations(enumerate(g.edges), 2) if set(e) & set(f)]
    return Graph(g.edge_count, pairs)


@given(graphs())
def test_line_graph_matches_its_definition(g):
    assert g.line_graph() == line_graph_by_definition(g)


def test_ladder_line_graphs_match_their_definition():
    for m in range(4, 9):
        for n in range(2, 9):
            g = build_ladder(m, n)
            assert g.line_graph() == line_graph_by_definition(g), (m, n)


def assert_matches_validating_constructor(g):
    """``g``, assembled without checks, is what ``Graph(...)`` makes of its edges."""
    reference = Graph(g.vertex_count, g.edges)
    assert reference == g
    assert reference.degrees() == g.degrees()


def test_ladders_and_their_line_graphs_match_the_validating_constructor():
    for m in range(4, 13):
        for n in range(2, 13):
            g = build_ladder(m, n)
            assert_matches_validating_constructor(g)
            assert_matches_validating_constructor(g.line_graph())


@pytest.mark.parametrize("g", [IRREGULAR, Graph(0), Graph(5)], ids=["irregular", "empty", "edgeless"])
def test_line_graph_matches_the_validating_constructor(g):
    assert_matches_validating_constructor(g.line_graph())


@given(simple_graphs())
def test_any_line_graph_matches_the_validating_constructor(g):
    assert_matches_validating_constructor(g.line_graph())


@given(graphs())
def test_partition_counts_every_edge(g):
    partition = g.m_polynomial().terms
    assert sum(partition.values()) == g.edge_count
    assert all(i <= j for i, j in partition)


@given(graphs())
def test_mpoly_eval_at_one_counts_edges(g):
    assert g.m_polynomial().eval_at_one() == g.edge_count


@given(graphs())
def test_edgelist_round_trip_any(g):
    assert Graph.from_edgelist(g.to_edgelist()) == g
