from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mladder import Graph, build_ladder
from mladder.graph import MAX_VERTICES

from conftest import cycle_graph, path_graph, star_graph


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
    message = f"^vertex_count {MAX_VERTICES + 1} exceeds the limit of {MAX_VERTICES}$"
    with pytest.raises(ValueError, match=message):
        Graph(MAX_VERTICES + 1)


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


def test_edgelist_round_trip():
    g = cycle_graph(5)
    assert Graph.from_edgelist(g.to_edgelist()) == g


def test_edgelist_format():
    assert path_graph(3).to_edgelist() == "p 3 2\n0 1\n1 2\n"


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
