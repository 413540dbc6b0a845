from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mladder import InvalidParams, build_ladder

ms = st.integers(4, 12)
ns = st.integers(2, 10)


def test_smallest_ladder():
    g = build_ladder(4, 2)
    assert g.vertex_count == 6
    assert g.edge_count == 9
    assert Counter(g.degrees()) == {3: 6}


def test_degree_tally():
    g = build_ladder(7, 3)
    assert g.vertex_count == 18
    assert g.edge_count == 30
    assert Counter(g.degrees()) == {3: 12, 4: 6}


def test_edges_by_degree_pair():
    g = build_ladder(7, 3)
    assert g.m_polynomial().terms == {(3, 3): 12, (3, 4): 12, (4, 4): 6}


def test_rejects_small_parameters():
    with pytest.raises(InvalidParams):
        build_ladder(3, 5)
    with pytest.raises(InvalidParams):
        build_ladder(4, 1)
    with pytest.raises(InvalidParams):
        build_ladder(4.5, 3)


def test_boundary_vertices_form_single_cycle():
    # the degree-3 vertices lie on the outer rim, closed up by the twist
    g = build_ladder(7, 4)
    d = g.degrees()
    rim = [v for v in range(g.vertex_count) if d[v] == 3]
    ring = [(u, v) for u, v in g.edges if d[u] == 3 and d[v] == 3]
    assert len(rim) == len(ring) == 2 * 6
    adj = {v: set() for v in rim}
    for u, v in ring:
        adj[u].add(v)
        adj[v].add(u)
    assert all(len(nbrs) == 2 for nbrs in adj.values())
    seen = {rim[0]}
    frontier = [rim[0]]
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    assert seen == set(rim)


@given(ms, ns)
def test_counts(m, n):
    g = build_ladder(m, n)
    assert g.vertex_count == (m - 1) * n
    assert g.edge_count == (m - 1) * (2 * n - 1)


@given(ms, ns)
def test_degrees(m, n):
    g = build_ladder(m, n)
    if n == 2:
        assert Counter(g.degrees()) == {3: 2 * (m - 1)}
    else:
        assert Counter(g.degrees()) == {3: 2 * (m - 1), 4: (m - 1) * (n - 2)}


@given(ms, ns)
def test_deterministic_construction(m, n):
    assert build_ladder(m, n).to_edgelist() == build_ladder(m, n).to_edgelist()
