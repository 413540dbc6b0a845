from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mladder.ladder
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


def test_vertex_limit_boundary(monkeypatch):
    # At a lowered limit: M_{5,3} has exactly 12 vertices, M_{5,4} has 16.
    monkeypatch.setattr(mladder.ladder, "MAX_VERTICES", 12)
    assert build_ladder(5, 3).vertex_count == 12
    with pytest.raises(InvalidParams, match="more than the limit of 12"):
        build_ladder(5, 4)


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


def grid_quotient(m, n):
    """The m x n grid with column m-1 identified with column 0 under row reversal."""
    def vid(c, r):
        return vid(0, n + 1 - r) if c == m - 1 else c * n + (r - 1)
    grid = [((c, r), (c, r + 1)) for c in range(m) for r in range(1, n)]
    grid += [((c, r), (c + 1, r)) for c in range(m - 1) for r in range(1, n + 1)]
    return sorted({tuple(sorted((vid(*a), vid(*b)))) for a, b in grid})


def test_generator_matches_its_definition():
    points = [(m, n) for m in range(4, 15) for n in range(2, 15)]
    for m, n in points + [(4, 60), (60, 2), (31, 17)]:
        g = build_ladder(m, n)
        assert g.vertex_count == (m - 1) * n
        assert list(g.edges) == grid_quotient(m, n), (m, n)
