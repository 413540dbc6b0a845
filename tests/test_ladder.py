import pytest

import mladder.graph
import mladder.ladder
from mladder import Graph, InvalidParams, build_ladder


def test_edge_budget_refuses_what_the_vertex_limit_did(monkeypatch):
    # A ladder has (m-1)*n <= (m-1)*(2n-1) vertices, so with the limit at k
    # the edge budget alone refuses exactly the ladders refused when the
    # vertex count was checked too.
    for k in range(8 * 17 + 2):
        monkeypatch.setattr(mladder.graph, "MAX_SIZE", k)
        monkeypatch.setattr(mladder.ladder, "MAX_SIZE", k)
        for m in range(4, 10):
            for n in range(2, 10):
                old_rule = (m - 1) * n > k or (m - 1) * (2 * n - 1) > k
                try:
                    g = build_ladder(m, n)
                except InvalidParams:
                    assert old_rule, (k, m, n)
                else:
                    assert not old_rule and g.vertex_count <= k, (k, m, n)


def test_edge_limit_boundary(monkeypatch):
    # At a lowered limit: M_{5,4} has exactly 4*7 = 28 edges, M_{5,5} has 36.
    monkeypatch.setattr(mladder.ladder, "MAX_SIZE", 28)
    assert build_ladder(5, 4).edge_count == 28
    with pytest.raises(InvalidParams, match="36 edges, more than the limit of 28"):
        build_ladder(5, 5)


def test_refuses_ladder_past_the_edge_limit():
    # 10**7 vertices, at the vertex limit, but 19,900,000 edges: refused before
    # any edge is generated.
    with pytest.raises(InvalidParams, match=r"\(m-1\)\*\(2n-1\) = 19900000 edges, more than "
                                            r"the limit of 10000000 \(m=100001, n=100\)"):
        build_ladder(100001, 100)
    # 10,000,002 vertices, past the vertex limit: the edge budget refuses it and
    # names its edges.
    with pytest.raises(InvalidParams, match=r"^M_\{m,n\} has \(m-1\)\*\(2n-1\) = 15000003 edges, "
                                            r"more than the limit of 10000000 \(m=5000002, n=2\)$"):
        build_ladder(5000002, 2)


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


def untwisted_prism(m, n):
    """C_{m-1} x P_n: M_{m,n} with each twist edge joining row r to row r."""
    size = (m - 1) * n
    # Vertical edges span 1 id and horizontal ones n; every twist edge spans more.
    grid = [(u, v) for u, v in build_ladder(m, n).edges if v - u in (1, n)]
    assert len(grid) == (m - 1) * (2 * n - 1) - n
    return Graph(size, grid + [(r, size - n + r) for r in range(n)])


def test_degrees_cannot_see_the_twist():
    # The twist maps boundary rows to boundary rows, so the prism and the
    # ladder differ as graphs but not in any degree-based tally.
    for m in range(4, 12):
        for n in range(2, 12):
            ladder, prism = build_ladder(m, n), untwisted_prism(m, n)
            assert prism != ladder, (m, n)
            assert prism.m_polynomial() == ladder.m_polynomial(), (m, n)
            assert prism.line_m_polynomial() == ladder.line_m_polynomial(), (m, n)
            assert prism.line_graph().m_polynomial() == ladder.line_graph().m_polynomial(), (m, n)
