"""The oracle's closed forms and line-graph tally against brute force on small graphs."""

from collections import Counter
from itertools import combinations

import oracle


def moebius_ladder(m, n):
    """Edges of M_{m,n} from its definition: m-1 columns of n rows plus twist edges."""
    vid = lambda c, r: c * n + r  # noqa: E731
    edges = [(vid(c, r), vid(c, r + 1)) for c in range(m - 1) for r in range(n - 1)]
    edges += [(vid(c, r), vid(c + 1, r)) for c in range(m - 2) for r in range(n)]
    edges += [(vid(m - 2, r), vid(0, n - 1 - r)) for r in range(n)]
    return (m - 1) * n, [tuple(sorted(e)) for e in edges]


def mpoly_of(vertices, edges):
    degree = Counter()
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return dict(Counter(tuple(sorted((degree[u], degree[v]))) for u, v in edges))


def line_graph(edges):
    return len(edges), [(a, b) for a, b in combinations(range(len(edges)), 2)
                        if set(edges[a]) & set(edges[b])]


def test_closed_forms_match_brute_force():
    for m in range(4, 8):
        for n in range(2, 8):
            vertices, edges = moebius_ladder(m, n)
            assert len(set(edges)) == len(edges)
            assert mpoly_of(vertices, edges) == oracle.ladder_mpoly(m, n)
            assert oracle.line_mpoly_of(vertices, edges) == mpoly_of(*line_graph(edges))
            if n >= 4:
                assert mpoly_of(*line_graph(edges)) == oracle.line_mpoly(m, n)


def test_line_tally_matches_brute_force_on_hub_graphs():
    for seed in range(3):
        edges = oracle.hub_graph(seed, vertices=40, background_edges=50, hubs=2, hub_degree=15)
        assert oracle.line_mpoly_of(40, edges) == mpoly_of(*line_graph(edges))


def test_hub_graph_is_seeded_and_simple():
    params = dict(vertices=500, background_edges=800, hubs=4, hub_degree=60)
    edges = oracle.hub_graph(11, **params)
    assert edges == oracle.hub_graph(11, **params)
    assert edges != oracle.hub_graph(12, **params)
    assert len(edges) == len(set(edges)) == 800 + 4 * 60
    assert all(0 <= u < v < 500 for u, v in edges)
    degree = Counter(x for e in edges for x in e)
    assert sorted(degree.values())[-4:] == [60] * 4


def test_indices_by_definition():
    poly = {(3, 3): 2, (3, 4): 1}
    got = oracle.indices(poly, (1, 0.5))
    assert got["m1"] == 2 * 6 + 7
    assert got["m2"] == 2 * 9 + 12
    assert got["mm2"] == oracle.Fraction(2, 9) + oracle.Fraction(1, 12)
    assert got["sdd"] == 2 * 2 + oracle.Fraction(3, 4) + oracle.Fraction(4, 3)
    assert got["r_alpha[1]"] == got["m2"]
    assert oracle.same(got["r_alpha[0.5]"], 2 * 3.0 + 12 ** 0.5)
    assert not oracle.same(got["r_alpha[0.5]"], got["r_alpha[0.5]"] * (1 + 1e-9))
    assert not oracle.same(float(got["m2"]), got["m2"])
