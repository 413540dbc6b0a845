from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mladder import (
    Graph,
    ZeroExponentWeight,
    alpha_label,
    build_ladder,
    indices_from_edges,
    indices_from_mpoly,
    normalize_alpha,
)
from mladder.indices import alpha_list, check_alpha_digits

from conftest import cycle_graph, path_graph, star_graph


def test_path_hand_values():
    # P4 edges: (1,2) twice, (2,2) once
    s = indices_from_edges(path_graph(4))
    assert s.m1 == 10
    assert s.m2 == 8
    assert s.mm2 == Fraction(5, 4)
    assert s.sdd == 7
    assert s.r_alpha[1] == 8
    assert s.rr_alpha[1] == Fraction(5, 4)


def test_ladder_hand_values():
    s = indices_from_edges(build_ladder(7, 3))
    assert s.m1 == 204
    assert s.m2 == 348
    assert s.mm2 == Fraction(65, 24)
    assert s.sdd == 61


def test_r_zero_counts_edges():
    g = build_ladder(5, 4)
    s = indices_from_edges(g, alphas=(0,))
    assert s.r_alpha[0] == g.edge_count
    assert s.rr_alpha[0] == g.edge_count


def test_reciprocal_is_negated_exponent():
    g = cycle_graph(6)
    s = indices_from_edges(g, alphas=(2, -2))
    assert s.rr_alpha[2] == s.r_alpha[-2]
    assert s.rr_alpha[-2] == s.r_alpha[2]


def test_zero_degree_terms_cannot_be_inverted():
    from mladder import MPoly

    p = MPoly({(0, 2): 1})
    with pytest.raises(ZeroExponentWeight):
        indices_from_mpoly(p)


def test_normalize_alpha():
    assert normalize_alpha(2.0) == 2
    assert isinstance(normalize_alpha(2.0), int)
    assert normalize_alpha(-1.0) == -1
    assert normalize_alpha(0.5) == 0.5
    assert alpha_label(2.0) == "2"
    assert alpha_label(-0.5) == "-0.5"
    assert alpha_list([2.0, 2, 0.5, 1.0]) == [2, 0.5, 1]
    assert alpha_list([]) == [1]


def test_edge_route_refuses_alphas_too_large_to_print():
    # Checked before any power: 10_000 * log10(144) is about 21,600 digits.
    with pytest.raises(ValueError, match="too large for exact arithmetic"):
        indices_from_edges(build_ladder(5, 3), [10_000])
    # Every product of a single edge is 1, so any alpha is cheap and exact.
    s = indices_from_edges(Graph(2, [(0, 1)]), [10**400])
    assert s.r_alpha[10**400] == s.rr_alpha[10**400] == 1
    # An int past float range is refused by name, not by an OverflowError.
    with pytest.raises(ValueError, match=r"more than the limit of \d+ digits"):
        check_alpha_digits([10**400], 144)
    check_alpha_digits([10**400], 1)


small_graphs = st.sampled_from(
    [path_graph(k) for k in range(2, 9)]
    + [cycle_graph(k) for k in range(3, 9)]
    + [star_graph(k) for k in range(3, 7)]
)
int_alphas = st.integers(-3, 3)


@given(small_graphs, int_alphas)
def test_routes_agree_exactly_for_integer_alpha(g, a):
    from_edges = indices_from_edges(g, alphas=(a,))
    from_mpoly = indices_from_mpoly(g.m_polynomial(), alphas=(a,))
    assert from_edges == from_mpoly


@given(small_graphs)
def test_routes_agree_closely_for_half_integer_alpha(g):
    from_edges = indices_from_edges(g, alphas=(0.5, -0.5))
    from_mpoly = indices_from_mpoly(g.m_polynomial(), alphas=(0.5, -0.5))
    assert from_edges.m1 == from_mpoly.m1
    for a in (0.5, -0.5):
        assert from_edges.r_alpha[a] == pytest.approx(from_mpoly.r_alpha[a], rel=1e-12)
        assert from_edges.rr_alpha[a] == pytest.approx(from_mpoly.rr_alpha[a], rel=1e-12)


@given(st.integers(4, 9), st.integers(2, 6))
def test_m1_equals_degree_square_sum(m, n):
    # Σ(d_u + d_v) over edges equals Σ d² over vertices
    g = build_ladder(m, n)
    s = indices_from_edges(g)
    assert s.m1 == sum(d * d for d in g.degrees())
