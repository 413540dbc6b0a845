import math
import re
import sys
import time
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

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
    values_equal,
    verify_all,
)
from mladder.indices import check_alpha_digits

from conftest import cycle_graph, path_graph, star_graph
from test_acceptance import corpus
from test_equivalence import simple_graphs


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


RECIPROCAL_ALPHAS = (0, 1, -1, 2, -2, 0.5, -0.5, 1.5)


def _bits(value):
    """A value with its kind, a float by its exact bits."""
    return type(value), value.hex() if isinstance(value, float) else value


def assert_one_randic_rule(g):
    # M2 = R_1, MM2 = R_-1 and RR_a = R_-a, on both routes, floats bit for bit.
    negated = [-a for a in RECIPROCAL_ALPHAS]
    p = g.m_polynomial()
    for route, source in ((indices_from_edges, g), (indices_from_mpoly, p)):
        s, t = route(source, RECIPROCAL_ALPHAS), route(source, negated)
        assert _bits(s.m2) == _bits(s.r_alpha[1])
        assert _bits(s.mm2) == _bits(s.rr_alpha[1])
        for a in RECIPROCAL_ALPHAS:
            assert _bits(s.rr_alpha[a]) == _bits(t.r_alpha[-a]), (route.__name__, a)
            assert _bits(s.r_alpha[a]) == _bits(t.rr_alpha[-a]), (route.__name__, a)


@given(simple_graphs())
def test_reciprocal_is_negated_exponent(g):
    assert_one_randic_rule(g)


def test_reciprocal_is_negated_exponent_on_corpus():
    for g in corpus():
        assert_one_randic_rule(g)


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
    # The producers key their Randic families by the normalized alphas, each
    # once, first occurrence first; no alphas give none, the default gives 1.
    g = path_graph(4)
    r_alpha = indices_from_edges(g, [2.0, 2, 0.5, 1.0]).r_alpha
    assert list(r_alpha) == [2, 0.5, 1]
    assert [type(a) for a in r_alpha] == [int, float, int]
    assert indices_from_edges(g, []).r_alpha == indices_from_edges(g, []).rr_alpha == {}
    assert list(indices_from_edges(g).r_alpha) == [1]


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


@pytest.mark.parametrize("alpha", [10**5000, -10**5000], ids=["positive", "negative"])
@pytest.mark.parametrize("refuse", [
    lambda a: check_alpha_digits([a], 2),
    lambda a: indices_from_edges(build_ladder(4, 3), [a]),
    lambda a: verify_all([a], ("prop41",), (4, 4), (2, 2)),
], ids=["check", "edges", "verify"])
def test_alpha_too_long_to_print_is_refused_by_its_size(refuse, alpha):
    # str() of such an alpha raises, so the refusal names it by sign and size.
    sign = "a negative" if alpha < 0 else "an"
    with pytest.raises(ValueError, match=f"^{sign} alpha of more than [0-9]+ digits is too large "
                                         "for exact arithmetic"):
        refuse(alpha)


def test_operator_route_refuses_alphas_too_large_to_print():
    # A graph's M-polynomial gets the edge route's bound (here 144 and 20
    # edges), so both routes refuse with the same message, before any power.
    g = build_ladder(5, 3)
    with pytest.raises(ValueError, match="too large for exact arithmetic") as by_edges:
        indices_from_edges(g, [10**6])
    start = time.perf_counter()
    with pytest.raises(ValueError) as by_mpoly:
        indices_from_mpoly(g.m_polynomial(), [10**6])
    assert time.perf_counter() - start < 1
    assert str(by_mpoly.value) == str(by_edges.value)


def test_operator_route_bounds_rational_coefficients():
    # base = lcm(12, 10, 36) = 180 and terms = lcm(5, 8) * (7 + 3 + 11) = 840:
    # 1904 * log10(180) + log10(840) + 1 is about 4298.0 digits, 1905 about 4300.2.
    from mladder import MPoly

    p = MPoly({(3, 4): Fraction(7, 5), (2, 5): Fraction(-3, 8), (6, 6): 11})
    for a in (1904, -1904):
        s = indices_from_mpoly(p, [a])
        for value in (s.r_alpha[a], s.rr_alpha[a]):
            assert str(value.numerator) and str(value.denominator)
        with pytest.raises(ValueError, match="too large for exact arithmetic"):
            indices_from_mpoly(p, [a + (1 if a > 0 else -1)])


def test_alpha_refusals_name_a_digit_count_above_the_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    # 1905 * log10(180) + log10(840) + 1 is about 4300.2 digits, named as 4301.
    from mladder import MPoly

    p = MPoly({(3, 4): Fraction(7, 5), (2, 5): Fraction(-3, 8), (6, 6): 11})
    with pytest.raises(ValueError, match="up to 4301 digits, over the limit of 4300 digits"):
        indices_from_mpoly(p, [1905])
    refused = 0
    for base in (2, 3, 7, 12, 144, 180, 1000):
        for terms in (1, 20, 840):
            first = int((limit - 1 - math.log10(terms)) / math.log10(base))
            for a in range(first - 2, first + 3):
                try:
                    check_alpha_digits([a, -a], base, terms)
                except ValueError as error:
                    assert int(re.search(r"up to (\d+) digits", str(error))[1]) > limit, error
                    refused += 1
    assert refused > 0


def test_alpha_check_returns_the_normalized_alphas_in_order():
    alphas = [2.0, 0.5, 1, 1.0, -3.0]
    for base in (1, 144):
        checked = check_alpha_digits(alphas, base, 20)
        assert checked == [2, 0.5, 1, 1, -3]
        assert [type(a) for a in checked] == [int, float, int, int, int]


def test_alpha_check_refuses_non_finite_floats_only():
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^alpha must be finite, got {alpha!r}$"):
            check_alpha_digits([1, alpha], 1)
    # An int past float range is not converted: only its digit count can refuse it.
    assert check_alpha_digits([10**400, 1e308], 1) == [10**400, int(1e308)]
    with pytest.raises(ValueError, match="more than the limit"):
        check_alpha_digits([10**400], 2)


@pytest.mark.parametrize("route", ["edges", "mpoly"])
def test_an_infinite_float_index_is_refused_where_it_is_made(route):
    # Every edge of the 1000-cycle has product 4.  4 ** 511.5 = 2 ** 1023 is
    # finite and fsum takes it, but 1000 times it is not; at 506.5 the sum
    # 1000 * 2 ** 1013 is.
    g = cycle_graph(1000)
    def index(alpha):
        if route == "edges":
            return indices_from_edges(g, [alpha])
        return indices_from_mpoly(g.m_polynomial(), [alpha])
    assert index(506.5).r_alpha[506.5] == 1000 * 2.0 ** 1013
    for alpha in (511.5, -511.5):  # R_511.5 is r_alpha[511.5] and rr_alpha[-511.5]
        with pytest.raises(OverflowError, match=r"^R_511\.5 .* is past float range$"):
            index(alpha)


def test_paired_rows_follow_the_results_own_alphas():
    g = build_ladder(5, 3)
    a = [1, 1.0, 2]
    rows = indices_from_edges(g, a).paired(indices_from_mpoly(g.m_polynomial(), a))
    assert [label for label, _, _ in rows] == [
        "m1", "m2", "mm2", "sdd", "r_alpha[1]", "rr_alpha[1]", "r_alpha[2]", "rr_alpha[2]"]
    assert all(here == there for _, here, there in rows)


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


# Large enough that a sum of one float per edge drifts past REL_TOL = 1e-12:
# 179,101 edges, and 58,806 in the line graph of M_{100,100}.
LADDER_300 = build_ladder(300, 300)
LADDER_100 = build_ladder(100, 100)
LINE_100 = LADDER_100.line_graph()
IRREGULAR = Graph.from_edgelist((Path(__file__).parent / "data" / "irregular.edgelist").read_text())


@pytest.mark.parametrize("g,p", [
    (LADDER_300, LADDER_300.m_polynomial()),
    (LINE_100, LADDER_100.line_m_polynomial()),
], ids=["ladder-300-300", "line-of-ladder-100-100"])
def test_routes_agree_on_large_graphs_at_non_integer_alpha(g, p):
    alphas = (0.3, 1.7, -0.5)
    rows = indices_from_edges(g, alphas).paired(indices_from_mpoly(p, alphas))
    assert [label for label, here, there in rows if not values_equal(here, there)] == []


def exact_randic(g, alpha):
    """``sum c * p ** alpha`` over the degree-product tally at 50 digits, alpha = +-0.5."""
    d = g.degrees()
    with localcontext() as ctx:
        ctx.prec = 50
        return sum(c * (Decimal(p).sqrt() if alpha > 0 else 1 / Decimal(p).sqrt())
                   for p, c in Counter(d[u] * d[v] for u, v in g.edges).items())


@pytest.mark.parametrize(
    "g", [LADDER_300, LINE_100, IRREGULAR, IRREGULAR.line_graph(), star_graph(40)],
    ids=["ladder-300-300", "line-of-ladder-100-100", "irregular", "line-of-irregular", "star-40"])
def test_float_index_within_2_ulp_of_exact_sum(g):
    s = indices_from_edges(g, (0.5, -0.5))
    for got, alpha in ((s.r_alpha[0.5], 0.5), (s.rr_alpha[0.5], -0.5),
                       (s.r_alpha[-0.5], -0.5), (s.rr_alpha[-0.5], 0.5)):
        exact = exact_randic(g, alpha)
        assert abs(Decimal(got) - exact) <= 2 * Decimal(math.ulp(got)), (alpha, got, exact)
