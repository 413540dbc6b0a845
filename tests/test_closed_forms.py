from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mladder import (
    IndexSet,
    OutOfStatedRange,
    normalize_alpha,
    prop41_indices,
    prop42_indices,
    thm31_mpoly,
    thm32_mpoly,
)


def test_thm31_substitution():
    assert thm31_mpoly(7, 3).terms == {
        (3, 3): Fraction(12),
        (3, 4): Fraction(12),
        (4, 4): Fraction(6),
    }


def test_thm31_keeps_negative_coefficient_at_n2():
    # at n = 2 the last coefficient goes negative; emitted verbatim
    assert thm31_mpoly(5, 2).terms == {
        (3, 3): Fraction(8),
        (3, 4): Fraction(8),
        (4, 4): Fraction(-4),
    }


def test_thm32_substitution():
    assert thm32_mpoly(5, 6).terms == {
        (4, 4): Fraction(8),
        (4, 5): Fraction(16),
        (5, 6): Fraction(24),
        (6, 6): Fraction(72),
    }


def test_thm32_n3_term_vanishes():
    assert thm32_mpoly(4, 4).terms == {
        (4, 4): Fraction(6),
        (4, 5): Fraction(12),
        (5, 6): Fraction(18),
        (6, 6): Fraction(18),
    }


def test_stated_ranges_are_enforced():
    with pytest.raises(OutOfStatedRange):
        thm31_mpoly(3, 5)
    with pytest.raises(OutOfStatedRange):
        thm32_mpoly(4, 3)
    with pytest.raises(OutOfStatedRange):
        prop41_indices(3, 3)
    with pytest.raises(OutOfStatedRange):
        prop42_indices(4, 3)


def test_prop41_values():
    s = prop41_indices(7, 3)
    assert s.m1 == 162
    assert s.m2 == 16 * (4 * 3 - 3) * (3 - 1) * 6 * 6
    assert s.mm2 == Fraction((6 * 3 - 1) * (6 * 3 + 1) * 36, 144)
    assert s.sdd == Fraction((48 * 9 - 42 * 3 + 1) * 36, 72)
    assert s.r_alpha == {1: s.m2}
    assert s.rr_alpha == {1: s.mm2}


def test_prop42_values():
    s = prop42_indices(5, 6)
    assert s.m1 == 2 * (36 * 6 - 49) * 4
    assert s.m2 == 72 * (9 * 6 - 11) * (2 * 6 - 3) * 16
    assert s.mm2 == Fraction((10 * 6 - 3) * (10 * 6 - 7) * 16, 100)
    assert s.sdd == Fraction((48 * 36 - 42 * 6 + 1) * 16, 72)


def test_alpha_powers():
    s = prop41_indices(7, 3, alphas=(0, 2.0, 0.5))
    assert list(s.r_alpha) == list(s.rr_alpha) == [0, 2, 0.5]  # 2.0 keyed as 2
    assert s.r_alpha[0] == 1
    assert s.r_alpha[2] == s.m2 ** 2
    assert s.rr_alpha[2] == s.mm2 ** 2
    assert s.r_alpha[0.5] == pytest.approx(10368 ** 0.5)


@given(st.integers(4, 12), st.integers(2, 10))
def test_thm31_total_is_edge_count(m, n):
    assert thm31_mpoly(m, n).eval_at_one() == (m - 1) * (2 * n - 1)


@given(st.integers(4, 10), st.integers(4, 10))
def test_thm32_total_is_line_graph_edge_count(m, n):
    # sum of C(d, 2) over the ladder's degrees
    expected = 2 * (m - 1) * 3 + (m - 1) * (n - 2) * 6
    assert thm32_mpoly(m, n).eval_at_one() == expected


def reference_prop_indices(label, m, n, alphas):
    """The proposition expressions as the chain of ``Fraction`` products they
    were first evaluated as; the forms now compute them in integers."""
    k = Fraction((m - 1) ** 2)
    if label == "prop41":
        m2 = 16 * (4 * n - 3) * (n - 1) * k
        mm2 = Fraction(1, 144) * (6 * n - 1) * (6 * n + 1) * k
        m1 = Fraction(16 * m * n - 20 * m - 16 * n + 14)
    else:
        m2 = 72 * (9 * n - 11) * (2 * n - 3) * k
        mm2 = Fraction(1, 100) * (10 * n - 3) * (10 * n - 7) * k
        m1 = Fraction(2 * (36 * n - 49) * (m - 1))
    sdd = Fraction(1, 72) * (48 * n * n - 42 * n + 1) * k
    alphas = [normalize_alpha(a) for a in alphas]
    power = lambda base, a: base ** a if isinstance(a, int) else float(base) ** a
    return IndexSet(m1=m1, m2=m2, mm2=mm2, sdd=sdd, r_alpha={a: power(m2, a) for a in alphas},
                    rr_alpha={a: power(mm2, a) for a in alphas})


PROP_ALPHAS = (-2, 0, 1, 2, 0.5)
PROP_FORMS = {"prop41": prop41_indices, "prop42": prop42_indices}
LARGE_POINTS = [(10**6, 10**6), (4, 10**6), (10**6, 4), (999_983, 123_457)]


@pytest.mark.parametrize("label,grid", [
    ("prop41", [(m, n) for m in range(4, 13) for n in range(2, 11)] + LARGE_POINTS),
    ("prop42", [(m, n) for m in range(4, 11) for n in range(4, 11)] + LARGE_POINTS),
])
def test_prop_forms_match_fraction_product_reference(label, grid):
    for m, n in grid:
        got = PROP_FORMS[label](m, n, PROP_ALPHAS)
        want = reference_prop_indices(label, m, n, PROP_ALPHAS)
        assert got == want, (label, m, n)
        assert all(type(x) is Fraction for x in (got.m1, got.m2, got.mm2, got.sdd))
        for a in PROP_ALPHAS:
            assert type(got.r_alpha[a]) is type(want.r_alpha[a])
            assert type(got.rr_alpha[a]) is type(want.rr_alpha[a])
