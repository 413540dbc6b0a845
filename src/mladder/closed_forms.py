"""Claimed closed forms for the generalized Moebius ladder family.

These are the published general formulas this package exists to check:
the M-polynomials of M_{m,n} and of its line graph, and six index
expressions for each.  Everything is implemented exactly as stated, with
no corrections, so the verify harness can compare each claim against
brute-force graph enumeration and report where they agree and where they
do not.  The M-polynomial forms return an ``MPoly`` and the index forms
an ``IndexSet``, the same types the enumeration routes produce.  Each
index expression is evaluated in integers, with its one stated divisor
(144, 100 or 72) applied as a single ``Fraction`` at the end.  Each
claim's report label, formula, kind, graph, stated domain and default grid
are one row of :data:`CLAIMS`, the table everything else reads them from.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .indices import Alpha, IndexSet, check_alpha_digits
from .ladder import MIN_M
from .mpoly import MPoly


class Claim(NamedTuple):
    """One claim of the paper, stated for ``m >= MIN_M`` and ``n >= min_n``."""

    formula: str               # the closed form's name here, looked up per call
    theorem: bool              # an M-polynomial claim, whose mismatch fails a verify run
    line: bool                 # about the line graph, not the ladder
    min_n: int
    grid_max: tuple[int, int]  # the default grid runs from (MIN_M, min_n) to this (m, n)


# Formulas are named rather than referenced so that wrapping this module's
# functions after import (as the benchmark's layer trace does) covers them.
CLAIMS = {
    "thm31": Claim("thm31_mpoly", True, False, 2, (12, 10)),
    "thm32": Claim("thm32_mpoly", True, True, 4, (10, 10)),
    "prop41": Claim("prop41_indices", False, False, 2, (12, 10)),
    "prop42": Claim("prop42_indices", False, True, 4, (10, 10)),
}


class OutOfStatedRange(ValueError):
    """Parameters below the domain for which a closed form is stated."""


def _check_range(m: int, n: int, label: str) -> None:
    if not (type(m) is int and type(n) is int):  # type(), so bools are refused
        raise OutOfStatedRange(f"{label}: m and n must be integers, got ({m!r}, {n!r})")
    min_n = CLAIMS[label].min_n
    if m < MIN_M or n < min_n:
        raise OutOfStatedRange(f"{label} is stated for m >= {MIN_M}, n >= {min_n}; got (m={m}, n={n})")


def _index_set(m1: Fraction, m2: Fraction, mm2: Fraction, sdd: Fraction,
               alphas: Iterable[Alpha]) -> IndexSet:
    # The paper's R_alpha and RR_alpha are M2 and MM2 raised to alpha: a
    # Fraction power is exact for an int alpha and a float one otherwise.
    alphas = check_alpha_digits(alphas, max(m2.numerator, m2.denominator, mm2.numerator, mm2.denominator))
    return IndexSet(m1=m1, m2=m2, mm2=mm2, sdd=sdd,
                    r_alpha={a: m2 ** a for a in alphas},
                    rr_alpha={a: mm2 ** a for a in alphas})


def thm31_mpoly(m: int, n: int) -> MPoly:
    """Claimed M-polynomial of M_{m,n}:
    ``2(m-1) x^3 y^3 + 2(m-1) x^3 y^4 + (m-1)(2n-5) x^4 y^4``.
    At n = 2 the last coefficient is negative; the formula is returned
    as stated so the verifier can exhibit the discrepancy.
    """
    _check_range(m, n, "thm31")
    return MPoly(
        {
            (3, 3): 2 * (m - 1),
            (3, 4): 2 * (m - 1),
            (4, 4): (m - 1) * (2 * n - 5),
        }
    )


def thm32_mpoly(m: int, n: int) -> MPoly:
    """Claimed M-polynomial of the line graph of M_{m,n}:
    ``2(m-1) x^4 y^4 + 4(m-1) x^4 y^5 + 6(m-1) x^5 y^6 + 6(m-1)(n-3) x^6 y^6``.
    """
    _check_range(m, n, "thm32")
    return MPoly(
        {
            (4, 4): 2 * (m - 1),
            (4, 5): 4 * (m - 1),
            (5, 6): 6 * (m - 1),
            (6, 6): 6 * (m - 1) * (n - 3),
        }
    )


def prop41_indices(m: int, n: int, alphas: Iterable[Alpha] = (1,)) -> IndexSet:
    """Claimed index expressions for M_{m,n}.

    ``r_alpha``/``rr_alpha`` are keyed by each normalized alpha: exact for
    integer alpha, double-precision floats otherwise.
    """
    _check_range(m, n, "prop41")
    k = (m - 1) ** 2
    m2 = Fraction(16 * (4 * n - 3) * (n - 1) * k)
    mm2 = Fraction((6 * n - 1) * (6 * n + 1) * k, 144)
    m1 = Fraction(16 * m * n - 20 * m - 16 * n + 14)
    sdd = Fraction((48 * n * n - 42 * n + 1) * k, 72)
    return _index_set(m1, m2, mm2, sdd, alphas)


def prop42_indices(m: int, n: int, alphas: Iterable[Alpha] = (1,)) -> IndexSet:
    """Claimed index expressions for the line graph of M_{m,n}."""
    _check_range(m, n, "prop42")
    k = (m - 1) ** 2
    m2 = Fraction(72 * (9 * n - 11) * (2 * n - 3) * k)
    mm2 = Fraction((10 * n - 3) * (10 * n - 7) * k, 100)
    m1 = Fraction(2 * (36 * n - 49) * (m - 1))
    sdd = Fraction((48 * n * n - 42 * n + 1) * k, 72)
    return _index_set(m1, m2, mm2, sdd, alphas)
