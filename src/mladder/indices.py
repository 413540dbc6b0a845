"""Degree-based topological indices, computed two independent ways.

:func:`indices_from_edges` evaluates the defining expressions over a
graph's edges: it reads each edge's endpoint degrees once, tallies the
degree pairs and degree products with integer counts, and sums each exact
index in integers over one common denominator, building a single
``Fraction`` per index.  :func:`indices_from_mpoly` recovers
the same quantities from an M-polynomial through the degree-weight
operator calculus.  The edge route tallies for itself and never touches
``MPoly``, ``weight_by`` or ``Graph.m_polynomial``: the two routes share
no code path, so their agreement on a graph and its M-polynomial is a
meaningful cross-check rather than a tautology.

First Zagreb      M1  = sum (d_u + d_v)
Second Zagreb     M2  = sum d_u * d_v
Modified second   MM2 = sum 1 / (d_u * d_v)
Generalized Randic          R_a  = sum (d_u * d_v)^a
Reciprocal generalized      RR_a = sum (d_u * d_v)^-a   (i.e. RR_a = R_-a)
Symmetric division          SDD  = sum (min/max + max/min)

Integer alpha is computed exactly in rational arithmetic; non-integer
alpha in double precision (compare with a relative tolerance of 1e-12).
The edge route checks its own integer alphas with
:func:`check_alpha_digits` before it raises anything to a power.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from fractions import Fraction
from typing import Iterable, NamedTuple, Union

from .graph import Graph
from .mpoly import MPoly

Real = Union[Fraction, float]
Alpha = Union[int, float]


def normalize_alpha(alpha: Alpha) -> Alpha:
    """Collapse integer-valued floats to int so 1.0 and 1 share one exact path."""
    if isinstance(alpha, float) and alpha.is_integer():
        return int(alpha)
    return alpha


def alpha_label(alpha: Alpha) -> str:
    """Canonical text label for an alpha value ("1", "0.5", "-2", ...)."""
    return repr(normalize_alpha(alpha))


def alpha_list(alphas: Iterable[Alpha]) -> list[Alpha]:
    """The normalized alphas, first occurrence of each kept in order; ``[1]`` if none."""
    return list(dict.fromkeys(map(normalize_alpha, alphas))) or [1]


def check_alpha_digits(alphas: Iterable[Alpha], base: int, terms: int = 1) -> None:
    """Refuse an integer alpha whose exact values would be too long to print.

    The caller vouches that every value it prints is a sum of ``terms``
    powers ``p ** a`` or ``p ** -a``, each ``p`` dividing ``base``; its
    numerator and denominator then have at most ``|a| * log10(base) +
    log10(terms) + 1`` digits.  Above ``sys.get_int_max_str_digits()``
    Python refuses to print an int, so such an alpha raises ``ValueError``
    here, before any power exists, which also bounds the work.  Float
    alpha is not checked: its powers overflow to ``OverflowError``.
    """
    # 0 (no limit) would let one flag take unbounded time; keep the default.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    if base <= 1:
        return  # every power of 1 is 1
    scale, extra = math.log10(base), math.log10(max(terms, 1)) + 1
    for a in alphas:
        if not isinstance(a, int):
            continue
        # An int past float range would overflow in the product; it is refused anyway.
        digits = abs(a) * scale + extra if abs(a) <= sys.float_info.max else math.inf
        if digits > limit:
            # A float product past ~1e308 is inf, which is no digit count to print.
            size = f"up to {digits:.0f} digits, over" if math.isfinite(digits) else "more than"
            raise ValueError(f"alpha {a} is too large for exact arithmetic: its values would have "
                             f"{size} the limit of {limit} digits for printing an integer")


class IndexSet(NamedTuple):
    """Six degree-based indices; the Randic families keyed by alpha."""

    m1: Fraction
    m2: Fraction
    mm2: Fraction
    sdd: Fraction
    r_alpha: dict[Alpha, Real]
    rr_alpha: dict[Alpha, Real]

    def paired(self, other: "IndexSet", alphas: Iterable[Alpha]) -> list[tuple[str, Real, Real]]:
        """``(label, value here, value in other)`` triples, in the order reports print them.

        ``m1``, ``m2``, ``mm2``, ``sdd``, then ``r_alpha[a]`` and
        ``rr_alpha[a]`` for each alpha in turn (labels from
        :func:`alpha_label`).  Neither index route calls this, so the two
        stay independent; it only lines their results (or the closed
        forms) up row by row.
        """
        rows = [(name, getattr(self, name), getattr(other, name))
                for name in ("m1", "m2", "mm2", "sdd")]
        for a in alphas:
            label = alpha_label(a)
            rows.append((f"r_alpha[{label}]", self.r_alpha[a], other.r_alpha[a]))
            rows.append((f"rr_alpha[{label}]", self.rr_alpha[a], other.rr_alpha[a]))
        return rows


def indices_from_edges(g: Graph, alphas: Iterable[Alpha] = (1,)) -> IndexSet:
    """Compute all indices by direct summation over the graph's edges.

    Each edge's endpoint degrees are read once and tallied: degree pairs
    for M1 and SDD (both symmetric in the pair, so the order within a pair
    does not matter), products ``p = d_u * d_v`` for M2, MM2 and the Randic
    families.  Each exact index is then one integer sum over the tallies,
    made a ``Fraction`` once at the end over a common denominator: ``den``,
    the lcm of the products, for MM2 and SDD, and ``den ** |alpha|`` for
    the reciprocal side of an integer alpha (RR_alpha, or R_alpha when
    alpha is negative).  An integer alpha is first refused by
    :func:`check_alpha_digits` when its values would be too long to print:
    every product, and so ``den``, divides the square of the lcm of the
    degrees, which bounds ``p ** |alpha|`` and ``den ** |alpha|`` alike,
    and each index sums one term per edge.  Non-integer alpha caches
    ``p ** alpha`` per distinct product but still adds one float per edge
    in edge order, as a plain per-edge sum would.
    """
    d = g.degrees()
    alphas = [normalize_alpha(a) for a in alphas]
    check_alpha_digits(alphas, math.lcm(*filter(None, set(d))) ** 2, g.edge_count)
    degree_pairs = Counter((d[u], d[v]) for u, v in g.edges)
    product_counts: Counter = Counter()
    for (du, dv), c in degree_pairs.items():
        product_counts[du * dv] += c
    den = math.lcm(*product_counts)
    m1 = Fraction(sum(c * (du + dv) for (du, dv), c in degree_pairs.items()))
    m2 = Fraction(sum(c * p for p, c in product_counts.items()))
    mm2 = Fraction(sum(c * (den // p) for p, c in product_counts.items()), den)
    sdd = Fraction(sum(c * (du * du + dv * dv) * (den // (du * dv))
                       for (du, dv), c in degree_pairs.items()), den)
    r: dict[Alpha, Real] = {}
    rr: dict[Alpha, Real] = {}
    products = None
    for alpha in alphas:
        if isinstance(alpha, int):
            k = abs(alpha)
            up = Fraction(sum(c * p ** k for p, c in product_counts.items()))
            down = Fraction(sum(c * (den // p) ** k for p, c in product_counts.items()), den ** k)
            r[alpha], rr[alpha] = (up, down) if alpha >= 0 else (down, up)
        else:
            if products is None:
                products = [d[u] * d[v] for u, v in g.edges]
            power = {p: p ** alpha for p in product_counts}
            r[alpha] = sum(map(power.__getitem__, products), 0.0)
            power = {p: p ** -alpha for p in product_counts}
            rr[alpha] = sum(map(power.__getitem__, products), 0.0)
    return IndexSet(m1=m1, m2=m2, mm2=mm2, sdd=sdd, r_alpha=r, rr_alpha=rr)


def indices_from_mpoly(p: MPoly, alphas: Iterable[Alpha] = (1,)) -> IndexSet:
    """Recover all indices from an M-polynomial via the operator calculus.

    M1 applies the two derivative weights and sums; M2/MM2 apply the
    combined weight ``(1, 1)`` / ``(-1, -1)``; SDD the mixed weights
    ``(1, -1) + (-1, 1)``; integer alpha the weight ``(a, a)`` or its
    negative.  Non-integer alpha falls back to direct float summation over
    terms, keeping the polynomial core exact.  Every term must have both
    exponents >= 1 (true of any graph's M-polynomial); otherwise the
    negative weights raise ``ZeroExponentWeight``.
    """
    m1 = (p.weight_by(1, 0) + p.weight_by(0, 1)).eval_at_one()
    m2 = p.weight_by(1, 1).eval_at_one()
    mm2 = p.weight_by(-1, -1).eval_at_one()
    sdd = (p.weight_by(1, -1) + p.weight_by(-1, 1)).eval_at_one()
    r: dict[Alpha, Real] = {}
    rr: dict[Alpha, Real] = {}
    for alpha in (normalize_alpha(a) for a in alphas):
        if isinstance(alpha, int):
            r[alpha] = p.weight_by(alpha, alpha).eval_at_one()
            rr[alpha] = p.weight_by(-alpha, -alpha).eval_at_one()
        else:
            r[alpha] = sum((float(c) * (i * j) ** alpha for (i, j), c in p.terms.items()), 0.0)
            rr[alpha] = sum((float(c) * (i * j) ** -alpha for (i, j), c in p.terms.items()), 0.0)
    return IndexSet(m1=m1, m2=m2, mm2=mm2, sdd=sdd, r_alpha=r, rr_alpha=rr)
