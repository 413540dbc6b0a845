"""Degree-based topological indices, computed two independent ways.

:func:`indices_from_edges` evaluates the defining expressions over a
graph's edges: it reads each edge's endpoint degrees once, counts the
degree pairs in a table indexed by the ranks of the distinct degrees (O(E),
since distinct positive degrees sum to at most ``2E``), tallies the degree
products from it, and sums each exact index in integers over one common
denominator, building a single ``Fraction`` per index.
:func:`indices_from_mpoly` recovers the same quantities from an
M-polynomial through the degree-weight operator calculus.  The edge route
tallies for itself and never touches ``MPoly``, ``weight_by`` or
``Graph.m_polynomial``: the two routes share no code path, so their
agreement on a graph and its M-polynomial is a meaningful cross-check
rather than a tautology.

First Zagreb      M1  = sum (d_u + d_v)
Second Zagreb     M2  = sum d_u * d_v
Modified second   MM2 = sum 1 / (d_u * d_v)
Generalized Randic          R_a  = sum (d_u * d_v)^a
Reciprocal generalized      RR_a = sum (d_u * d_v)^-a
Symmetric division          SDD  = sum (min/max + max/min)

So M2 = R_1, MM2 = R_-1 and RR_a = R_-a, and each route reads all four
from one local rule ``R(a)``, the only place it raises anything to an
alpha power and the only place it chooses between exact and float values.
M1 and SDD are sums of evaluated operators (``D_x + D_y`` and ``D_x S_y +
S_x D_y`` at x = y = 1, which is linear), or of the same terms over edges.

Integer alpha is computed exactly in rational arithmetic; non-integer
alpha in double precision, each route taking the correctly rounded sum of
one rounded term per entry of its own tally (compare with a relative
tolerance of 1e-12); each route raises ``OverflowError`` itself when that
sum is not finite, so no infinite index is ever returned.
Each route normalizes and checks its alphas with :func:`check_alpha_digits`
before it raises anything to a power: an alpha must be an int or a float,
a float alpha finite, and an integer one small enough to print its values.
The check computes no index value, so the routes still share no summation
code.
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


def check_alpha_digits(alphas: Iterable[Alpha], base: int, terms: int = 1) -> list[Alpha]:
    """Return the alphas normalized, in order, once each is finite and none too large to print.

    This is the one place alphas are normalized: every index producer
    calls it on the alphas it is given, and keys its Randic families by
    what it returns, so a repeated alpha is one key, kept at its first
    occurrence, and no alphas give no Randic values.

    The caller vouches that the numerator and the denominator of every
    exact value it makes for an integer alpha ``a`` are at most ``terms *
    base ** |a|``, so they have at most ``|a| * log10(base) +
    log10(terms) + 1`` digits.  A sum of ``terms`` powers ``p ** a`` or
    ``p ** -a``, each ``p`` dividing ``base``, is such a value.  So is a
    sum of rational multiples ``c_k * p_k ** a`` with ``terms = L * sum
    |numerator of c_k|``, ``L`` the lcm of the ``c_k``'s denominators:
    over the common denominator ``L`` (``L * base ** |a|`` for negative
    ``a``), both parts stay within that bound.  Above
    ``sys.get_int_max_str_digits()`` Python refuses to print an int, so
    such an alpha raises ``ValueError`` here, before any power exists,
    which also bounds the work; the message names the bound rounded up,
    and an alpha too long to print itself by its sign and that limit.

    An alpha that is not an int or a float is refused with ``ValueError``
    naming its type.  A bool would key a Randic value as ``True`` (``MPoly``
    and ``Graph`` refuse bool exponents and ids too); ``Fraction(2)`` would
    take the float path at an integer value, and a ``Decimal`` or a ``str``
    would fail in the power itself.
    A float alpha must be finite, or ``ValueError`` is raised whatever
    ``base`` is: ``nan`` or ``inf`` would make every Randic value ``nan``
    or infinite, and no verdict could be read from them.  A finite float
    alpha's powers are not bounded here; a power, a term or a sum past
    float range raises ``OverflowError`` where it is computed.  An int
    alpha is never converted to float, so one past float range is still
    refused by its digit count.
    """
    alphas = [normalize_alpha(a) for a in alphas]
    for a in alphas:
        if type(a) not in (int, float):
            raise ValueError(f"alpha must be an int or a float, not a {type(a).__name__}, got {a!r}")
        if isinstance(a, float) and not math.isfinite(a):
            raise ValueError(f"alpha must be finite, got {a!r}")
    # 0 (no limit) would let one flag take unbounded time; keep the default.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    if base <= 1:
        return alphas  # every power of 1 is 1
    scale, extra = math.log10(base), math.log10(max(terms, 1)) + 1
    for a in alphas:
        if not isinstance(a, int):
            continue
        # An int past float range would overflow in the product; it is refused anyway.
        digits = abs(a) * scale + extra if abs(a) <= sys.float_info.max else math.inf
        if digits > limit:
            # A float product past ~1e308 is inf, which is no digit count to print.
            size = f"up to {math.ceil(digits)} digits, over" if math.isfinite(digits) else "more than"
            try:
                name = f"alpha {a}"
            except ValueError:  # past Python's own limit, str(a) raises: name it by sign and size
                name = f"{'a negative' if a < 0 else 'an'} alpha of more than {limit} digits"
            raise ValueError(f"{name} is too large for exact arithmetic: its values would have "
                             f"{size} the limit of {limit} digits for printing an integer")
    return alphas


class IndexSet(NamedTuple):
    """Six degree-based indices; the Randic families keyed by alpha."""

    m1: Fraction
    m2: Fraction
    mm2: Fraction
    sdd: Fraction
    r_alpha: dict[Alpha, Real]
    rr_alpha: dict[Alpha, Real]

    def paired(self, other: "IndexSet") -> list[tuple[str, Real, Real]]:
        """``(label, value here, value in other)`` triples, in the order reports print them.

        ``m1``, ``m2``, ``mm2``, ``sdd``, then ``r_alpha[a]`` and
        ``rr_alpha[a]`` for each alpha in this result's own ``r_alpha``
        (labels from :func:`alpha_label`): each normalized alpha once, in
        first-occurrence order.  Neither index route calls this, so the two
        stay independent; it only lines their results (or the closed forms)
        up row by row.
        """
        rows = [(name, getattr(self, name), getattr(other, name))
                for name in ("m1", "m2", "mm2", "sdd")]
        for a in self.r_alpha:
            label = alpha_label(a)
            rows.append((f"r_alpha[{label}]", self.r_alpha[a], other.r_alpha[a]))
            rows.append((f"rr_alpha[{label}]", self.rr_alpha[a], other.rr_alpha[a]))
        return rows


def indices_from_edges(g: Graph, alphas: Iterable[Alpha] = (1,)) -> IndexSet:
    """Compute all indices by direct summation over the graph's edges.

    Each edge's endpoint degrees are read once and tallied: degree pairs
    for M1 and SDD (both symmetric in the pair, so the order within a pair
    does not matter), products ``p = d_u * d_v`` for M2, MM2 and the Randic
    families.  The pairs are counted in a ``k x k`` table indexed by the
    ranks of the ``k`` distinct degrees, so nothing is made or hashed per
    edge; distinct positive degrees sum to at most ``2E``, so ``k <= 2 *
    sqrt(E) + 1`` and the table is O(E).  Each exact index is then one
    integer sum over the tallies, made a ``Fraction`` once at the end over
    a common denominator: ``den``, the lcm of the products, for SDD, and
    ``den ** -a`` for ``R(a)`` at a negative integer ``a`` (MM2 = R(-1),
    and RR_alpha = R(-alpha)).  An integer alpha is first refused by
    :func:`check_alpha_digits` when its values would be too long to print:
    every product, and so ``den``, divides the square of the lcm of the
    degrees, which bounds ``p ** |alpha|`` and ``den ** |alpha|`` alike,
    and each index sums one term per edge.  Non-integer alpha sums the
    same tally in floats: a float index is the correctly rounded sum
    (``math.fsum``) of one rounded term ``c * p ** alpha`` per distinct
    product, and one that is not finite raises ``OverflowError``.
    """
    d = g.degrees()
    values = sorted(set(d))
    alphas = check_alpha_digits(alphas, math.lcm(*filter(None, values)) ** 2, g.edge_count)
    rank = {x: k for k, x in enumerate(values)}
    rows = [[0] * len(values) for _ in values]
    for u, v in g.edges:
        rows[rank[d[u]]][rank[d[v]]] += 1
    degree_pairs = {(du, dv): c for du, row in zip(values, rows) for dv, c in zip(values, row) if c}
    product_counts: Counter = Counter()
    for (du, dv), c in degree_pairs.items():
        product_counts[du * dv] += c
    den = math.lcm(*product_counts)

    def R(a: Alpha) -> Real:
        """R_a over the product tally: exact for integer a, a negative one over
        ``den ** -a``; otherwise the correctly rounded sum of float terms."""
        if not isinstance(a, int):
            total = math.fsum(c * p ** a for p, c in product_counts.items())
            if not math.isfinite(total):
                raise OverflowError(f"R_{a!r} over the edges is past float range")
            return total
        if a >= 0:
            return Fraction(sum(c * p ** a for p, c in product_counts.items()))
        return Fraction(sum(c * (den // p) ** -a for p, c in product_counts.items()), den ** -a)

    m1 = Fraction(sum(c * (du + dv) for (du, dv), c in degree_pairs.items()))
    sdd = Fraction(sum(c * (du * du + dv * dv) * (den // (du * dv))
                       for (du, dv), c in degree_pairs.items()), den)
    return IndexSet(m1, R(1), R(-1), sdd, {a: R(a) for a in alphas}, {a: R(-a) for a in alphas})


def indices_from_mpoly(p: MPoly, alphas: Iterable[Alpha] = (1,)) -> IndexSet:
    """Recover all indices from an M-polynomial via the operator calculus.

    ``R(a)`` evaluates the combined weight ``(a, a)`` at x = y = 1, so M2
    is ``R(1)``, MM2 ``R(-1)``, R_alpha ``R(alpha)`` and RR_alpha
    ``R(-alpha)``.  M1 is the sum of the two evaluated derivative weights
    ``(1, 0)`` and ``(0, 1)``, SDD that of the mixed weights ``(1, -1)``
    and ``(-1, 1)``.  Non-integer alpha falls back to float summation over
    the terms, keeping the polynomial core exact: the correctly rounded sum
    (``math.fsum``) of one rounded term per ``(i, j)``, and one that is
    not finite raises ``OverflowError``.  Every term must
    have both exponents >= 1 (true of any graph's M-polynomial); otherwise
    the negative weights raise ``ZeroExponentWeight``.  An integer alpha
    is first refused by :func:`check_alpha_digits` when its values would
    be too long to print.  Its ``base`` is the lcm of the nonzero products
    ``i * j``, and its ``terms`` the lcm of the coefficients' denominators
    times the sum of their absolute numerators.  For a graph's
    M-polynomial ``terms`` is the edge count and ``base`` divides the edge
    route's, so this route refuses no alpha that one accepts.
    """
    terms = p.terms
    den = math.lcm(*(c.denominator for c in terms.values()))
    alphas = check_alpha_digits(alphas, math.lcm(*filter(None, (i * j for i, j in terms))),
                                den * sum(abs(c.numerator) for c in terms.values()))

    def R(a: Alpha) -> Real:
        """R_a: the weight ``(a, a)`` at x = y = 1 for integer a; otherwise
        the correctly rounded sum of one float term per ``(i, j)``."""
        if isinstance(a, int):
            return p.weight_by(a, a).eval_at_one()
        total = math.fsum(float(c) * (i * j) ** a for (i, j), c in terms.items())
        if not math.isfinite(total):
            raise OverflowError(f"R_{a!r} of the M-polynomial is past float range")
        return total

    m1 = p.weight_by(1, 0).eval_at_one() + p.weight_by(0, 1).eval_at_one()
    m2, mm2 = R(1), R(-1)
    sdd = p.weight_by(1, -1).eval_at_one() + p.weight_by(-1, 1).eval_at_one()
    return IndexSet(m1, m2, mm2, sdd, {a: R(a) for a in alphas}, {a: R(-a) for a in alphas})
