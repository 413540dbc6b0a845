"""Expected outputs of the benchmark workloads, derived without importing mladder.

M-polynomials come from the closed forms where they are known to hold:
the ladder's ``2(m-1) x^3y^3 + 2(m-1) x^3y^4 + (m-1)(2n-5) x^4y^4`` for
``n >= 3``, the all-cubic ``3(m-1) x^3y^3`` at ``n = 2``, and the line
graph's ``2(m-1) x^4y^4 + 4(m-1) x^4y^5 + 6(m-1) x^5y^6 + 6(m-1)(n-3) x^6y^6``
for ``n >= 4``.  For an arbitrary edge list the line graph's M-polynomial
is tallied from the degree-transfer law ``deg_L(uv) = d_u + d_v - 2``.
Index values follow from the M-polynomial operator calculus (Deutsch and
Klavzar 2015, *M-polynomial and degree-based topological indices*): each
index is a sum over terms ``c x^i y^j`` of ``c`` times a function of ``i, j``.

A polynomial here is a dict ``{(i, j): count}`` with ``i <= j``.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import comb

REL_TOL = 1e-12


def thm31_claim(m: int, n: int) -> dict:
    """The ladder's claimed M-polynomial, as stated (negative at ``n = 2``)."""
    return {(3, 3): 2 * (m - 1), (3, 4): 2 * (m - 1), (4, 4): (m - 1) * (2 * n - 5)}


def thm32_claim(m: int, n: int) -> dict:
    """The line graph's claimed M-polynomial, stated for ``n >= 4``."""
    return {(4, 4): 2 * (m - 1), (4, 5): 4 * (m - 1), (5, 6): 6 * (m - 1),
            (6, 6): 6 * (m - 1) * (n - 3)}


def ladder_mpoly(m: int, n: int) -> dict:
    """The true M-polynomial of ``M_{m,n}``."""
    if n == 2:
        return {(3, 3): 3 * (m - 1)}
    return thm31_claim(m, n)


def line_mpoly(m: int, n: int) -> dict:
    """The true M-polynomial of the line graph of ``M_{m,n}``, for ``n >= 4``."""
    if n < 4:
        raise ValueError(f"no closed form for the line graph at n={n}")
    return thm32_claim(m, n)


def alpha_label(alpha) -> str:
    """The label mladder gives an alpha in its output ("1", "2", "0.5")."""
    return repr(int(alpha)) if float(alpha).is_integer() else repr(float(alpha))


def indices(poly: dict, alphas) -> dict:
    """The six indices of a graph with M-polynomial ``poly``, keyed by quantity name.

    Exact ``Fraction`` values for integer alpha, floats otherwise.
    """
    out = {
        "m1": sum((Fraction(c * (i + j)) for (i, j), c in poly.items()), Fraction(0)),
        "m2": sum((Fraction(c * i * j) for (i, j), c in poly.items()), Fraction(0)),
        "mm2": sum((Fraction(c, i * j) for (i, j), c in poly.items()), Fraction(0)),
        "sdd": sum((c * (Fraction(i, j) + Fraction(j, i)) for (i, j), c in poly.items()),
                   Fraction(0)),
    }
    for alpha in alphas:
        label = alpha_label(alpha)
        if float(alpha).is_integer():
            a = int(alpha)
            out[f"r_alpha[{label}]"] = sum((c * Fraction(i * j) ** a for (i, j), c in poly.items()),
                                           Fraction(0))
            out[f"rr_alpha[{label}]"] = sum((c * Fraction(i * j) ** -a
                                             for (i, j), c in poly.items()), Fraction(0))
        else:
            out[f"r_alpha[{label}]"] = sum(c * (i * j) ** alpha for (i, j), c in poly.items())
            out[f"rr_alpha[{label}]"] = sum(c * (i * j) ** -alpha for (i, j), c in poly.items())
    return out


def same(got, want) -> bool:
    """Exact equality for rationals, ``REL_TOL`` relative error for floats."""
    if isinstance(want, Fraction) or isinstance(got, Fraction):
        return isinstance(got, Fraction) and isinstance(want, Fraction) and got == want
    if not (isinstance(got, (int, float)) and isinstance(want, (int, float))):
        return False
    return got == want or abs(got - want) <= REL_TOL * max(abs(got), abs(want))


def hub_graph(seed: int, vertices: int, background_edges: int, hubs: int,
              hub_degree: int) -> list[tuple[int, int]]:
    """A seeded simple graph: uniform background edges plus high-degree hubs.

    Hubs are ``hubs`` vertices drawn at random; each is joined to
    ``hub_degree`` distinct random non-hubs, and the background edges join
    distinct non-hubs, so no edge can be drawn twice across the two parts
    and every hub has degree exactly ``hub_degree``.  Edges come back sorted.
    """
    rng = random.Random(seed)
    hub_ids = rng.sample(range(vertices), hubs)
    chosen = set(hub_ids)
    others = [v for v in range(vertices) if v not in chosen]
    edges: set[tuple[int, int]] = set()
    while len(edges) < background_edges:
        u, v = rng.choice(others), rng.choice(others)
        if u != v:
            edges.add((u, v) if u < v else (v, u))
    for h in hub_ids:
        for v in rng.sample(others, hub_degree):
            edges.add((h, v) if h < v else (v, h))
    return sorted(edges)


def line_mpoly_of(vertices: int, edges) -> dict:
    """M-polynomial of the line graph of a simple graph, without building it.

    Two edges are adjacent in the line graph iff they share an endpoint,
    and a line-graph vertex ``uv`` has degree ``d_u + d_v - 2``.  So each
    vertex contributes one line-graph edge per pair of its incident edges,
    counted here per pair of line-degrees.
    """
    degree = [0] * vertices
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    around = [Counter() for _ in range(vertices)]
    for u, v in edges:
        line_degree = degree[u] + degree[v] - 2
        around[u][line_degree] += 1
        around[v][line_degree] += 1
    poly: Counter = Counter()
    for tally in around:
        items = sorted(tally.items())
        for k, (a, count_a) in enumerate(items):
            poly[(a, a)] += comb(count_a, 2)
            for b, count_b in items[k + 1:]:
                poly[(a, b)] += count_a * count_b
    return {key: c for key, c in sorted(poly.items()) if c}
