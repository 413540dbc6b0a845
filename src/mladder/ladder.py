"""Generator for the generalized Moebius ladder M_{m,n}.

The graph is the m-by-n path grid whose first and last columns are
identified under a half twist (row order reversed).  The quotient is
materialized directly: ``m - 1`` distinct columns plus explicit twist
edges, which keeps every edge auditable and makes the construction an
enumeration oracle for the closed forms checked elsewhere.
"""

from __future__ import annotations

from .graph import MAX_VERTICES, Graph

MIN_M = 4
MIN_N = 2


class InvalidParams(ValueError):
    """Ladder parameters outside the supported range."""


def build_ladder(m: int, n: int) -> Graph:
    """Construct M_{m,n}: after identification, ``m - 1`` columns of ``n`` rows.

    Vertices are v(c, r) for column ``c in 0..m-2`` and row ``r in 1..n``
    with identifier ``c*n + (r-1)``.  Edges:

    * vertical   (v(c, r), v(c, r+1))        all c, 1 <= r <= n-1
    * horizontal (v(c, r), v(c+1, r))        0 <= c <= m-3, all r
    * twist      (v(0, n+1-r), v(m-2, r))    all r

    The result has ``(m-1)*n`` vertices and ``(m-1)*(2n-1)`` edges, with
    ``2(m-1)`` vertices of degree 3 and ``(m-1)(n-2)`` of degree 4.

    ``m >= 4`` is required: at m = 3 the twist edge coincides with a
    horizontal edge in the middle row of odd-height ladders, which would
    create a parallel edge.  Every edge is emitted as (smaller, larger), and
    ladders of more than ``MAX_VERTICES`` vertices are refused before any
    edge is generated.
    """
    if not (isinstance(m, int) and isinstance(n, int)):
        raise InvalidParams(f"m and n must be integers, got ({m!r}, {n!r})")
    if m < MIN_M or n < MIN_N:
        raise InvalidParams(f"need m >= {MIN_M} and n >= {MIN_N}, got (m={m}, n={n})")
    if (m - 1) * n > MAX_VERTICES:
        raise InvalidParams(f"M_{{m,n}} has (m-1)*n = {(m - 1) * n} vertices, more than the "
                            f"limit of {MAX_VERTICES} (m={m}, n={n})")

    def vid(c: int, r: int) -> int:
        return c * n + (r - 1)

    edges = []
    for c in range(m - 1):
        for r in range(1, n):
            edges.append((vid(c, r), vid(c, r + 1)))
    for c in range(m - 2):
        for r in range(1, n + 1):
            edges.append((vid(c, r), vid(c + 1, r)))
    for r in range(1, n + 1):
        edges.append((vid(0, n + 1 - r), vid(m - 2, r)))
    return Graph((m - 1) * n, edges)
