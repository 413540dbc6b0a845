"""Generator for the generalized Moebius ladder M_{m,n}.

The graph is the m-by-n path grid whose first and last columns are
identified under a half twist (row order reversed).  The quotient is
materialized directly: ``m - 1`` distinct columns plus explicit twist
edges, which keeps every edge auditable and makes the construction an
enumeration oracle for the closed forms checked elsewhere.
"""

from __future__ import annotations

from .graph import MAX_SIZE, Graph

MIN_M = 4
MIN_N = 2


class InvalidParams(ValueError):
    """Ladder parameters outside the supported range."""


def build_ladder(m: int, n: int) -> Graph:
    """Construct M_{m,n}: after identification, ``m - 1`` columns of ``n`` rows.

    Vertex ``v = c*n + r`` is row ``r in 0..n-1`` of column ``c in 0..m-2``;
    with ``size = (m-1)*n`` the edges are:

    * vertical   ``(v, v+1)``                for ``v % n != n-1``
    * horizontal ``(v, v+n)``                for ``v < size-n``
    * twist      ``(n-1-r, size-n+r)``       for ``r < n``

    The twist edges are the grid's horizontal edges into its column ``m-1``,
    which is column 0 with its rows reversed.

    The result has ``(m-1)*n`` vertices and ``(m-1)*(2n-1)`` edges, with
    ``2(m-1)`` vertices of degree 3 and ``(m-1)(n-2)`` of degree 4.

    ``m >= 4`` is required: at m = 3 the twist edge coincides with a
    horizontal edge in the middle row of odd-height ladders, which would
    create a parallel edge.  Every edge is emitted as (smaller, larger), the
    three families are sorted together, and each column's degrees are
    ``(3, 4, ..., 4, 3)`` (all 3 at ``n = 2``), so the graph is assembled
    without the checks ``Graph(...)`` makes of outside edges.  The one
    check is the size limit: a ladder of more than ``MAX_SIZE`` edges is
    refused before any edge is generated.  Its vertex count, ``(m-1)*n``, is
    smaller.
    """
    if not (type(m) is int and type(n) is int):  # type(), so bools are refused
        raise InvalidParams(f"m and n must be integers, got ({m!r}, {n!r})")
    if m < MIN_M or n < MIN_N:
        raise InvalidParams(f"need m >= {MIN_M} and n >= {MIN_N}, got (m={m}, n={n})")
    edge_count = (m - 1) * (2 * n - 1)
    if edge_count > MAX_SIZE:
        raise InvalidParams(f"M_{{m,n}} has (m-1)*(2n-1) = {edge_count} edges, more than the "
                            f"limit of {MAX_SIZE} (m={m}, n={n})")
    size = (m - 1) * n
    edges = [(v, v + 1) for v in range(size) if v % n != n - 1]  # vertical
    edges += [(v, v + n) for v in range(size - n)]  # horizontal
    edges += [(n - 1 - r, size - n + r) for r in range(n)]  # twist
    edges.sort()
    degrees = ((3,) + (4,) * (n - 2) + (3,)) * (m - 1)
    return Graph._assemble(size, tuple(edges), degrees)
