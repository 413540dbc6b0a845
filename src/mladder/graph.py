"""Simple undirected graph kernel.

Vertices are the integers ``0 .. vertex_count-1``; edges are unordered
pairs with no loops and no multiplicity (duplicates are rejected at
construction, not merged).  On top of that sit the degree tally, the edge
partition by endpoint-degree pairs, the M-polynomial, and the line-graph
transform.  Graphs are immutable, so everything here is safe to share
between workers.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, islice, starmap
from operator import eq, itemgetter, lt
from typing import Iterable

from .mpoly import MPoly

Edge = tuple[int, int]


def _bad_ids(pairs) -> ValueError:
    """The error for the first pair in ``pairs`` with an id that is not an int."""
    for u, v in pairs:
        if type(u) is not int or type(v) is not int:
            return ValueError(f"vertex identifiers must be integers, got ({u!r}, {v!r})")
    return ValueError("vertex identifiers must be integers")


class Graph:
    """Immutable simple graph with contiguous integer vertex identifiers."""

    __slots__ = ("_n", "_edges", "_degrees")

    def __init__(self, vertex_count: int, edges: Iterable[Edge] = ()):
        if not isinstance(vertex_count, int) or vertex_count < 0:
            raise ValueError(f"vertex_count must be a non-negative integer, got {vertex_count!r}")
        # Checked in bulk on the sorted list rather than edge by edge: a
        # loop is an edge that is not strictly ordered, a duplicate is equal
        # to its sorted neighbour.  ``type(x) is int`` also rejects bools.
        pairs = None
        try:
            pairs = [(u, v) if u < v else (v, u) for u, v in edges]
            pairs.sort()
        except TypeError:  # ids that do not compare, such as int and str
            raise _bad_ids(edges if pairs is None else pairs) from None
        if not all(type(u) is int and type(v) is int for u, v in pairs):
            raise _bad_ids(pairs)
        if pairs and (pairs[0][0] < 0 or max(map(itemgetter(1), pairs)) >= vertex_count):
            u, v = next(e for e in pairs if e[0] < 0 or e[1] >= vertex_count)
            raise ValueError(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
        if not all(starmap(lt, pairs)):
            u = next(u for u, v in pairs if u == v)
            raise ValueError(f"self-loop at vertex {u}")
        if any(map(eq, pairs, islice(pairs, 1, None))):
            u, v = next(a for a, b in zip(pairs, islice(pairs, 1, None)) if a == b)
            raise ValueError(f"parallel edge ({u}, {v})")
        counts = Counter(chain.from_iterable(pairs))
        self._n = vertex_count
        self._edges: tuple[Edge, ...] = tuple(pairs)
        self._degrees = tuple(map(counts.__getitem__, range(vertex_count)))

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Edges as normalized ``(u, v)`` pairs in ascending lexicographic order."""
        return self._edges

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def degree(self, vertex: int) -> int:
        return self._degrees[vertex]

    def degrees(self) -> tuple[int, ...]:
        """Degree of every vertex, indexed by vertex identifier."""
        return self._degrees

    def degree_multiset(self) -> dict[int, int]:
        """Return the mapping degree -> number of vertices with that degree."""
        return dict(sorted(Counter(self._degrees).items()))

    def edge_degree_partition(self) -> dict[tuple[int, int], int]:
        """Tally edges by the sorted degree pair of their endpoints.

        Every edge ``(u, v)`` contributes one count to the key
        ``(min(deg u, deg v), max(deg u, deg v))``; the counts sum to the
        number of edges.
        """
        counts = Counter()
        d = self._degrees
        for u, v in self._edges:
            counts[(d[u], d[v]) if d[u] <= d[v] else (d[v], d[u])] += 1
        return dict(sorted(counts.items()))

    def m_polynomial(self) -> MPoly:
        """Return the M-polynomial: one term ``m_ij * x^i y^j`` per degree pair."""
        return MPoly(
            {key: Fraction(count) for key, count in self.edge_degree_partition().items()}
        )

    def line_graph(self) -> "Graph":
        """Return the line graph.

        Result vertices are this graph's edges numbered in ascending
        lexicographic order; two of them are adjacent iff the underlying
        edges share an endpoint.  In a simple graph two distinct edges share
        at most one endpoint, so collecting the pairs incident to each
        vertex produces every line-graph edge exactly once.
        """
        incident: list[list[int]] = [[] for _ in range(self._n)]
        for index, (u, v) in enumerate(self._edges):
            incident[u].append(index)
            incident[v].append(index)
        line_edges = [pair for around in incident for pair in combinations(around, 2)]
        return Graph(len(self._edges), line_edges)

    def to_edgelist(self) -> str:
        """Serialize to the edge-list text format.

        First line ``p <vertex_count> <edge_count>``, then one ``u v`` line
        per edge in ascending lexicographic order, LF line endings.
        """
        lines = [f"p {self._n} {len(self._edges)}"]
        lines.extend(f"{u} {v}" for u, v in self._edges)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_edgelist(cls, text: str) -> "Graph":
        """Parse the edge-list text format produced by :meth:`to_edgelist`."""
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError("empty edge-list input")
        header = lines[0].split()
        if len(header) != 3 or header[0] != "p":
            raise ValueError(f"malformed header line {lines[0]!r}; expected 'p <vertices> <edges>'")
        try:
            vertex_count, edge_count = int(header[1]), int(header[2])
        except ValueError:
            raise ValueError(f"malformed header line {lines[0]!r}") from None
        if len(lines) - 1 != edge_count:
            raise ValueError(f"header declares {edge_count} edges but {len(lines) - 1} lines follow")
        edges = []
        for line in lines[1:]:
            fields = line.split()
            if len(fields) != 2:
                raise ValueError(f"malformed edge line {line!r}")
            try:
                edges.append((int(fields[0]), int(fields[1])))
            except ValueError:
                raise ValueError(f"malformed edge line {line!r}") from None
        return cls(vertex_count, edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(vertex_count={self._n}, edges={len(self._edges)})"
