"""Simple undirected graph kernel.

Vertices are the integers ``0 .. vertex_count-1``, at most
:data:`MAX_VERTICES` of them; edges are unordered pairs with no loops and
no multiplicity (duplicates are rejected at construction, not merged).
On top of that sit the degree tally, the M-polynomial (edges tallied by
their endpoint-degree pairs) and the line-graph transform.  The line
graph's M-polynomial is also tallied without building it, once per
distinct neighbour-degree profile of a vertex; only vertices with edges
have one, so memory stays O(E).  Edge-list text in the canonical form
that :meth:`Graph.to_edgelist` writes is parsed in bulk; any other text
goes through a per-line parser that accepts and rejects exactly as
before.  Graphs are immutable, so everything here is safe to share
between workers.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from itertools import chain, combinations, groupby, islice, repeat, starmap
from operator import eq, itemgetter, lt
from typing import Iterable

from .mpoly import MPoly

Edge = tuple[int, int]

MAX_VERTICES = 10**7
"""The largest vertex count a graph may have.  It is checked before anything
of that size is allocated, so a huge header or ladder size is refused at once
with a ``ValueError`` rather than exhausting memory."""

# The text to_edgelist writes: ASCII digits only ([0-9], not \d, which also
# matches other scripts' digits), single spaces, LF after every line.
_CANONICAL = re.compile(r"p [0-9]+ [0-9]+\n(?:[0-9]+ [0-9]+\n)*")


class Graph:
    """Immutable simple graph with contiguous integer vertex identifiers."""

    __slots__ = ("_n", "_edges", "_degrees")

    def __init__(self, vertex_count: int, edges: Iterable[Edge] = ()):
        if type(vertex_count) is not int or vertex_count < 0:
            raise ValueError(f"vertex_count must be a non-negative integer, got {vertex_count!r}")
        if vertex_count > MAX_VERTICES:
            raise ValueError(f"vertex_count {vertex_count} exceeds the limit of {MAX_VERTICES}")
        # Checked in bulk rather than edge by edge, ids first so that the
        # sort only ever compares ints (``type(x) is int`` also rejects
        # bools).  Edges already given as (smaller, larger), as line_graph,
        # build_ladder and canonical edge lists give them, hold no loop and
        # need no flipping.  On the sorted list a loop is an edge that is not
        # strictly ordered, and a duplicate is equal to its sorted neighbour.
        edges = list(edges)
        if not all(type(u) is int and type(v) is int for u, v in edges):
            u, v = next((u, v) for u, v in edges if type(u) is not int or type(v) is not int)
            raise ValueError(f"vertex identifiers must be integers, got ({u!r}, {v!r})")
        ordered = all(starmap(lt, edges))
        if ordered:
            pairs = list(map(tuple, edges))  # the very objects when they are tuples
        else:
            pairs = [(u, v) if u < v else (v, u) for u, v in edges]
        pairs.sort()
        if pairs and (pairs[0][0] < 0 or max(map(itemgetter(1), pairs)) >= vertex_count):
            u, v = next(e for e in pairs if e[0] < 0 or e[1] >= vertex_count)
            raise ValueError(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
        if not ordered and not all(starmap(lt, pairs)):
            u = next(u for u, v in pairs if u == v)
            raise ValueError(f"self-loop at vertex {u}")
        if any(map(eq, pairs, islice(pairs, 1, None))):
            u, v = next(a for a, b in zip(pairs, islice(pairs, 1, None)) if a == b)
            raise ValueError(f"parallel edge ({u}, {v})")
        counts = Counter(chain.from_iterable(pairs))
        self._n = vertex_count
        self._edges: tuple[Edge, ...] = tuple(pairs)
        self._degrees = tuple(map(counts.get, range(vertex_count), repeat(0)))

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

    def degrees(self) -> tuple[int, ...]:
        """Degree of every vertex, indexed by vertex identifier."""
        return self._degrees

    def m_polynomial(self) -> MPoly:
        """Return the M-polynomial: one term ``m_ij * x^i y^j`` per degree pair.

        ``m_ij`` counts the edges whose endpoint degrees are ``i <= j``; the
        coefficients sum to the number of edges.
        """
        d = self._degrees
        pairs = ((d[u], d[v]) if d[u] <= d[v] else (d[v], d[u]) for u, v in self._edges)
        return MPoly(Counter(pairs))

    def line_m_polynomial(self) -> MPoly:
        """Return the M-polynomial of the line graph, without building it.

        The line-graph vertex ``wx`` has degree ``d_w + d_x - 2`` and the
        line-graph edges are the pairs of edges sharing an endpoint, so each
        vertex ``w`` adds ``C(c_a, 2)`` to ``(a, a)`` and ``c_a * c_b`` to
        ``(a, b)``, ``a < b``, where ``c_k`` counts its edges of line degree
        ``k``.  That tally depends only on ``w``'s sorted neighbour degrees
        (``d_w`` of them), so it is done once per distinct profile, times
        its multiplicity.  Only vertices with edges get a profile: O(E) memory.
        """
        d = self._degrees
        neighbours = defaultdict(list)
        for u, v in self._edges:
            neighbours[u].append(d[v])
            neighbours[v].append(d[u])
        counts = {}
        for profile, mult in Counter(map(tuple, map(sorted, neighbours.values()))).items():
            shift = len(profile) - 2
            # (line degree, count) per run of equal neighbour degrees, ascending
            runs = [(shift + x, len(list(run))) for x, run in groupby(profile)]
            for a, c in runs:
                if c > 1:
                    counts[a, a] = counts.get((a, a), 0) + mult * c * (c - 1) // 2
            for (a, c_a), (b, c_b) in combinations(runs, 2):
                counts[a, b] = counts.get((a, b), 0) + mult * c_a * c_b
        return MPoly(counts)

    def line_graph(self) -> "Graph":
        """Return the line graph.

        Result vertices are this graph's edges numbered in ascending
        lexicographic order; two of them are adjacent iff the underlying
        edges share an endpoint.  In a simple graph two distinct edges share
        at most one endpoint, so collecting the pairs incident to each
        vertex produces every line-graph edge exactly once.  Only vertices
        with edges get an incidence list: O(E) memory.
        """
        incident = defaultdict(list)
        for index, (u, v) in enumerate(self._edges):
            incident[u].append(index)
            incident[v].append(index)
        line_edges = [pair for around in incident.values() for pair in combinations(around, 2)]
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
        """Parse the edge-list text format produced by :meth:`to_edgelist`.

        Text in exactly that canonical form is parsed in bulk.  Anything
        else -- CR or blank lines, other blanks, signs, underscores, a
        missing final newline, a wrong edge count, an id too long for
        ``int()`` -- goes through the per-line parser, which accepts what
        ``int()`` accepts on each field and names the offending line.
        """
        if _CANONICAL.fullmatch(text):
            try:
                numbers = list(map(int, text[2:].split()))
            except ValueError:  # an id past int()'s digit limit: the line parser names it
                pass
            else:
                if len(numbers) == 2 * numbers[1] + 2:  # else the line parser reports the count
                    ids = islice(numbers, 2, None)
                    return cls(numbers[0], list(zip(ids, ids)))
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
            try:
                u, v = line.split()
                edges.append((int(u), int(v)))
            except ValueError:
                raise ValueError(f"malformed edge line {line!r}") from None
        return cls(vertex_count, edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __repr__(self) -> str:
        return f"Graph(vertex_count={self._n}, edges={len(self._edges)})"
