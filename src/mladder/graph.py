"""Simple undirected graph kernel.

Vertices are the integers ``0 .. vertex_count-1``; edges are unordered
pairs with no loops and no multiplicity (duplicates are rejected at
construction, not merged).  A graph has at most :data:`MAX_SIZE` vertices
and at most :data:`MAX_SIZE` edges.  On top of that sit the degree tally,
the M-polynomial (edges tallied by their endpoint-degree pairs, in a table
indexed by the ranks of the distinct degrees, O(E) since distinct positive
degrees sum to at most ``2E``) and the line-graph transform.  The line
graph's M-polynomial is also tallied without building it, once per
distinct neighbour-degree profile of a vertex; only vertices with edges
have one, so memory stays O(E).  Short profiles are grouped by length and
multiplicity, and each group's degree pairs are counted in one C-level
pass; long ones, such as a hub's, are tallied by runs of equal degrees,
whose pairs are far fewer.  Every edge-list text is read by one scan for
its non-blank lines, whatever the line ends: the first is its header,
checked against the limit before any later line is split or parsed.  A
text in the form that :meth:`Graph.to_edgelist` writes is recognised
whole: it ends in LF, holds one LF more than its header declares edges
(counted without a copy), and with its ASCII digits deleted is ``"p  \\n"``
and then one ``" \\n"`` per edge.  Its ids are read in bulk by the
standard library's JSON number scanner.  Any other text, and one with an
id JSON refuses (a leading zero, or past ``int()``'s digit limit), goes on
line by line from the same scan, which keeps no more lines than the header
declares, only counts any further ones, and names the offending line.

Each input is checked once, where it enters.  ``Graph(vertex_count,
edges)`` is the constructor for edges from outside the program, a library
caller's or an edge list's, and checks them and both counts against the
limit.  The package's own generators, :func:`mladder.ladder.build_ladder`
and :meth:`Graph.line_graph`, carry no such checks: each makes sorted
``(u, v)``, ``u < v`` edges and their degrees by construction, checks its
edge count against the limit before allocating any of them, and stores
them through :meth:`Graph._assemble`, which checks nothing.  Tests compare
both generators with what ``Graph(...)`` makes of the same edges.
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict
from itertools import chain, combinations, groupby, islice, repeat, starmap
from math import comb
from operator import eq, itemgetter, lt
from typing import Iterable

from .mpoly import MPoly

Edge = tuple[int, int]

MAX_SIZE = 10**7
"""The largest vertex count and the largest edge count any graph may have.
Each graph maker checks it once, from a count it has before it allocates
anything of that size, so a huge header, edge list, ladder or line graph is
refused with a ``ValueError`` rather than exhausting memory."""

# The longest neighbour-degree profile whose degree pairs line_m_polynomial
# counts one by one, at C level; longer ones are tallied by runs of equal
# degrees in Python.  Measured with Python 3.11 on a 2 GHz Xeon: a counted
# pair costs about 0.09 us, so a 16-entry profile's 120 pairs cost 10-11 us,
# about what the run loop costs once most of its degrees differ (12 us for
# 12 distinct ones), while a 48-entry profile's 1,128 pairs cost 96 us
# against 19-65 us for its runs, and a 300-leaf hub's would cost 4 ms.
_SHORT_PROFILE = 16
# Deletes the ASCII digits only: other scripts' digits, like every other
# character, survive it.
_NO_DIGITS = str.maketrans("", "", "0123456789")
# A canonical body with commas for its blanks is a JSON array body.
_TO_COMMAS = str.maketrans(" \n", ",,")
# The line ends that str.splitlines() splits at; "\r\n" is one line end.
_LINE_ENDS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# One line of an edge list, without its line end.  re.compile compiles it on
# first use and caches it, so a command that reads no edge list does not pay
# for it.
_LINE = f"[^{_LINE_ENDS}]+"


class Graph:
    """Immutable simple graph with contiguous integer vertex identifiers."""

    __slots__ = ("_n", "_edges", "_degrees")

    def __init__(self, vertex_count: int, edges: Iterable[Edge] = ()):
        if type(vertex_count) is not int or vertex_count < 0:
            raise ValueError(f"vertex_count must be a non-negative integer, got {vertex_count!r}")
        if vertex_count > MAX_SIZE:
            raise ValueError(f"vertex_count {vertex_count} exceeds the limit of {MAX_SIZE}")
        edges = list(edges)
        if len(edges) > MAX_SIZE:
            raise ValueError(f"the graph has {len(edges)} edges, more than the limit of {MAX_SIZE}")
        # Checked in bulk rather than edge by edge, ids first so that the
        # sort only ever compares ints (``type(x) is int`` also rejects
        # bools).  Edges already given as (smaller, larger), as canonical
        # edge lists give them, hold no loop and need no flipping.  On the
        # sorted list a loop is an edge that is not strictly ordered, and a
        # duplicate is equal to its sorted neighbour.
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
        degrees = [0] * vertex_count
        for u, v in pairs:
            degrees[u] += 1
            degrees[v] += 1
        self._n = vertex_count
        self._edges: tuple[Edge, ...] = tuple(pairs)
        self._degrees = tuple(degrees)

    @classmethod
    def _assemble(cls, vertex_count: int, edges: tuple[Edge, ...],
                  degrees: tuple[int, ...]) -> "Graph":
        """A graph from canonical data, stored as given, with no check.

        For the package's generators only: ``edges`` is a sorted tuple of
        distinct ``(u, v)`` pairs with ``0 <= u < v < vertex_count``, and
        ``degrees`` holds every vertex's degree.  Each generator has already
        checked its counts against :data:`MAX_SIZE`; tests check each
        generator against ``Graph(vertex_count, edges)``.
        """
        graph = object.__new__(cls)
        graph._n, graph._edges, graph._degrees = vertex_count, edges, degrees
        return graph

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
        coefficients sum to the number of edges.  Edges are counted in a
        ``k x k`` table indexed by the ranks of the ``k`` distinct degrees,
        so no pair is made or hashed per edge; ``(a, b)`` and ``(b, a)`` are
        folded together when the table is read.  Distinct positive degrees
        sum to at most ``2E``, so ``k <= 2 * sqrt(E) + 1`` and the table is
        O(E).
        """
        d = self._degrees
        values = sorted(set(d))
        rank = {x: k for k, x in enumerate(values)}
        rows = [[0] * len(values) for _ in values]
        for u, v in self._edges:
            rows[rank[d[u]]][rank[d[v]]] += 1
        counts = {}
        for i, a in enumerate(values):
            for j in range(i, len(values)):
                c = rows[i][j] + rows[j][i] if j > i else rows[i][i]
                if c:
                    counts[a, values[j]] = c
        return MPoly(counts)

    def line_m_polynomial(self) -> MPoly:
        """Return the M-polynomial of the line graph, without building it.

        The line-graph vertex ``wx`` has degree ``d_w + d_x - 2`` and the
        line-graph edges are the pairs of edges sharing an endpoint, so each
        vertex ``w`` adds ``C(c_a, 2)`` to ``(a, a)`` and ``c_a * c_b`` to
        ``(a, b)``, ``a < b``, where ``c_k`` counts its edges of line degree
        ``k``.  That tally depends only on ``w``'s sorted neighbour degrees
        (``d_w`` of them), so it is done once per distinct profile, times
        its multiplicity.  Only vertices with edges get a profile: O(E) memory.

        A profile of at most ``_SHORT_PROFILE`` entries joins the group of
        its length and multiplicity, and each group counts the degree pairs
        ``(x, y)``, ``x <= y``, of all its profiles in one ``Counter`` over
        ``combinations(profile, 2)``, which yields ``(x, x)`` ``C(c_x, 2)``
        times; each count, times the multiplicity, goes to
        ``(x + d_w - 2, y + d_w - 2)``.  A longer
        profile, whose ``C(d_w, 2)`` pairs would outnumber its runs of
        equal degrees by far, adds ``C(c_a, 2)`` and ``c_a * c_b`` run by run.
        """
        d = self._degrees
        neighbours = defaultdict(list)
        for u, v in self._edges:
            neighbours[u].append(d[v])
            neighbours[v].append(d[u])
        counts = {}
        short = defaultdict(list)  # (shift, multiplicity) -> its short profiles
        for profile, mult in Counter(map(tuple, map(sorted, neighbours.values()))).items():
            shift = len(profile) - 2
            if len(profile) <= _SHORT_PROFILE:
                short[shift, mult].append(profile)
                continue
            # (line degree, count) per run of equal neighbour degrees, ascending
            runs = [(shift + x, len(list(run))) for x, run in groupby(profile)]
            for a, c in runs:
                if c > 1:
                    counts[a, a] = counts.get((a, a), 0) + mult * c * (c - 1) // 2
            for (a, c_a), (b, c_b) in combinations(runs, 2):
                counts[a, b] = counts.get((a, b), 0) + mult * c_a * c_b
        for (shift, mult), profiles in short.items():
            pairs = chain.from_iterable(map(combinations, profiles, repeat(2)))
            for (x, y), c in Counter(pairs).items():
                key = shift + x, shift + y
                counts[key] = counts.get(key, 0) + mult * c
        return MPoly(counts)

    def line_graph(self) -> "Graph":
        """Return the line graph.

        Result vertices are this graph's edges numbered in ascending
        lexicographic order; two of them are adjacent iff the underlying
        edges share an endpoint.  In a simple graph two distinct edges share
        at most one endpoint, so collecting the pairs incident to each
        vertex produces every line-graph edge exactly once.  Only vertices
        with edges get an incidence list: O(E) memory.  A vertex of degree
        ``d`` joins ``C(d, 2)`` pairs, and a line graph of more than
        :data:`MAX_SIZE` edges is refused with a ``ValueError`` before any
        pair is made; its vertices are this graph's edges, so their count is
        within the limit already.  The pairs are sorted, and the vertex of
        edge ``(u, v)`` has degree ``d_u + d_v - 2``.
        """
        size = sum(map(comb, filter(None, self._degrees), repeat(2)))
        if size > MAX_SIZE:
            raise ValueError(f"the line graph has {size} edges, more than the limit of {MAX_SIZE}")
        incident = defaultdict(list)
        for index, (u, v) in enumerate(self._edges):
            incident[u].append(index)
            incident[v].append(index)
        # Each index list ascends, so every pair is (smaller, larger).  The
        # pairs (i, j) of edge i = (a, b), a < b, come from a, whose later
        # edges (a, x) have x > b, and then from b, whose later edges (y, b)
        # with y > a or (b, x) sort after all of those.  So with the vertices
        # taken in ascending order, pairs with equal first elements already
        # ascend in their second, and a stable sort on the first element
        # alone leaves the pairs in lexicographic order.
        pairs = [pair for w in sorted(incident) for pair in combinations(incident[w], 2)]
        pairs.sort(key=itemgetter(0))
        d = self._degrees
        degrees = tuple(d[u] + d[v] - 2 for u, v in self._edges)
        return Graph._assemble(len(self._edges), tuple(pairs), degrees)

    def to_edgelist(self) -> str:
        """Serialize to the edge-list text format.

        First line ``p <vertex_count> <edge_count>``, then one ``u v`` line
        per edge in ascending lexicographic order, LF line endings.
        """
        # The last, empty piece ends the text with a newline without copying it.
        return "\n".join([f"p {self._n} {len(self._edges)}",
                          *(f"{u} {v}" for u, v in self._edges), ""])

    @classmethod
    def from_edgelist(cls, text: str) -> "Graph":
        """Parse the edge-list text format produced by :meth:`to_edgelist`.

        One scan yields the lines that are not blank, whatever the line
        ends.  The first is the header; one that declares more than
        :data:`MAX_SIZE` vertices or edges is refused before any line after
        it is split or parsed.  A whole text in the canonical form -- ASCII
        digits, single spaces, LF after every line and no other line end,
        as many edge lines as the header declares -- is parsed in bulk.
        It is told by the text alone: it ends in LF, holds E + 1 LFs, and
        with its digits deleted is ``"p  \\n"`` then ``" \\n"`` per edge.  Any
        other text -- CR or blank lines, other blanks, signs, underscores, a
        missing final newline, a wrong edge count, an id with a leading zero
        or too long for ``int()`` -- goes on from the same scan through the
        per-line parser, which accepts what ``int()`` accepts on each field
        and names the offending line.
        """
        # The non-blank lines, as splitlines() would give them: a maximal run
        # of characters that are not line ends.  The first is the header; of
        # the rest at most E are kept, and any further ones are only counted,
        # so a long body costs no memory per line.
        lines = filter(str.strip, map(itemgetter(0), re.compile(_LINE).finditer(text)))
        head = next(lines, None)
        if head is None:
            raise ValueError("empty edge-list input")
        fields = head.split()
        if len(fields) != 3 or fields[0] != "p":
            raise ValueError(f"malformed header line {head!r}; expected 'p <vertices> <edges>'")
        try:
            vertex_count, edge_count = int(fields[1]), int(fields[2])
        except ValueError:
            raise ValueError(f"malformed header line {head!r}") from None
        if vertex_count > MAX_SIZE:
            raise ValueError(f"vertex_count {vertex_count} exceeds the limit of {MAX_SIZE}")
        if edge_count > MAX_SIZE:
            raise ValueError(f"the header declares {edge_count} edges, more than the limit of {MAX_SIZE}")
        # With its ASCII digits deleted, a canonical text is "p  \n" and then
        # " \n" once per edge.  Its LFs are counted first, which copies
        # nothing; the final-LF test refuses digits after the last one.  Its
        # header is its first line, so its body starts at len(head) + 1.  An
        # empty id leaves two commas or a bracket next to a comma, which JSON
        # refuses.
        if (text.endswith("\n") and text.count("\n") == edge_count + 1
                and text.translate(_NO_DIGITS) == "p  \n" + " \n" * edge_count):
            try:
                numbers = json.loads("[" + text[len(head) + 1:-1].translate(_TO_COMMAS) + "]")
            except ValueError:
                # JSON refuses a leading zero, which the line parser accepts,
                # and an id past int()'s digit limit, whose line it names.
                pass
            else:
                # JSON took 2E - 1 commas, each between two ids: 2E ids, so zip pairs every one.
                ids = iter(numbers)
                return cls(vertex_count, list(zip(ids, ids)))
        kept = list(islice(lines, max(edge_count, 0)))
        found = len(kept) + sum(1 for _ in lines)
        if found != edge_count:
            raise ValueError(f"header declares {edge_count} edges but {found} lines follow")
        edges = []
        for line in kept:
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
