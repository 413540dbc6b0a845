"""Inputs that more than one test module uses; test modules import no other."""

from functools import lru_cache
from pathlib import Path

from hypothesis import strategies as st

from mladder import Graph, build_ladder

EXACT_ALPHAS = (-2, -1, 0, 1, 2)
FLOAT_ALPHAS = (-0.5, 0.5)

# A hub of degree 22, pendant edges, isolated vertices, 18 degree pairs in its line graph.
IRREGULAR_FILE = Path(__file__).parent / "data" / "irregular.edgelist"
IRREGULAR = Graph.from_edgelist(IRREGULAR_FILE.read_text())


def path_graph(k):
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k):
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def star_graph(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


@lru_cache(maxsize=1)
def corpus():
    graphs = []
    for m in range(4, 13):
        for n in range(2, 11):
            g = build_ladder(m, n)
            graphs.append(g)
            graphs.append(g.line_graph())
    graphs += [path_graph(k) for k in range(2, 11)]
    graphs += [cycle_graph(k) for k in range(3, 11)]
    graphs += [star_graph(k) for k in range(3, 7)]
    return graphs


@st.composite
def simple_graphs(draw):
    k = draw(st.integers(2, 14))
    pairs = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=40, unique_by=lambda e: (min(e), max(e))))
    return Graph(k, edges)


HUGE_ID = "1" * 5000  # past int()'s default limit of 4300 digits


@st.composite
def messy_edgelist_texts(draw):
    """Edge-list text, canonical or not: ids in int()'s other spellings, other
    blanks and line ends, blank lines, wrong counts, no final newline."""
    number = st.integers(0, 9).map(str) | st.sampled_from(["+1", "1_0", "007", "-1", "x", HUGE_ID])
    pairs = draw(st.lists(st.tuples(number, number), max_size=8))
    declared = draw(st.sampled_from([str(len(pairs)), "0", "3", "+2", HUGE_ID]))
    blank = st.sampled_from([" ", "\t", "  "])
    end = draw(st.sampled_from(["\n", "\r\n", "\n\n", "\n \n"]))
    lines = [f"p {draw(st.sampled_from(['10', '4', '010']))} {declared}"]
    lines += [f"{u}{draw(blank)}{v}" for u, v in pairs]
    return end.join(lines) + draw(st.sampled_from([end, ""]))


@st.composite
def zero_padded_edgelist_texts(draw):
    """Canonical text of a graph with one id, or the header's vertex count,
    written with a leading zero: canonical in form, but refused by the JSON
    read, so only the fallback to the per-line parser reads it."""
    lines = draw(simple_graphs()).to_edgelist().splitlines()
    row = draw(st.integers(0, len(lines) - 1))
    fields = lines[row].split(" ")
    column = draw(st.integers(1 if row == 0 else 0, len(fields) - 1))
    fields[column] = "0" + fields[column]
    lines[row] = " ".join(fields)
    return "\n".join(lines) + "\n"


def edgelist_texts():
    """Edge-list text of either kind above, each about half the time."""
    return messy_edgelist_texts() | zero_padded_edgelist_texts()
