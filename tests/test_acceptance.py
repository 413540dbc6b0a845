"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each."""

import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb

from mladder import (
    build_ladder,
    indices_from_edges,
    indices_from_mpoly,
    thm31_mpoly,
    thm32_mpoly,
    values_equal,
    verify_all,
)

from conftest import cycle_graph, path_graph, star_graph

THM31_GRID = [(m, n) for m in range(4, 13) for n in range(3, 11)]
THM32_GRID = [(m, n) for m in range(4, 11) for n in range(4, 11)]
EXACT_ALPHAS = (-2, -1, 0, 1, 2)
FLOAT_ALPHAS = (-0.5, 0.5)


def _report(num, label, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}")
    assert ok, f"criterion {num}: {label}"


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


def test_criterion_1_ladder_mpoly_closed_form():
    start = time.perf_counter()
    ok = all(
        build_ladder(m, n).m_polynomial() == thm31_mpoly(m, n)
        for m, n in THM31_GRID
    )
    elapsed = time.perf_counter() - start
    _report(1, "ladder M-polynomial matches closed form on full grid", ok)
    _report(1, f"grid completed in {elapsed:.3f}s (< 1s)", elapsed < 1.0)


def test_criterion_2_line_graph_mpoly_closed_form():
    start = time.perf_counter()
    ok = all(
        build_ladder(m, n).line_graph().m_polynomial() == thm32_mpoly(m, n)
        for m, n in THM32_GRID
    )
    elapsed = time.perf_counter() - start
    _report(2, "line-graph M-polynomial matches closed form on full grid", ok)
    _report(2, f"grid completed in {elapsed:.3f}s (< 2s)", elapsed < 2.0)


def test_criterion_3_spot_values():
    ladder = build_ladder(7, 3).m_polynomial()
    expected_ladder = {(3, 3): 12, (3, 4): 12, (4, 4): 6}
    line = build_ladder(5, 6).line_graph().m_polynomial()
    expected_line = {(4, 4): 8, (4, 5): 16, (5, 6): 24, (6, 6): 72}
    ok = (
        ladder.terms == {k: Fraction(v) for k, v in expected_ladder.items()}
        and ladder == thm31_mpoly(7, 3)
        and line.terms == {k: Fraction(v) for k, v in expected_line.items()}
        and line == thm32_mpoly(5, 6)
    )
    _report(3, "spot values at (7,3) and line graph of (5,6)", ok)


def test_criterion_4_operator_definition_consistency():
    ok = True
    for g in corpus():
        p = g.m_polynomial()
        from_edges = indices_from_edges(g, EXACT_ALPHAS + FLOAT_ALPHAS)
        from_mpoly = indices_from_mpoly(p, EXACT_ALPHAS + FLOAT_ALPHAS)
        ok = ok and (
            from_edges.m1 == from_mpoly.m1
            and from_edges.m2 == from_mpoly.m2
            and from_edges.mm2 == from_mpoly.mm2
            and from_edges.sdd == from_mpoly.sdd
        )
        for a in EXACT_ALPHAS:
            ok = ok and from_edges.r_alpha[a] == from_mpoly.r_alpha[a]
            ok = ok and from_edges.rr_alpha[a] == from_mpoly.rr_alpha[a]
        for a in FLOAT_ALPHAS:
            ok = ok and values_equal(from_edges.r_alpha[a], from_mpoly.r_alpha[a])
            ok = ok and values_equal(from_edges.rr_alpha[a], from_mpoly.rr_alpha[a])
    _report(4, "edge-sum and operator routes agree on the whole corpus", ok)


def test_criterion_5_structural_invariants():
    ok = True
    for g in corpus():
        degrees = g.degrees()
        ok = ok and sum(degrees) == 2 * g.edge_count
        ok = ok and g.m_polynomial().eval_at_one() == g.edge_count
        line = g.line_graph()
        ok = ok and line.edge_count == sum(comb(d, 2) for d in degrees)
        line_degrees = line.degrees()
        ok = ok and all(
            line_degrees[idx] == degrees[u] + degrees[v] - 2
            for idx, (u, v) in enumerate(g.edges)
        )
    _report(5, "handshake, line-graph size law, degree transfer, edge totals", ok)


def test_criterion_6_proposition_report_surfaces_mismatches():
    report = verify_all(subjects=("prop41", "prop42"))
    again = verify_all(subjects=("prop41", "prop42"))
    ok = report.to_json() == again.to_json()
    in_domain = [c for c in report.cases if c.verdict != "out-of-domain"]
    ok = ok and all(
        c.computed is not None and c.closed_form is not None for c in in_domain
    )
    expected = {"m1", "m2", "mm2", "sdd", "r_alpha[1]", "rr_alpha[1]"}
    for subject, (m_lo, m_hi), (n_lo, n_hi) in (
        ("prop41", (4, 12), (2, 10)),
        ("prop42", (4, 10), (4, 10)),
    ):
        for m in range(m_lo, m_hi + 1):
            for n in range(n_lo, n_hi + 1):
                seen = {c.quantity for c in in_domain
                        if c.subject == subject and c.m == m and c.n == n}
                ok = ok and seen == expected
    probe = {c.quantity: c for c in in_domain
             if c.subject == "prop41" and (c.m, c.n) == (7, 3)}
    ok = ok and probe["m1"].closed_form == 162
    ok = ok and probe["m1"].computed == 204
    ok = ok and probe["m1"].verdict == "mismatch"
    _report(6, "proposition report is complete, deterministic, and "
               "surfaces the (7,3) first-Zagreb discrepancy", ok)


def test_criterion_7_degenerate_domain_probe():
    report = verify_all(subjects=("thm31",), m_range=(4, 12), n_range=(2, 2))
    ok = True
    for m in range(4, 13):
        case = next(c for c in report.cases
                    if c.m == m and c.quantity == "x^4*y^4")
        ok = ok and case.verdict == "mismatch" and case.closed_form < 0
        g = build_ladder(m, 2)
        ok = ok and Counter(g.degrees()) == {3: 2 * (m - 1)}
        ok = ok and g.edge_count == 3 * (m - 1)
    _report(7, "n=2 probe: negative coefficient flagged, ladder is 3-regular "
               "with 3(m-1) edges", ok)


def test_criterion_8_full_default_run_fast_and_deterministic():
    start = time.perf_counter()
    first = verify_all()
    elapsed = time.perf_counter() - start
    second = verify_all()
    ok = first.to_json() == second.to_json() and first.to_text() == second.to_text()
    _report(8, "default verification run is byte-deterministic", ok)
    _report(8, f"default run completed in {elapsed:.3f}s (< 10s)", elapsed < 10.0)
