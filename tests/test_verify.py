import json
from fractions import Fraction

import pytest

import mladder.verify
from mladder import (
    CaseResult,
    InvalidParams,
    VerificationReport,
    build_ladder,
    indices_from_edges,
    indices_from_mpoly,
    prop41_indices,
    prop42_indices,
    values_equal,
    verify_all,
)

PROPS = ("prop41", "prop42")


def test_values_equal():
    assert values_equal(Fraction(1, 3), Fraction(1, 3))
    assert not values_equal(Fraction(1, 3), Fraction(1, 2))
    assert values_equal(2.0, 2.0 * (1 + 1e-15))
    assert not values_equal(2.0, 2.0 * (1 + 1e-9))
    assert values_equal(Fraction(2), 2.0)
    inf = float("inf")
    assert values_equal(inf, inf)
    assert not values_equal(1.0, inf)
    assert not values_equal(inf, 0.0)
    assert not values_equal(inf, -inf)
    assert not values_equal(Fraction(10) ** 300, inf)


def test_thm31_matches_oracle_above_n2():
    report = verify_all(subjects=("thm31",), m_range=(4, 12), n_range=(3, 10))
    assert report.summary["thm31"]["mismatch"] == 0
    assert report.theorem_mismatches() == 0


def test_thm31_mismatch_at_n2():
    report = verify_all(subjects=("thm31",), m_range=(5, 5), n_range=(2, 2))
    rows = {c.quantity: c for c in report.cases}
    bad = rows["x^4*y^4"]
    assert bad.verdict == "mismatch"
    assert bad.computed == Fraction(0)
    assert bad.closed_form == Fraction(-4)
    assert report.theorem_mismatches() > 0


def test_thm32_matches_oracle():
    report = verify_all(subjects=("thm32",), m_range=(4, 10), n_range=(4, 10))
    assert report.summary["thm32"]["mismatch"] == 0


def test_thm32_skips_below_stated_range():
    report = verify_all(subjects=("thm32",), m_range=(4, 4), n_range=(2, 4))
    skipped = [c for c in report.cases if c.verdict == "out-of-domain"]
    assert [(c.m, c.n) for c in skipped] == [(4, 2), (4, 3)]
    assert all(c.quantity == "all" for c in skipped)
    assert all(c.computed is None and c.closed_form is None for c in skipped)


def test_propositions_surface_mismatches():
    report = verify_all(subjects=PROPS, m_range=(7, 7), n_range=(3, 3))
    rows = {(c.subject, c.quantity): c for c in report.cases}
    m1 = rows[("prop41", "m1")]
    assert m1.computed == Fraction(204)
    assert m1.closed_form == Fraction(162)
    assert m1.verdict == "mismatch"
    assert rows[("prop42", "all")].verdict == "out-of-domain"


def test_prop42_m1_agrees():
    report = verify_all(subjects=PROPS, m_range=(4, 10), n_range=(4, 10))
    m1_rows = [c for c in report.cases if c.subject == "prop42" and c.quantity == "m1"]
    assert m1_rows
    assert all(c.verdict == "match" for c in m1_rows)


def test_proposition_mismatches_do_not_gate():
    report = verify_all(subjects=PROPS, m_range=(7, 7), n_range=(3, 3))
    assert report.summary["prop41"]["mismatch"] > 0
    assert report.theorem_mismatches() == 0


def test_cases_are_sorted():
    report = verify_all()
    keys = [(c.subject, c.m, c.n, c.quantity) for c in report.cases]
    assert keys == sorted(keys)


def test_report_is_deterministic():
    a = verify_all(alphas=(1, -1, 0.5))
    b = verify_all(alphas=(1, -1, 0.5))
    assert a.to_json() == b.to_json()
    assert a.to_text() == b.to_text()


def test_json_shape():
    report = verify_all(subjects=("thm31",), m_range=(5, 5), n_range=(3, 3))
    data = json.loads(report.to_json())
    assert isinstance(data, list)
    record = data[0]
    assert set(record) == {"m", "n", "subject", "quantity", "computed",
                           "closed_form", "verdict"}
    assert record["computed"] == {"num": 8, "den": 1}


def test_text_layout():
    report = verify_all(subjects=("thm31",), m_range=(5, 5), n_range=(3, 3))
    lines = report.to_text().splitlines()
    assert lines[0].split() == ["subject", "m", "n", "quantity", "oracle",
                                "paper", "verdict"]
    assert "summary:" in lines


def test_summary_is_counted_from_the_cases():
    report = VerificationReport(cases=(
        CaseResult(5, 2, "thm31", "x^4*y^4", Fraction(0), Fraction(-4), "mismatch"),
        CaseResult(7, 3, "prop41", "m1", Fraction(204), Fraction(204), "match"),
    ))
    assert report.summary == {
        "thm31": {"match": 0, "mismatch": 1, "out-of-domain": 0},
        "prop41": {"match": 1, "mismatch": 0, "out-of-domain": 0},
    }
    assert report.theorem_mismatches() == 1
    assert report.to_text().endswith(
        "summary:\n"
        "  prop41: 1 match, 0 mismatch, 0 out-of-domain\n"
        "  thm31: 0 match, 1 mismatch, 0 out-of-domain\n"
    )


def test_empty_report_text():
    # With no cases each column is as wide as its header.
    assert verify_all(subjects=()).to_text() == (
        "subject  m  n  quantity  oracle  paper  verdict\n\nsummary:\n"
    )


def test_rejects_bad_ranges():
    with pytest.raises(InvalidParams):
        verify_all(subjects=("thm31",), m_range=(6, 4), n_range=(3, 3))
    with pytest.raises(InvalidParams):
        verify_all(subjects=("thm31",), m_range=(3, 5), n_range=(3, 3))
    with pytest.raises(InvalidParams):
        verify_all(subjects=("thm32",), m_range=(4, 4), n_range=(1, 4))


def test_duplicate_alphas_are_checked_once():
    report = verify_all(subjects=PROPS, m_range=(4, 4), n_range=(4, 4), alphas=(1, 1.0))
    assert sum(report.summary["prop41"].values()) == 6
    assert report == verify_all(subjects=PROPS, m_range=(4, 4), n_range=(4, 4), alphas=(1,))


def test_alphas_are_used_as_given():
    def grid(alphas):
        return verify_all(alphas, PROPS, (4, 4), (4, 5))

    # Each normalized alpha once per subject and point: the cases of the
    # deduplicated alphas.
    report = grid([2.0, 2, 0.5, 1.0])
    quantities = [c.quantity for c in report.cases if c.subject == "prop41" and c.n == 4]
    assert [q for q in quantities if q.startswith("r_alpha")] == [
        "r_alpha[0.5]", "r_alpha[1]", "r_alpha[2]"]  # the report sorts its cases
    assert report == grid((2, 0.5, 1))
    # No alphas give no Randic rows; a generator gives every point its alphas.
    assert not any("alpha" in c.quantity for c in grid([]).cases)
    assert grid(a for a in (1, 2)) == grid((1, 2))


def test_rejects_unknown_subject():
    with pytest.raises(InvalidParams, match=r"unknown subject 'bogus'.*thm31, thm32, prop41, prop42"):
        verify_all(subjects=("bogus",))


# Each index producer, and verify_all on a grid with and without Randic rows.
each_producer = pytest.mark.parametrize("produce", [
    lambda a: indices_from_edges(build_ladder(5, 3), [a]),
    lambda a: indices_from_mpoly(build_ladder(5, 3).m_polynomial(), [2, a]),
    lambda a: prop41_indices(5, 3, [a]),
    lambda a: prop42_indices(5, 4, [a, 1]),
    lambda a: verify_all([a], PROPS, (4, 4), (4, 4)),
    lambda a: verify_all([1, a], ("thm31",), (4, 4), (3, 3)),
], ids=["edges", "mpoly", "prop41", "prop42", "verify-props", "verify-thm31"])


def refuse_to_build(monkeypatch):
    def refuse(m, n):
        raise AssertionError("a grid point was built")

    monkeypatch.setattr(mladder.verify, "build_ladder", refuse)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")], ids=repr)
@each_producer
def test_non_finite_alpha_is_refused(monkeypatch, produce, alpha):
    # A NaN would make a "mismatch" of every Randic row, and two infinities a "match".
    # verify_all refuses it before it builds anything, even with no Randic rows to make.
    refuse_to_build(monkeypatch)
    with pytest.raises(ValueError, match=f"^alpha must be finite, got {alpha!r}$"):
        produce(alpha)


@pytest.mark.parametrize("alpha", [True, False], ids=repr)
@each_producer
def test_bool_alpha_is_refused(monkeypatch, produce, alpha):
    # True would key a Randic value, and label its row, as r_alpha[True].
    refuse_to_build(monkeypatch)
    with pytest.raises(ValueError, match=f"^alpha must be an int or a float, not a bool, got {alpha}$"):
        produce(alpha)


def test_grid_edge_budget_holds_exactly(monkeypatch):
    # Each subject counts its ladders, and a line-graph subject its line graphs too.
    m_range, n_range = (4, 6), (4, 5)
    ladders = [build_ladder(m, n) for m in range(4, 7) for n in range(4, 6)]
    total = sum(2 * g.edge_count + g.line_graph().edge_count for g in ladders)
    built = []

    def counting_build_ladder(m, n):
        built.append((m, n))
        return build_ladder(m, n)

    monkeypatch.setattr(mladder.verify, "build_ladder", counting_build_ladder)
    monkeypatch.setattr(mladder.verify, "MAX_SIZE", total)
    report = verify_all((), ("thm31", "thm32"), m_range, n_range)
    assert report.theorem_mismatches() == 0 and len(built) == len(ladders)
    built.clear()
    monkeypatch.setattr(mladder.verify, "MAX_SIZE", total - 1)
    with pytest.raises(InvalidParams, match=f" {total} edges in all, more than the limit of {total - 1};"):
        verify_all((), ("thm31", "thm32"), m_range, n_range)
    assert built == []
