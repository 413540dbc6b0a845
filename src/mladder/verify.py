"""Cross-validation of the claimed closed forms against graph enumeration.

For every grid point the harness builds the ladder (and, where relevant,
its line graph), computes the quantity of interest from the graph itself,
evaluates the corresponding closed form, and records a per-quantity
verdict.  The report stays neutral: columns are labeled "oracle" (graph
enumeration) and "paper" (the claimed expression), and proposition
disagreements are findings, not failures.  Reports are fully ordered, so
identical inputs always produce byte-identical output.

Verdicts are exact for rational quantities and use a relative tolerance
of 1e-12 for float quantities (non-integer alpha).  Grid points below a
claim's stated domain are recorded as ``out-of-domain`` rather than
compared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from . import closed_forms
from .graph import Graph
from .indices import Alpha, IndexSet, alpha_label, indices_from_edges, normalize_alpha
from .ladder import MIN_M, MIN_N, InvalidParams, build_ladder

Real = Union[Fraction, float]
Range = tuple[int, int]

REL_TOL = 1e-12

THEOREM_SUBJECTS = ("thm31", "thm32")
PROPOSITION_SUBJECTS = ("prop41", "prop42")


@dataclass(frozen=True)
class Subject:
    """What one verification subject checks, and where."""

    formula: str               # closed form's name in closed_forms, looked up per call
    line: bool                 # the claim is about the line graph, not the ladder
    min_n: int                 # smallest n the claim is stated for
    grid: tuple[Range, Range]  # default inclusive (m_range, n_range)


# Formulas are named rather than referenced so that wrapping closed_forms'
# functions after import (as the benchmark's layer trace does) covers them.
SUBJECTS = {
    "thm31": Subject("thm31_mpoly", False, 2, ((4, 12), (2, 10))),
    "thm32": Subject("thm32_mpoly", True, 4, ((4, 10), (4, 10))),
    "prop41": Subject("prop41_indices", False, 2, ((4, 12), (2, 10))),
    "prop42": Subject("prop42_indices", True, 4, ((4, 10), (4, 10))),
}


@dataclass(frozen=True)
class CaseResult:
    """One compared quantity at one grid point."""

    m: int
    n: int
    subject: str
    quantity: str
    computed: Optional[Real]
    closed_form: Optional[Real]
    verdict: str  # "match" | "mismatch" | "out-of-domain"

    def sort_key(self) -> tuple:
        return (self.subject, self.m, self.n, self.quantity)


@dataclass(frozen=True)
class VerificationReport:
    """Ordered case results plus per-subject verdict counts."""

    cases: tuple[CaseResult, ...]
    summary: dict[str, dict[str, int]]

    def theorem_mismatches(self) -> int:
        """Number of mismatching cases in theorem subjects (build-breaking)."""
        return sum(
            1
            for c in self.cases
            if c.subject in THEOREM_SUBJECTS and c.verdict == "mismatch"
        )

    def to_json(self) -> str:
        """Serialize as a JSON array of case records."""
        records = [
            {
                "m": c.m,
                "n": c.n,
                "subject": c.subject,
                "quantity": c.quantity,
                "computed": _json_value(c.computed),
                "closed_form": _json_value(c.closed_form),
                "verdict": c.verdict,
            }
            for c in self.cases
        ]
        return json.dumps(records, indent=2)

    def to_text(self) -> str:
        """Render an aligned plain-text table followed by a summary block."""
        header = ("subject", "m", "n", "quantity", "oracle", "paper", "verdict")
        rows = [
            (
                c.subject,
                str(c.m),
                str(c.n),
                c.quantity,
                _text_value(c.computed),
                _text_value(c.closed_form),
                c.verdict,
            )
            for c in self.cases
        ]
        widths = [
            max(len(header[k]), max((len(r[k]) for r in rows), default=0))
            for k in range(len(header))
        ]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
        for r in rows:
            lines.append("  ".join(f.ljust(w) for f, w in zip(r, widths)).rstrip())
        lines.append("")
        lines.append("summary:")
        for subject in sorted(self.summary):
            counts = self.summary[subject]
            lines.append(
                f"  {subject}: {counts['match']} match, {counts['mismatch']} mismatch, "
                f"{counts['out-of-domain']} out-of-domain"
            )
        return "\n".join(lines) + "\n"


def values_equal(a: Real, b: Real, rel_tol: float = REL_TOL) -> bool:
    """Exact comparison for two rationals, relative tolerance otherwise."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    fa, fb = float(a), float(b)
    if fa == fb:
        return True
    return abs(fa - fb) <= rel_tol * max(abs(fa), abs(fb))


def _json_value(value: Optional[Real]):
    if value is None:
        return None
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    return value


def _text_value(value: Optional[Real]) -> str:
    if value is None:
        return "-"
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    return repr(value)


def _make_report(cases: Iterable[CaseResult]) -> VerificationReport:
    ordered = tuple(sorted(cases, key=CaseResult.sort_key))
    summary: dict[str, dict[str, int]] = {}
    for c in ordered:
        counts = summary.setdefault(
            c.subject, {"match": 0, "mismatch": 0, "out-of-domain": 0}
        )
        counts[c.verdict] += 1
    return VerificationReport(cases=ordered, summary=summary)


def combine(reports: Sequence[VerificationReport]) -> VerificationReport:
    """Merge several reports into one, re-sorted."""
    merged: list[CaseResult] = []
    for report in reports:
        merged.extend(report.cases)
    return _make_report(merged)


def _check_ranges(m_range: Range, n_range: Range) -> None:
    m_lo, m_hi = m_range
    n_lo, n_hi = n_range
    if m_lo > m_hi or n_lo > n_hi:
        raise InvalidParams(f"empty range: m {m_range}, n {n_range}")
    if m_lo < MIN_M or n_lo < MIN_N:
        raise InvalidParams(
            f"ranges must lie within the generator domain m >= {MIN_M}, n >= {MIN_N}; "
            f"got m {m_range}, n {n_range}"
        )


def _grid(m_range: Range, n_range: Range):
    for m in range(m_range[0], m_range[1] + 1):
        for n in range(n_range[0], n_range[1] + 1):
            yield m, n


def _skip_case(subject: str, m: int, n: int) -> CaseResult:
    return CaseResult(
        m=m, n=n, subject=subject, quantity="all",
        computed=None, closed_form=None, verdict="out-of-domain",
    )


def _mpoly_cases(subject: str, m: int, n: int, graph: Graph, formula) -> list[CaseResult]:
    oracle = graph.m_polynomial().terms
    claimed = formula(m, n).terms
    cases = []
    for key in sorted(set(oracle) | set(claimed)):
        got = oracle.get(key, Fraction(0))
        want = claimed.get(key, Fraction(0))
        cases.append(
            CaseResult(
                m=m, n=n, subject=subject, quantity=f"x^{key[0]}*y^{key[1]}",
                computed=got, closed_form=want,
                verdict="match" if got == want else "mismatch",
            )
        )
    return cases


def verify_thm31(m_range: Range = SUBJECTS["thm31"].grid[0],
                 n_range: Range = SUBJECTS["thm31"].grid[1]) -> VerificationReport:
    """Compare each ladder's M-polynomial with its claimed closed form, term by term."""
    return verify_all(subjects=("thm31",), m_range=m_range, n_range=n_range)


def verify_thm32(m_range: Range = SUBJECTS["thm32"].grid[0],
                 n_range: Range = SUBJECTS["thm32"].grid[1]) -> VerificationReport:
    """Compare each line graph's M-polynomial with its claimed closed form."""
    return verify_all(subjects=("thm32",), m_range=m_range, n_range=n_range)


def _index_cases(subject: str, m: int, n: int, oracle: IndexSet,
                 formula, alphas: Sequence[Alpha]) -> list[CaseResult]:
    claimed_at = {a: formula(m, n, a) for a in alphas}
    any_claim = claimed_at[alphas[0]]
    pairs: list[tuple[str, Real, Real]] = [
        ("m1", oracle.m1, any_claim.m1),
        ("m2", oracle.m2, any_claim.m2),
        ("mm2", oracle.mm2, any_claim.mm2),
        ("sdd", oracle.sdd, any_claim.sdd),
    ]
    for a in alphas:
        label = alpha_label(a)
        pairs.append((f"r_alpha[{label}]", oracle.r_alpha[a], claimed_at[a].r_alpha))
        pairs.append((f"rr_alpha[{label}]", oracle.rr_alpha[a], claimed_at[a].rr_alpha))
    return [
        CaseResult(
            m=m, n=n, subject=subject, quantity=quantity,
            computed=got, closed_form=want,
            verdict="match" if values_equal(got, want) else "mismatch",
        )
        for quantity, got, want in pairs
    ]


def verify_propositions(m_range: Optional[Range] = None,
                        n_range: Optional[Range] = None,
                        alphas: Iterable[Alpha] = (1,)) -> VerificationReport:
    """Compare the claimed index expressions with edge-sum enumeration.

    Covers both claim sets: the ladder's (``prop41``) and its line graph's
    (``prop42``).  Ranges are handled as in :func:`verify_all`.
    """
    return verify_all(alphas, PROPOSITION_SUBJECTS, m_range, n_range)


def verify_all(alphas: Iterable[Alpha] = (1,),
               subjects: Sequence[str] = THEOREM_SUBJECTS + PROPOSITION_SUBJECTS,
               m_range: Optional[Range] = None,
               n_range: Optional[Range] = None) -> VerificationReport:
    """Run ``subjects`` over one grid and report every case.

    Without ranges each subject runs on its default grid; explicit ranges
    apply to every subject, and points below a subject's stated domain are
    recorded as out-of-domain.  Each grid point's ladder is built once and
    its line graph at most once, then shared by every subject at that
    point; nothing is kept from one point to the next.
    """
    alpha_list = [normalize_alpha(a) for a in alphas] or [1]
    grids: dict[str, tuple[Range, Range]] = {}
    for subject in subjects:
        default = SUBJECTS[subject].grid
        grids[subject] = (m_range or default[0], n_range or default[1])
        _check_ranges(*grids[subject])
    cases: list[CaseResult] = []
    for m, n in sorted({point for grid in grids.values() for point in _grid(*grid)}):
        ladder = line = None
        for subject, ((m_lo, m_hi), (n_lo, n_hi)) in grids.items():
            if not (m_lo <= m <= m_hi and n_lo <= n <= n_hi):
                continue
            spec = SUBJECTS[subject]
            if n < spec.min_n:
                cases.append(_skip_case(subject, m, n))
                continue
            if ladder is None:
                ladder = build_ladder(m, n)
            g = ladder
            if spec.line:
                if line is None:
                    line = ladder.line_graph()
                g = line
            formula = getattr(closed_forms, spec.formula)
            if subject in THEOREM_SUBJECTS:
                cases.extend(_mpoly_cases(subject, m, n, g, formula))
            else:
                oracle = indices_from_edges(g, alpha_list)
                cases.extend(_index_cases(subject, m, n, oracle, formula, alpha_list))
    return _make_report(cases)
