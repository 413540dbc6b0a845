"""Cross-validation of the claimed closed forms against graph enumeration.

For every grid point the harness builds the ladder (and, where relevant,
its line graph), computes the quantity of interest from the graph itself,
evaluates the corresponding closed form, and records a per-quantity
verdict.  The report stays neutral: columns are labeled "oracle" (graph
enumeration) and "paper" (the claimed expression), and proposition
disagreements are findings, not failures.  Reports are fully ordered, so
identical inputs always produce byte-identical output.

Every subject yields ``(quantity, oracle, paper)`` rows -- one per
M-polynomial term for a theorem, one per index for a proposition -- and
:func:`verify_all` turns all of them into cases in one place.  There is
one verdict rule, :func:`values_equal`: exact for two rationals and a
relative tolerance of 1e-12 otherwise (float quantities, non-integer
alpha).  No NaN reaches it from the library, since every producer refuses
a non-finite alpha, and two infinities of one sign compare equal.  Grid
points below a claim's stated domain are recorded as ``out-of-domain``
rather than compared.  A float that overflowed to infinity is not
rendered: the formatters raise ``OverflowError`` instead.

:func:`verify_all` refuses, before it builds anything, a grid whose
graphs would have more than ``MAX_SIZE`` edges in all, the same limit that
bounds one graph.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from itertools import product
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from . import closed_forms
from .closed_forms import CLAIMS, Claim
from .graph import MAX_SIZE, Graph
from .indices import Alpha, Real, check_alpha_digits, indices_from_edges
from .ladder import MIN_M, MIN_N, InvalidParams, build_ladder

Range = tuple[int, int]

REL_TOL = 1e-12

# The subject groups a caller may ask for by one name, in the order to offer
# them: each theorem on its own, then the propositions, then every claim.
SUBJECT_GROUPS = {
    **{label: (label,) for label, claim in CLAIMS.items() if claim.theorem},
    "props": tuple(label for label, claim in CLAIMS.items() if not claim.theorem),
    "all": tuple(CLAIMS),
}


class CaseResult(NamedTuple):
    """One compared quantity at one grid point."""

    m: int
    n: int
    subject: str
    quantity: str
    computed: Optional[Real]
    closed_form: Optional[Real]
    verdict: str  # "match" | "mismatch" | "out-of-domain"


class VerificationReport(NamedTuple):
    """Ordered case results; every count is read from them."""

    cases: tuple[CaseResult, ...]

    @property
    def summary(self) -> dict[str, dict[str, int]]:
        """Verdict counts per subject, subjects in the order of their first case."""
        summary: dict[str, dict[str, int]] = {}
        for c in self.cases:
            counts = summary.setdefault(c.subject, {"match": 0, "mismatch": 0, "out-of-domain": 0})
            counts[c.verdict] += 1
        return summary

    def theorem_mismatches(self) -> int:
        """Number of mismatching cases in theorem subjects (build-breaking)."""
        return sum(c.verdict == "mismatch" and CLAIMS[c.subject].theorem for c in self.cases)

    def to_json(self) -> str:
        """Serialize as a JSON array of case records.

        The layout is exactly that of ``json.dumps(records, indent=2)``
        over records with the keys ``m, n, subject, quantity, computed,
        closed_form, verdict``.  It is laid out here from one template per
        record because ``json`` uses its C encoder only without ``indent``,
        and its pure-Python indenting encoder took most of the rendering
        time of a large report.  Strings still go through ``json.dumps``,
        so their escaping is the encoder's own; each distinct label is
        encoded once per call, as a report repeats a few dozen labels in
        thousands of records.  The brackets ride on the first and the last
        record, so the text is joined once, with no copy to add them.
        """
        if not self.cases:
            return "[]"
        label = functools.lru_cache(maxsize=None)(json.dumps)
        records = [_JSON_RECORD.format(c.m, c.n, label(c.subject), label(c.quantity),
                                       _json_text(c.computed), _json_text(c.closed_form),
                                       label(c.verdict))
                   for c in self.cases]
        records[0] = "[\n" + records[0]
        records[-1] += "\n]"
        return ",\n".join(records)

    def to_text(self) -> str:
        """Render an aligned plain-text table followed by a summary block."""
        header = ("subject", "m", "n", "quantity", "oracle", "paper", "verdict")
        rows = [
            (
                c.subject,
                str(c.m),
                str(c.n),
                c.quantity,
                text_value(c.computed),
                text_value(c.closed_form),
                c.verdict,
            )
            for c in self.cases
        ]
        lines = table(header, rows)
        lines.append("")
        lines.append("summary:")
        summary = self.summary
        for subject in sorted(summary):
            counts = summary[subject]
            lines.append(
                f"  {subject}: {counts['match']} match, {counts['mismatch']} mismatch, "
                f"{counts['out-of-domain']} out-of-domain"
            )
        lines.append("")  # ends the text with a newline without copying it
        return "\n".join(lines)


def values_equal(a: Real, b: Real) -> bool:
    """Exact comparison for two rationals, relative tolerance ``REL_TOL`` otherwise."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    return math.isclose(float(a), float(b), rel_tol=REL_TOL)


def _finite(value: Optional[Real]) -> Optional[Real]:
    """``value`` itself; a float sum that overflowed raises ``OverflowError``."""
    if isinstance(value, float) and not math.isfinite(value):
        raise OverflowError(f"non-finite value {value!r}")
    return value


def json_value(value: Optional[Real]):
    """``value`` as a JSON-ready object: ``None``, ``{"num", "den"}`` or a finite float."""
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    return _finite(value)


# One record as ``json.dumps(records, indent=2)`` lays it out, values left open.
_JSON_RECORD = (
    '  {{\n    "m": {},\n    "n": {},\n    "subject": {},\n    "quantity": {},\n'
    '    "computed": {},\n    "closed_form": {},\n    "verdict": {}\n  }}'
)


def _json_text(value: Optional[Real]) -> str:
    """``json_value(value)`` as ``json.dumps(..., indent=2)`` writes it inside a record."""
    if value is None:
        return "null"
    if isinstance(value, Fraction):
        return f'{{\n      "num": {value.numerator},\n      "den": {value.denominator}\n    }}'
    return repr(_finite(value))


def text_value(value: Optional[Real]) -> str:
    """``value`` as a table cell: ``-``, ``p`` or ``p/q``, or a finite float's ``repr``."""
    return "-" if value is None else str(_finite(value))  # str of a float is its repr


def table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    """Lay out text columns left-aligned, two spaces apart, without trailing blanks."""
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    return ["  ".join(f.ljust(w) for f, w in zip(r, widths)).rstrip() for r in (header, *rows)]


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


def _check_budget(grids: dict[str, tuple[Range, Range]]) -> None:
    """Refuse grids whose graphs would have more than ``MAX_SIZE`` edges in all.

    Every point of each subject's rectangle is counted as built, its ladder
    ``M_{m,n}`` with ``(m-1)(2n-1)`` edges and, for a line-graph subject,
    also its line graph with ``6(m-1)(n-1)``.  Over a rectangle each sum is
    the sum of ``m-1`` times that of ``2n-1`` (or ``8n-7``), two arithmetic
    series, so the count costs the same however large the ranges are.
    """
    total = sum((m_hi - m_lo + 1) * (m_lo + m_hi - 2) // 2  # the sum of m-1
                * (n_hi - n_lo + 1) * (n_lo + n_hi - 1 + 3 * (n_lo + n_hi - 2) * CLAIMS[subject].line)
                for subject, ((m_lo, m_hi), (n_lo, n_hi)) in grids.items())
    if total > MAX_SIZE:
        raise InvalidParams(f"the grid's graphs would have {total} edges in all, more than the "
                            f"limit of {MAX_SIZE}; use smaller ranges")


_ZERO = Fraction(0)  # a theorem term missing on one side


def _rows(claim: Claim, m: int, n: int, g: Graph,
          alphas: Sequence[Alpha]) -> list[tuple[str, Real, Real]]:
    """One claim's ``(quantity, oracle, paper)`` rows at one grid point.

    A theorem gives one row per exponent pair in either polynomial, a
    term missing on one side read as zero; a proposition gives the index
    rows of :meth:`IndexSet.paired`.
    """
    formula = getattr(closed_forms, claim.formula)
    if claim.theorem:
        oracle, paper = g.m_polynomial().terms, formula(m, n).terms
        return [(f"x^{i}*y^{j}", oracle.get((i, j), _ZERO), paper.get((i, j), _ZERO))
                for i, j in sorted(oracle.keys() | paper.keys())]
    # The edge sum runs first, so its alpha check speaks before the closed form's.
    return indices_from_edges(g, alphas).paired(formula(m, n, alphas))


def verify_all(alphas: Iterable[Alpha] = (1,),
               subjects: Sequence[str] = tuple(CLAIMS),
               m_range: Optional[Range] = None,
               n_range: Optional[Range] = None) -> VerificationReport:
    """Run ``subjects`` (keys of ``closed_forms.CLAIMS``) over one grid; report every case.

    Without ranges each subject runs on its claim's default grid; explicit
    ranges apply to every subject, and points below a subject's stated
    domain are recorded as out-of-domain.  Each grid point's ladder is
    built once and its line graph at most once, then shared by every
    subject at that point; nothing is kept from one point to the next.

    Before anything is built the alphas are checked once: a bool or a
    non-finite float alpha raises ``ValueError``, so even a theorem-only
    run refuses it.  Unknown subjects, empty ranges, ranges below the
    generator's domain and a grid over the edge budget raise
    ``InvalidParams``.  Each index producer then normalizes the alphas and
    keeps each once, in first-occurrence order, and no alphas give no
    Randic rows.
    """
    alphas = check_alpha_digits(alphas, 1)  # read once: every grid point passes them on again
    grids: dict[str, tuple[Range, Range]] = {}
    for subject in subjects:
        if subject not in CLAIMS:
            raise InvalidParams(f"unknown subject {subject!r}; expected one of {', '.join(CLAIMS)}")
        m_max, n_max = CLAIMS[subject].grid_max
        grids[subject] = (m_range or (MIN_M, m_max), n_range or (CLAIMS[subject].min_n, n_max))
        _check_ranges(*grids[subject])
    _check_budget(grids)
    cases: list[CaseResult] = []
    points = {p for (m_lo, m_hi), (n_lo, n_hi) in grids.values()
              for p in product(range(m_lo, m_hi + 1), range(n_lo, n_hi + 1))}
    for m, n in sorted(points):
        ladder = line = None
        for subject, ((m_lo, m_hi), (n_lo, n_hi)) in grids.items():
            if not (m_lo <= m <= m_hi and n_lo <= n <= n_hi):
                continue
            claim = CLAIMS[subject]
            if n < claim.min_n:
                rows = [("all", None, None)]
            else:
                if ladder is None:
                    ladder = build_ladder(m, n)
                g = ladder
                if claim.line:
                    if line is None:
                        line = ladder.line_graph()
                    g = line
                rows = _rows(claim, m, n, g, alphas)
            # Positional: keyword construction of the NamedTuple costs twice the time.
            cases.extend(
                CaseResult(m, n, subject, quantity, got, want,
                           "out-of-domain" if got is None
                           else "match" if values_equal(got, want) else "mismatch")
                for quantity, got, want in rows
            )
    return VerificationReport(tuple(sorted(cases, key=attrgetter("subject", "m", "n", "quantity"))))
