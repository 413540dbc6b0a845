"""Exact M-polynomials with rational coefficients.

The M-polynomial of a graph is ``sum m_ij * x^i * y^j`` over the endpoint
degrees ``i <= j`` of its edges (Deutsch & Klavžar, 2015), so each exponent
is a degree and at least 1.  An :class:`MPoly` is a finite mapping from such
exponent pairs ``(i, j)`` to nonzero ``fractions.Fraction`` coefficients.
The only arithmetic the index machinery needs is the termwise degree
weighting ``x^i y^j -> i^a * j^b * x^i y^j``, which realises the
derivative-style operators (positive ``a``/``b``) and their integral-style
inverses (negative ``a``/``b``) used to pull degree-based indices out of an
M-polynomial, and evaluation at ``x = y = 1``.  All arithmetic is exact.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping, Union

Coefficient = Union[int, Fraction]

RENDER_FORMATS = ("plain", "latex", "json")


class MPoly:
    """Immutable M-polynomial over the rationals: exponents are degrees.

    Terms are normalized on construction: both exponents must be ints of
    at least 1 by ``type()`` (otherwise ``ValueError``), a coefficient an
    int or a ``Fraction`` by ``type()`` (so a bool raises ``TypeError``),
    an int becomes a ``Fraction``, zero coefficients are dropped, and terms
    are kept in ascending ``(i, j)`` order so every iteration and rendering
    is deterministic.  Two polynomials are equal iff their term mappings are.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Coefficient] = {}):  # the default is only read
        for key in terms:  # type(), so bools are refused in both
            i, j = key
            if not (type(i) is int and type(j) is int) or i < 1 or j < 1:
                raise ValueError(f"exponents must be positive integers, got {key!r}")
            if type(c := terms[key]) not in (int, Fraction):
                raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")
        self._terms = {key: Fraction(c) if type(c) is int else c for key in sorted(terms) if (c := terms[key])}

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        """Term mapping as a fresh dict, in ascending ``(i, j)`` order."""
        return dict(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self._terms == other._terms

    def weight_by(self, a: int, b: int) -> "MPoly":
        """Multiply each term's coefficient by ``i^a * j^b``, exactly.

        Exponents are unchanged.  ``(1, 0)`` and ``(0, 1)`` act as the x/y
        derivative operators, ``(-1, 0)`` and ``(0, -1)`` as their
        integral-style inverses; ``(a, a)`` composes both coordinates.
        """
        if not (type(a) is int and type(b) is int):  # bools are refused, as in exponents
            raise TypeError("weight exponents must be integers")
        return MPoly({(i, j): c * Fraction(i) ** a * Fraction(j) ** b for (i, j), c in self._terms.items()})

    def eval_at_one(self) -> Fraction:
        """Return the sum of all coefficients (the value at x = y = 1)."""
        return sum(self._terms.values(), Fraction(0))

    def render(self, fmt: str = "plain") -> str:
        """Render deterministically, terms in ascending ``(i, j)`` order.

        ``plain`` is fully explicit (``"6*x^3*y^3"``, coefficient and both
        exponents always written); ``latex`` uses conventional suppression
        (``"6x^{3}y^{3}"``, unit coefficients and exponents of 1
        elided); ``json`` is an array of ``{i, j, num, den}`` records.
        """
        if fmt == "json":
            return json.dumps(
                [
                    {"i": i, "j": j, "num": c.numerator, "den": c.denominator}
                    for (i, j), c in self._terms.items()
                ]
            )
        if fmt not in RENDER_FORMATS:
            raise ValueError(f"unknown render format {fmt!r}; expected one of {RENDER_FORMATS}")
        parts = []
        for (i, j), c in self._terms.items():
            a = abs(c)
            if fmt == "plain":
                term = f"{a}*x^{i}*y^{j}"
            else:
                factors = ("x" if i == 1 else f"x^{{{i}}}") + ("y" if j == 1 else f"y^{{{j}}}")
                if a.denominator != 1:
                    coef = f"\\frac{{{a.numerator}}}{{{a.denominator}}}"
                elif a == 1:
                    coef = ""
                else:
                    coef = str(a.numerator)
                term = coef + factors
            parts.append(("-" if c < 0 else "+") + term)
        return "".join(parts).removeprefix("+") or "0"

    def __repr__(self) -> str:
        return f"MPoly({self.render()})"
