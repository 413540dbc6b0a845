import json
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mladder import MPoly


def test_empty_is_zero():
    p = MPoly()
    assert p.terms == {}
    assert p.eval_at_one() == 0
    assert p.render("plain") == "0"
    assert p.render("latex") == "0"


def test_zero_coefficients_are_dropped():
    p = MPoly({(1, 2): 5, (2, 2): 0})
    assert p.terms == {(1, 2): Fraction(5)}


def test_rejects_bad_exponents():
    # Exponents are degrees: ints of at least 1, by type(), so bools are refused too.
    for key in ((-1, 2), (1.5, 2), (True, 2), (1, False), (0, 2), (1, 0), (0, 0)):
        with pytest.raises(ValueError, match=f"^exponents must be positive integers, got {re.escape(repr(key))}$"):
            MPoly({key: 1})


def test_rejects_coefficients_that_are_not_int_or_fraction():
    # By type(), so a bool is refused rather than read as 1 or 0.
    for c in (True, False, 1.5, "1"):
        with pytest.raises(TypeError, match=f"^coefficient must be int or Fraction, got {type(c).__name__}$"):
            MPoly({(1, 2): c})


def test_weight_by_multiplies_coefficients():
    p = MPoly({(3, 4): 2})
    assert p.weight_by(1, 0).terms == {(3, 4): Fraction(6)}
    assert p.weight_by(0, 1).terms == {(3, 4): Fraction(8)}
    assert p.weight_by(1, 1).terms == {(3, 4): Fraction(24)}
    assert p.weight_by(-1, -1).terms == {(3, 4): Fraction(2, 12)}


def test_weight_by_refuses_weights_that_are_not_ints():
    # A bool is refused, as it is as an exponent.
    for a, b in ((True, 1), (1, False), (1.0, 0)):
        with pytest.raises(TypeError, match="^weight exponents must be integers$"):
            MPoly({(1, 2): 3}).weight_by(a, b)


def test_render_plain_is_fully_explicit():
    p = MPoly({(3, 3): 6, (4, 4): -3, (1, 1): Fraction(1, 2)})
    assert p.render("plain") == "1/2*x^1*y^1+6*x^3*y^3-3*x^4*y^4"
    assert MPoly({(1, 2): Fraction(-1, 2), (2, 2): 3}).render("plain") == "-1/2*x^1*y^2+3*x^2*y^2"
    assert repr(MPoly({(3, 3): 6})) == "MPoly(6*x^3*y^3)"


def test_render_latex():
    p = MPoly({(3, 3): 12, (3, 4): 12, (4, 4): 6})
    assert p.render("latex") == "12x^{3}y^{3}+12x^{3}y^{4}+6x^{4}y^{4}"
    assert MPoly({(1, 1): 1}).render("latex") == "xy"
    assert MPoly({(2, 1): -1}).render("latex") == "-x^{2}y"
    assert MPoly({(1, 1): Fraction(1, 2)}).render("latex") == "\\frac{1}{2}xy"
    assert MPoly({(1, 2): Fraction(-1, 2), (2, 2): 3}).render("latex") == "-\\frac{1}{2}xy^{2}+3x^{2}y^{2}"


def test_render_json_round_trips():
    p = MPoly({(3, 4): Fraction(5, 3), (3, 3): 2})
    data = json.loads(p.render("json"))
    assert data == [
        {"i": 3, "j": 3, "num": 2, "den": 1},
        {"i": 3, "j": 4, "num": 5, "den": 3},
    ]


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        MPoly().render("html")


exponents = st.tuples(st.integers(1, 9), st.integers(1, 9))
coefs = st.builds(
    Fraction, st.integers(-50, 50), st.integers(1, 20)
).filter(lambda f: f != 0)
polys = st.dictionaries(exponents, coefs, max_size=8).map(MPoly)
weights = st.integers(-3, 3)


@given(polys, weights, weights, weights, weights)
def test_weight_by_composes(p, a, b, c, d):
    assert p.weight_by(a, b).weight_by(c, d) == p.weight_by(a + c, b + d)


@given(polys)
def test_weight_by_inverts(p):
    assert p.weight_by(1, 0).weight_by(-1, 0) == p
    assert p.weight_by(-2, 3).weight_by(2, -3) == p


@given(polys)
def test_terms_stay_sorted(p):
    keys = list(p.terms)
    assert keys == sorted(keys)
