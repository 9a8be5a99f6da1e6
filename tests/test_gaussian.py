import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from klvkit.gaussian import GaussRat, gvec, mat_apply, pair, vec_add, vec_sub

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
grats = st.builds(GaussRat, fractions, fractions)


def test_parse_forms():
    assert GaussRat.parse("3") == GaussRat(Fraction(3))
    assert GaussRat.parse("-3/4") == GaussRat(Fraction(-3, 4))
    assert GaussRat.parse("1/2+1/3*i") == GaussRat(Fraction(1, 2), Fraction(1, 3))
    assert GaussRat.parse("1/2-2*i") == GaussRat(Fraction(1, 2), Fraction(-2))
    assert GaussRat.parse("5*i") == GaussRat(Fraction(0), Fraction(5))
    with pytest.raises(ValueError):
        GaussRat.parse("")
    with pytest.raises(ValueError):
        GaussRat.parse("1/2 + x")
    for text in ("1/0", "1+1/0*i"):
        with pytest.raises(ValueError, match="zero denominator .*" + re.escape(repr(text))):
            GaussRat.parse(text)


def test_parse_no_star_imaginary():
    assert GaussRat.parse("-2i") == GaussRat(Fraction(0), Fraction(-2))
    assert GaussRat.parse("-1/3i") == GaussRat(Fraction(0), Fraction(-1, 3))


@given(grats)
def test_str_round_trip(z):
    assert GaussRat.parse(str(z)) == z


@given(grats, grats)
def test_field_ops(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert a - b == -(b - a)
    assert a + GaussRat() == a


def test_integrality():
    assert GaussRat.parse("3").is_integer()
    assert not GaussRat.parse("3/2").is_integer()
    assert not GaussRat.parse("3+1*i").is_integer()
    assert GaussRat.parse("2").is_positive_integer()
    assert not GaussRat.parse("-2").is_positive_integer()
    assert GaussRat.parse("0").is_zero()


def test_vectors():
    a = gvec(["1", "1/2"])
    b = gvec([1, 2])
    assert vec_add(a, b) == gvec(["2", "5/2"])
    assert vec_sub(b, a) == gvec(["0", "3/2"])
    assert pair((2, -1), a) == GaussRat(Fraction(3, 2))
    assert mat_apply(((0, 1), (1, 0)), a) == gvec(["1/2", "1"])
