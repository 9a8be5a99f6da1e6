import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klvkit.gaussian import (
    GaussRat,
    ScaledVec,
    gvec,
    mat_apply,
    vec_add,
)

from test_rootdata import A2, B2, B3, SL2_SPLIT

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
    assert mat_apply(((0, 1), (1, 0)), a) == gvec(["1/2", "1"])


def _pair_by_gaussrat(c, x) -> GaussRat:
    """<c, x> summed term by term in GaussRat arithmetic: the oracle for
    the integer dot products of ScaledVec."""
    return sum((GaussRat.of(ci) * xi for ci, xi in zip(c, x, strict=True)),
               GaussRat())


def _bd_coroots(n: int, kind: str) -> list[tuple[int, ...]]:
    """Coroots of type B_n or D_n on the standard lattice: the vectors
    +-e_i +- e_j, and +-2e_i for B_n."""
    out = []
    for i, j in itertools.combinations(range(n), 2):
        for si, sj in itertools.product((1, -1), repeat=2):
            v = [0] * n
            v[i], v[j] = si, sj
            out.append(tuple(v))
    if kind == "B":
        for i, s in itertools.product(range(n), (2, -2)):
            out.append(tuple(s if k == i else 0 for k in range(n)))
    return out


_COROOTS = [[tuple(c) for c in doc["coroots"]] for doc in (SL2_SPLIT, A2, B2, B3)]
_COROOTS += [_bd_coroots(4, "D"), _bd_coroots(4, "B")]
# zero and small half-integers make zero and integer pairings common
_PARTS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2])),
    st.builds(Fraction, st.integers(-180, 180), st.integers(1, 60)),
)


@st.composite
def _coroots_and_vector(draw):
    coroots = draw(st.sampled_from(_COROOTS))
    x = tuple(GaussRat(draw(_PARTS), draw(st.one_of(st.just(Fraction(0)), _PARTS)))
              for _ in coroots[0])
    return coroots, x


@settings(max_examples=400, deadline=None)
@given(_coroots_and_vector())
def test_scaled_pairings_match_gaussrat_arithmetic(case):
    """Every coroot of a fixture against a random vector: the value and
    the zero, integer and positive-integer tests read off the integer
    dot products agree with GaussRat arithmetic term by term."""
    coroots, x = case
    s = ScaledVec(x)
    assert s.coords == x and s.q >= 1
    for c in coroots:
        want = _pair_by_gaussrat(c, x)
        assert s.value(c) == want
        assert s.is_zero(c) is want.is_zero()
        assert s.is_integer(c) is want.is_integer()
        assert s.is_positive_integer(c) is want.is_positive_integer()
