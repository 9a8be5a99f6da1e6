from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from klvkit.laurent import MINUS_INF, ONE, U, ZERO, LaurentPoly

polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6),
)
V, U_INV = LaurentPoly({1: 1}), LaurentPoly({-2: 1})


def test_basic_constants():
    assert ZERO.is_zero()
    assert ONE == LaurentPoly({0: 1})
    assert U == V * V
    assert U * U_INV == ONE


def test_coeff_and_terms():
    p = LaurentPoly({-2: 3})
    assert p.coeff(-2) == 3
    assert p.coeff(0) == 0
    assert p.terms == {-2: 3}


def test_zero_coefficients_dropped():
    assert LaurentPoly({2: 0, 1: 5}).terms == {1: 5}
    assert LaurentPoly({3: 1}) - LaurentPoly({3: 1}) == ZERO


def test_type_errors():
    with pytest.raises(TypeError):
        LaurentPoly({0.5: 1})
    with pytest.raises(TypeError):
        LaurentPoly({0: 1.5})


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(polys, polys)
def test_bar_is_ring_involution(a, b):
    assert a.bar().bar() == a
    assert (a + b).bar() == a.bar() + b.bar()
    assert (a * b).bar() == a.bar() * b.bar()


@given(polys, polys)
def test_eval_at_one_is_ring_hom(a, b):
    assert (a + b).eval_at_one() == a.eval_at_one() + b.eval_at_one()
    assert (a * b).eval_at_one() == a.eval_at_one() * b.eval_at_one()


@given(polys, st.integers(-5, 5))
def test_shift_is_monomial_multiplication(a, k):
    assert a.shifted(k) == a * LaurentPoly({k: 1})


def test_degree_in_u():
    assert ZERO.degree_in_u() == MINUS_INF
    assert U.degree_in_u() == 1
    assert V.degree_in_u() == Fraction(1, 2)
    assert (U_INV + ONE).degree_in_u() == 0


def test_is_u_polynomial():
    assert (U * U - U + ONE).is_u_polynomial()
    assert not V.is_u_polynomial()
    assert not U_INV.is_u_polynomial()
    assert ZERO.is_u_polynomial()


def test_int_mixing():
    assert ONE + 1 == LaurentPoly({0: 2})
    assert 2 * U == LaurentPoly({2: 2})
    assert 1 - U == ONE - U
    assert U != "u"


def _stores_no_zero(p):
    return 0 not in p.terms.values()


@given(polys, polys, st.integers(-3, 3), st.integers(-5, 5))
def test_results_store_no_zero_coefficient(a, b, n, k):
    """Equality and hashing compare the term tables, so a stored zero
    would make equal polynomials differ."""
    for p in (a + b, a - b, -a, a * b, a * n, n * a, a + n, n - a,
              a.shifted(k), a.bar()):
        assert _stores_no_zero(p)
    cancel = a + (-a)
    assert cancel.terms == {} and cancel == ZERO and hash(cancel) == hash(ZERO)
    assert (a - a).terms == {} and (a * 0).terms == {}


def test_cancelling_products_store_no_zero():
    p = (V + ONE) * (V - ONE)
    assert p.terms == {2: 1, 0: -1}
    assert p == U - ONE and hash(p) == hash(U - ONE)
    q = LaurentPoly({1: 1, -1: 1}) * LaurentPoly({1: 1, -1: -1})
    assert q.terms == {2: 1, -2: -1}
    assert ((U + ONE) + (-U)).terms == {0: 1}
