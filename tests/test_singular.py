import pytest

from klvkit.gaussian import gvec
from klvkit.rootdata import rootdatum_from_json
from klvkit.singular import (
    TranslationDatum,
    check_translation_square,
    validate_translation_datum,
)

from test_rootdata import A2, SL2_SPLIT


def test_translation_datum_valid():
    d, lv = rootdatum_from_json(SL2_SPLIT)
    # xi singular on the (full-Levi) root, mu pushes it off the wall
    doc = {**SL2_SPLIT,
           "levi": {"simple_base": [[1]], "levi_simples": [0],
                    "a_coordinates": []}}
    d, lv = rootdatum_from_json(doc)
    t = TranslationDatum(gvec([0]), (1,))
    assert validate_translation_datum(d, lv, t) == []
    assert t.xi_prime() == gvec([1])


def test_translation_datum_still_singular():
    doc = {**SL2_SPLIT,
           "levi": {"simple_base": [[1]], "levi_simples": [0],
                    "a_coordinates": []}}
    d, lv = rootdatum_from_json(doc)
    t = TranslationDatum(gvec([0]), (0,))
    out = validate_translation_datum(d, lv, t)
    assert out and "still singular" in out[0]


def test_translation_datum_breaks_integral_wall():
    d, lv = rootdatum_from_json(A2)
    # <alpha1^, (1,1)> = 1 is a positive integer; mu = (-1, 1) sends the
    # pairing to -2, breaking the condition
    t = TranslationDatum(gvec([1, 1]), (-1, 1))
    out = validate_translation_datum(d, lv, t)
    assert any("positive-integer pairing broken" in msg for msg in out)
    # a Weyl-chamber-preserving shift is fine
    t2 = TranslationDatum(gvec([1, 1]), (1, 1))
    assert validate_translation_datum(d, lv, t2) == []


def test_translation_square_commutes():
    iota = {"a": "A", "b": "B"}
    tL = {"a": "a'", "b": "b'"}
    iota_p = {"a'": "A'", "b'": "B'"}
    tG = {"A": "A'", "B": "B'"}
    assert check_translation_square(iota, iota_p, tL, tG) == (True, None)


def test_translation_square_corruption_detected():
    iota = {"a": "A", "b": "B"}
    tL = {"a": "a'", "b": "b'"}
    iota_p = {"a'": "A'", "b'": "A'"}  # wrong corner
    tG = {"A": "A'", "B": "B'"}
    assert check_translation_square(iota, iota_p, tL, tG) == (False, "b")


def test_translation_square_domain_mismatch():
    with pytest.raises(ValueError, match="domain mismatch"):
        check_translation_square({}, {}, {"a": "a'"}, {})
    with pytest.raises(ValueError, match="domain mismatch"):
        check_translation_square({"a": "A"}, {}, {"a": "a'"}, {})
    with pytest.raises(ValueError, match="not translatable"):
        check_translation_square({"a": "A"}, {"a'": "A'"}, {"a": "a'"}, {})
