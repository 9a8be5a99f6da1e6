import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klvkit.blockdata import (
    block_from_json,
    block_to_json,
    builtin_nci2_block,
    builtin_sl2r_block,
    generate_complex_block,
    product_block,
)
from klvkit.hecke import ModuleElement, apply_T, basis, check_braid, check_quadratic
from klvkit.laurent import ONE, U, LaurentPoly

import reference_klv
from test_klv import _REFERENCE_BLOCKS

U1 = U - ONE


def test_sl2r_action_table():
    b = builtin_sl2r_block()
    assert apply_T(b, 0, "P") == ModuleElement(
        {"P": U - 2, "D+": U1, "D-": U1})
    assert apply_T(b, 0, "D+") == ModuleElement({"D-": ONE, "P": ONE})
    assert apply_T(b, 0, "D-") == ModuleElement({"D+": ONE, "P": ONE})


def test_type2_parity_action():
    b = builtin_nci2_block()
    # (u-1)*self - cross + (u-1)*cayley target
    assert apply_T(b, 0, "P1") == ModuleElement(
        {"P1": U1, "P2": -ONE, "D": U1})
    assert apply_T(b, 0, "D") == ModuleElement(
        {"D": ONE, "P1": ONE, "P2": ONE})


def test_complex_action_is_regular_representation():
    b = generate_complex_block(("s1", "s2"), ((1, 3), (3, 1)))
    assert apply_T(b, 0, "e") == basis("s1")
    assert apply_T(b, 0, "s1") == ModuleElement({"e": U, "s1": U1})
    assert apply_T(b, 1, "s1") == basis("s2s1")


def test_compact_and_nonparity_cases():
    doc = {
        "simples": ["s"], "braid": [[1]], "infchar_tag": "x",
        "params": [
            {"label": "c", "length": 0, "cartan_class": "",
             "status": ["CompactImaginary"], "cross": ["c"], "cayley": [None]},
            {"label": "n", "length": 0, "cartan_class": "",
             "status": ["RealNonparity"], "cross": ["n"], "cayley": [None]},
        ],
    }
    b = block_from_json(doc)
    assert apply_T(b, 0, "c") == ModuleElement({"c": U})
    assert apply_T(b, 0, "n") == ModuleElement({"n": -ONE})
    assert check_quadratic(b) == (True, None)


def test_apply_T_linearity():
    b = builtin_sl2r_block()
    m = ModuleElement({"P": U, "D+": LaurentPoly({-1: 2})})
    expected = (apply_T(b, 0, "P").scale(U)
                + apply_T(b, 0, "D+").scale(LaurentPoly({-1: 2})))
    assert apply_T(b, 0, m) == expected


def test_apply_T_errors():
    b = builtin_sl2r_block()
    with pytest.raises(ValueError):
        apply_T(b, 0, "nope")
    with pytest.raises(ValueError):
        apply_T(b, 3, "P")


def test_quadratic_on_golden_blocks():
    for b in (builtin_sl2r_block(), builtin_nci2_block(),
              generate_complex_block(("s1", "s2"), ((1, 3), (3, 1)))):
        assert check_quadratic(b) == (True, None)


def test_quadratic_counterexample():
    doc = block_to_json(builtin_sl2r_block())
    for rec in doc["params"]:
        if rec["label"] == "D+":
            rec["status"] = ["CompactImaginary"]
            rec["cayley"] = [None]
            rec["cross"] = ["D+"]
    b = block_from_json(doc)
    ok, counter = check_quadratic(b)
    assert not ok
    assert counter is not None and counter[0] == 0


def test_braid_relations():
    a2 = generate_complex_block(("s1", "s2"), ((1, 3), (3, 1)))
    assert check_braid(a2, 0, 1)
    b2 = generate_complex_block(("s1", "s2"), ((1, 4), (4, 1)))
    assert check_braid(b2, 0, 1)
    # single simple: vacuous
    assert check_braid(builtin_sl2r_block(), 0, 0)
    # commuting product factors
    other = block_from_json(
        {**block_to_json(builtin_nci2_block()), "simples": ["t"]})
    prod = product_block(builtin_sl2r_block(), other)
    assert check_braid(prod, 0, 1)


def test_module_element_algebra():
    a = ModuleElement({"x": ONE})
    b = ModuleElement({"x": -ONE, "y": U})
    assert (a + b).support() == {"y"}
    assert (a - a).is_zero()
    assert (-b).coeff("y") == -U
    assert str(ModuleElement()) == "0"


def test_T_table_is_built_once_and_matches_per_call_reference():
    blocks = [builtin_sl2r_block(), builtin_nci2_block(),
              generate_complex_block(("s1", "s2"), ((1, 4), (4, 1))),
              product_block(builtin_sl2r_block(), block_from_json(
                  {**block_to_json(builtin_nci2_block()), "simples": ["t"]}))]
    for b in blocks:
        for s in range(len(b.simples)):
            for label in b.params:
                first = apply_T(b, s, label)
                assert first == reference_klv.T_basis(b, s, label)
                assert apply_T(b, s, label) is first
        with pytest.raises(ValueError, match="unknown simple index: -1"):
            apply_T(b, -1, label)
        with pytest.raises(ValueError, match=f"unknown simple index: {len(b.simples)}"):
            apply_T(b, len(b.simples), label)
        with pytest.raises(ValueError, match="unknown label: nope"):
            apply_T(b, len(b.simples), "nope")


_QUADRATIC_BLOCKS = [
    builtin_sl2r_block(), builtin_nci2_block(),
    generate_complex_block(("s1", "s2"), ((1, 4), (4, 1))),
    product_block(builtin_sl2r_block(), block_from_json(
        {**block_to_json(builtin_nci2_block()), "simples": ["t"]})),
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(_QUADRATIC_BLOCKS))), st.data())
def test_quadratic_matches_module_reference(i, data):
    """On valid blocks and on blocks with up to three (label, simple)
    statuses changed to one whose T_s reads only the label and its cross
    target: the same verdict and the same first (simple, label)."""
    doc = block_to_json(_QUADRATIC_BLOCKS[i])
    for _ in range(data.draw(st.integers(0, 3))):
        rec = data.draw(st.sampled_from(doc["params"]))
        s = data.draw(st.integers(0, len(doc["simples"]) - 1))
        rec["status"][s] = data.draw(st.sampled_from(
            ["CompactImaginary", "RealNonparity", "ComplexAscent", "ComplexDescent"]))
    b = block_from_json(doc)
    assert check_quadratic(b) == reference_klv.check_quadratic(b)


def _with_braid_order(b, i, j, m):
    """b with the braid order of simples i and j set to m."""
    doc = block_to_json(b)
    doc["braid"][i][j] = doc["braid"][j][i] = m
    return block_from_json(doc)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_REFERENCE_BLOCKS)), st.data())
def test_braid_matches_module_reference(name, data):
    """On valid blocks, and on the same blocks with one off-diagonal
    braid order replaced by another of 2, 3, 4 and 6: the packed check
    gives the verdict of the module-element reference for every pair."""
    b = _REFERENCE_BLOCKS[name]()
    n = len(b.simples)
    if data.draw(st.booleans()):
        i, j = data.draw(st.sampled_from(list(itertools.combinations(range(n), 2))))
        m = data.draw(st.sampled_from([x for x in (2, 3, 4, 6) if x != b.braid[i][j]]))
        b = _with_braid_order(b, i, j, m)
    for s, t in itertools.product(range(n), repeat=2):
        assert check_braid(b, s, t) == reference_klv.check_braid(b, s, t)


def test_braid_relation_fails_with_a_wrong_order():
    a3 = _REFERENCE_BLOCKS["A3"]()
    assert all(check_braid(a3, s, t) for s in range(3) for t in range(3))
    # T_1 T_2 != T_2 T_1 and T_1 T_3 T_1 != T_3 T_1 T_3
    for i, j, m in ((0, 1, 2), (0, 2, 3), (1, 2, 4)):
        bad = _with_braid_order(a3, i, j, m)
        assert not check_braid(bad, i, j) and not check_braid(bad, j, i)
        assert not reference_klv.check_braid(bad, i, j)
    # (T_1 T_2)^3 = T_w0^2 = (T_2 T_1)^3 in type A2, so 6 still holds
    assert check_braid(_with_braid_order(a3, 0, 1, 6), 0, 1)
    nci2 = _with_braid_order(_REFERENCE_BLOCKS["nci2xnci2"](), 0, 1, 3)
    assert not check_braid(nci2, 0, 1)
    assert not reference_klv.check_braid(nci2, 0, 1)

