import json

import pytest

from klvkit.blockdata import (
    block_from_json,
    block_to_json,
    builtin_nci2_block,
    builtin_sl2r_block,
)
from klvkit.correspondence import (
    Correspondence,
    check_correspondence,
    check_image_union_of_blocks,
    compare_multiplicities,
    correspondence_from_json,
    induced_verdict,
    mult_by_block,
)

IDENT = Correspondence({"D+": "D+", "D-": "D-", "P": "P"}, 0)
SWAP = Correspondence({"D+": "D-", "D-": "D+", "P": "P"}, 0)


def _shifted_sl2r(delta: int):
    doc = block_to_json(builtin_sl2r_block())
    for rec in doc["params"]:
        rec["length"] += delta
    return block_from_json(doc)


def test_identity_correspondence_passes():
    b = builtin_sl2r_block()
    assert check_correspondence(b, b, IDENT) == []


def test_outer_swap_passes():
    b = builtin_sl2r_block()
    assert check_correspondence(b, b, SWAP) == []
    assert compare_multiplicities(mult_by_block(b), mult_by_block(b), SWAP)


def test_length_shift():
    L = _shifted_sl2r(3)
    G = builtin_sl2r_block()
    c = Correspondence(IDENT.pairs, -3)
    assert check_correspondence(L, G, c) == []
    assert compare_multiplicities(mult_by_block(L), mult_by_block(G), c)
    assert check_correspondence(L, G, IDENT) != []


def test_status_mismatch_reported():
    L = builtin_sl2r_block()
    G = builtin_nci2_block()
    c = Correspondence({"D+": "D", "D-": "P1", "P": "P2"}, 0)
    violations = check_correspondence(L, G, c)
    assert any("status mismatch" in v for v in violations)


def test_not_total_and_not_injective():
    b = builtin_sl2r_block()
    partial = Correspondence({"P": "P"}, 0)
    assert any("not total" in v for v in check_correspondence(b, b, partial))
    squash = Correspondence({"D+": "P", "D-": "P", "P": "P"}, 0)
    assert any("not injective" in v for v in check_correspondence(b, b, squash))


def test_image_union_of_blocks():
    G = builtin_sl2r_block()
    ok, wit = check_image_union_of_blocks(G, IDENT)
    assert ok and wit is None
    ok, wit = check_image_union_of_blocks(G, Correspondence({"x": "D+"}, 0))
    assert not ok and sorted(wit) == ["D+", "D-", "P"]
    ok, _ = check_image_union_of_blocks(G, Correspondence({}, 0))
    assert ok


def test_compare_multiplicities_catches_corruption():
    L = builtin_sl2r_block()
    doc = block_to_json(builtin_sl2r_block())
    # make the target side a different (still valid) block: type-II shape
    G = builtin_nci2_block()
    c = Correspondence({"D+": "P1", "D-": "P2", "P": "D"}, 0)
    # lengths/status all differ -> checks fail, and multiplicities differ too
    assert check_correspondence(L, G, c) != []
    assert not compare_multiplicities(mult_by_block(L), mult_by_block(G), c)


def test_induced_verdict_irreducible():
    b = builtin_sl2r_block()
    rec, = induced_verdict(b, b, IDENT, ["P"])
    assert rec["verdict"] == "Irreducible"
    assert rec["image"] == "P"
    assert rec["source_M_column"] == {"D+": -1, "D-": -1, "P": 1}
    assert rec["target_M_column"] == rec["source_M_column"]


def test_induced_verdict_no_conclusion_on_bad_map():
    b = builtin_sl2r_block()
    bad = Correspondence({"D+": "D+", "D-": "D-", "P": "P"}, 5)
    rec, = induced_verdict(b, b, bad, ["P"])
    assert rec["verdict"] == "NoConclusion"
    assert rec["reason"] == "preconditions not established"
    with pytest.raises(ValueError):
        induced_verdict(b, b, IDENT, ["nope"])


def test_singleton_blocks_trivially_irreducible():
    doc = {
        "simples": ["s"], "braid": [[1]], "infchar_tag": "pt",
        "params": [{"label": "x", "length": 0, "cartan_class": "",
                    "status": ["CompactImaginary"], "cross": ["x"],
                    "cayley": [None]}],
    }
    b = block_from_json(doc)
    rec, = induced_verdict(b, b, Correspondence({"x": "x"}, 0), ["x"])
    assert rec["verdict"] == "Irreducible"
    assert rec["source_M_column"] == {"x": 1}


def test_json_round_trip():
    doc = {"pairs": [["D+", "D-"], ["P", "P"]], "length_shift": 2}
    c = correspondence_from_json(doc)
    assert c.length_shift == 2 and c.pairs["D+"] == "D-"
    assert c == Correspondence({"D+": "D-", "P": "P"}, 2)
    with pytest.raises(ValueError, match="duplicate"):
        correspondence_from_json(
            {"pairs": [["a", "b"], ["a", "c"]], "length_shift": 0})


@pytest.mark.parametrize("edit, field", [
    ({"length_shift": 1.9}, "length_shift"),
    ({"length_shift": True}, "length_shift"),
    ({"length_shift": "3"}, "length_shift"),
    ({"pairs": [[["D+"], "D+"], ["D-", "D-"], ["P", "P"]]}, "pairs"),
    ({"pairs": [["D+", 1], ["D-", "D-"], ["P", "P"]]}, "pairs"),
    ({"pairs": [["D+", "D+", "P"], ["D-", "D-"], ["P", "P"]]}, "pairs"),
    ({"pairs": {"D+": "D+"}}, "pairs"),
])
def test_map_values_are_not_coerced(edit, field):
    """A shift 1.9 was read as 1, true as 1 and "3" as 3, and a pair
    [["D+"], "D+"] named the label "['D+']"."""
    doc = {"pairs": [["D+", "D+"], ["D-", "D-"], ["P", "P"]], "length_shift": 0,
           **edit}
    with pytest.raises(ValueError, match=f"^{field} "):
        correspondence_from_json(doc)
