import json
import re

import pytest

from klvkit.blockdata import (
    BlockFormatError,
    SimpleStatus,
    block_from_json,
    block_to_json,
    builtin_nci2_block,
    builtin_sl2r_block,
    generate_complex_block,
    is_minimal,
    product_block,
    validate_block,
    validate_block_doc,
)

A2_BRAID = ((1, 3), (3, 1))


def _doc_with(base_doc, label, **edits):
    doc = json.loads(json.dumps(base_doc))
    for rec in doc["params"]:
        if rec["label"] == label:
            rec.update(edits)
    return doc


@pytest.fixture
def sl2r_doc():
    return block_to_json(builtin_sl2r_block())


def test_builtin_blocks_validate():
    assert validate_block(builtin_sl2r_block()) == []
    assert validate_block(builtin_nci2_block()) == []


def test_builtin_sl2r_shape():
    b = builtin_sl2r_block()
    assert set(b.params) == {"D+", "D-", "P"}
    assert [b.params[l].length for l in ("D+", "D-", "P")] == [0, 0, 1]
    assert b.params["D+"].cross[0] == "D-"
    assert b.params["P"].cross[0] == "P"
    assert b.params["P"].cayley[0] == frozenset({"D+", "D-"})
    assert b.params["D+"].cayley[0] == frozenset({"P"})


def test_generate_complex_block_counts():
    a1 = generate_complex_block(("s",), ((1,),))
    assert len(a1.params) == 2
    assert sorted(p.length for p in a1.params.values()) == [0, 1]
    a2 = generate_complex_block(("s1", "s2"), A2_BRAID)
    assert len(a2.params) == 6
    assert max(p.length for p in a2.params.values()) == 3
    assert sum(1 for p in a2.params.values() if p.length == 3) == 1
    assert validate_block(a2) == []
    a3 = generate_complex_block(
        ("s1", "s2", "s3"), ((1, 3, 2), (3, 1, 3), (2, 3, 1)))
    assert len(a3.params) == 24
    assert validate_block(a3) == []


_A3 = ((1, 3, 2), (3, 1, 3), (2, 3, 1))
_A4 = ((1, 3, 2, 2), (3, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1))
_B5 = ((1, 3, 2, 2, 2), (3, 1, 3, 2, 2), (2, 3, 1, 3, 2), (2, 2, 3, 1, 4),
       (2, 2, 2, 4, 1))


@pytest.mark.parametrize("names, braid, size, offending", [
    (("s", "e"), A2_BRAID, 6, "'e'"),
    (("a", "b", "ab"), ((1, 2, 2), (2, 1, 2), (2, 2, 1)), 8, "'a', 'ab'"),
    (("a", "b", "c", "d", "e"), _B5, 3840, "'e'"),
    (("", "b"), ((1, 2), (2, 1)), 4, "''"),
    (("a", "a"), ((1, 2), (2, 1)), 4, "'a'"),
])
def test_colliding_simple_names_are_refused(names, braid, size, offending):
    """With an empty simple name, one named e, or one name a prefix of
    another, two elements would share a label: A2 over (s, e) gave 5
    parameters, A1^3 over (a, b, ab) 7, and B5 over a-e a bare KeyError
    in `compute_duality`.  The error names the offending simples."""
    with pytest.raises(ValueError) as exc:
        generate_complex_block(names, braid)
    assert str(exc.value) == (
        f"simple names must be nonempty, not 'e' and none a prefix of another: {offending}")
    if size < 100:
        renamed = tuple(f"q{i}" for i in range(len(names)))
        assert len(generate_complex_block(renamed, braid).params) == size


def test_usual_simple_names_are_kept():
    """The names of the benchmark inputs (a letter and an index) and the
    letters a-d of `tools/ladder.py`'s F4."""
    assert len(generate_complex_block(("a", "b", "c", "d"), _A4).params) == 120
    assert len(generate_complex_block(("a1", "a2", "a3"), _A3).params) == 24


def test_complex_statuses():
    a2 = generate_complex_block(("s1", "s2"), A2_BRAID)
    e = a2.params["e"]
    assert all(st is SimpleStatus.COMPLEX_ASCENT for st in e.status)
    top = a2.params["s1s2s1"]
    assert all(st is SimpleStatus.COMPLEX_DESCENT for st in top.status)
    assert e.cross == ("s1", "s2")


def test_is_minimal():
    b = builtin_sl2r_block()
    assert is_minimal(b, "D+")
    assert not is_minimal(b, "P")
    a2 = generate_complex_block(("s1", "s2"), A2_BRAID)
    assert is_minimal(a2, "e")
    assert not is_minimal(a2, "s1")
    with pytest.raises(ValueError):
        is_minimal(b, "nope")


def test_product_block():
    b = builtin_sl2r_block()
    other = block_from_json(
        {**block_to_json(builtin_sl2r_block()), "simples": ["t"]})
    prod = product_block(b, other)
    assert len(prod.params) == 9
    assert validate_block(prod) == []
    assert prod.params["(P,P)"].length == 2
    assert prod.params["(D+,P)"].length == 1
    with pytest.raises(ValueError, match="collision"):
        product_block(b, b)


def test_product_with_trivial_block():
    b = builtin_sl2r_block()
    trivial = block_from_json({
        "simples": [], "braid": [], "infchar_tag": "pt",
        "params": [{"label": "x", "length": 0, "cartan_class": "pt",
                    "status": [], "cross": [], "cayley": []}],
    })
    prod = product_block(b, trivial)
    assert len(prod.params) == 3
    assert validate_block(prod) == []
    assert prod.params["(P,x)"].length == 1


def test_json_round_trip(sl2r_doc):
    assert block_from_json(sl2r_doc) == builtin_sl2r_block()
    assert block_to_json(block_from_json(sl2r_doc)) == sl2r_doc


def test_format_errors():
    with pytest.raises(BlockFormatError):
        block_from_json({"simples": ["s"]})
    with pytest.raises(BlockFormatError):
        block_from_json({
            "simples": ["s"], "braid": [[1]], "params": [
                {"label": "x", "length": 0, "status": ["Funky"],
                 "cross": ["x"], "cayley": [None]}],
        })


def test_duplicate_label_rejected(sl2r_doc):
    doc = json.loads(json.dumps(sl2r_doc))
    doc["params"].append(dict(doc["params"][0]))
    with pytest.raises(BlockFormatError, match="duplicate label 'D\\+'"):
        block_from_json(doc)
    assert [v.axiom for v in validate_block_doc(doc)] == ["AX_STRUCTURE"]


@pytest.mark.parametrize("length", [True, "1", 1.0, None])
def test_length_must_be_json_integer(sl2r_doc, length):
    doc = _doc_with(sl2r_doc, "P", length=length)
    with pytest.raises(BlockFormatError, match="not an integer"):
        block_from_json(doc)
    assert [v.axiom for v in validate_block_doc(doc)] == ["AX_STRUCTURE"]


@pytest.mark.parametrize("label, edit, field", [
    ("D+", {"cayley": ["P"]}, "cayley entry 0 of 'D+'"),
    ("P", {"cayley": ["D+D-"]}, "cayley entry 0 of 'P'"),
    ("P", {"cayley": "D+"}, "cayley of 'P'"),
    ("P", {"status": "RealParityI"}, "status of 'P'"),
    ("P", {"cross": "P"}, "cross of 'P'"),
    (None, {"simples": "st"}, "simples"),
    (None, {"params": {}}, "params"),
])
def test_fields_must_be_json_lists(sl2r_doc, label, edit, field):
    """A string where a list belongs was split into characters: cayley
    ["D+D-"] named the labels D, + and -, and simples "st" two simples."""
    doc = _doc_with(sl2r_doc, label, **edit) if label else {**sl2r_doc, **edit}
    with pytest.raises(BlockFormatError, match=re.escape(f"{field} is not a list")):
        block_from_json(doc)
    assert [v.axiom for v in validate_block_doc(doc)] == ["AX_STRUCTURE"]


@pytest.mark.parametrize("edit, message", [
    (lambda doc: json.loads(json.dumps(doc).replace('"D+"', "7")),
     "label is not a string: 7"),
    (lambda doc: {**doc, "simples": [0]}, "simples entry 0 is not a string: 0"),
    (lambda doc: _doc_with(doc, "D+", cross=[7]),
     "cross entry 0 of 'D+' is not a string: 7"),
    (lambda doc: _doc_with(doc, "P", cayley=[[7, "D+"]]),
     "cayley target in entry 0 of 'P' is not a string: 7"),
])
def test_labels_must_be_json_strings(sl2r_doc, edit, message):
    """A label written as the JSON integer 7 in "label", "cross" and
    "cayley" was read as the label "7", and `blocks` reported its class."""
    doc = edit(sl2r_doc)
    with pytest.raises(BlockFormatError, match=re.escape(message)):
        block_from_json(doc)
    assert [v.axiom for v in validate_block_doc(doc)] == ["AX_STRUCTURE"]


def _nci2_squared_doc():
    other = block_from_json(
        {**block_to_json(builtin_nci2_block()), "simples": ["t"]})
    return block_to_json(product_block(builtin_nci2_block(), other))


@pytest.mark.parametrize("entry", [1.7, "3", True])
@pytest.mark.parametrize("row, col", [(0, 0), (1, 0)])
def test_braid_entries_must_be_json_integers(entry, row, col):
    """A braid entry 1.7 was read as 1 and "3" as 3."""
    doc = _nci2_squared_doc()
    doc["braid"][row][col] = entry
    with pytest.raises(BlockFormatError, match=(
            f"braid entry at row {row}, column {col} is not an integer")):
        block_from_json(doc)
    violations = validate_block_doc(doc)
    assert [v.axiom for v in violations] == ["AX_STRUCTURE"]
    assert f"row {row}, column {col}" in violations[0].message


def test_length_edit_names_arrow_axiom(sl2r_doc):
    doc = _doc_with(sl2r_doc, "P", length=2)
    violations = validate_block_doc(doc)
    assert any(v.axiom == "AX_ARROW_LENGTH" and
               v.message == "arrow length must drop by 1" for v in violations)


def test_unknown_label_detected(sl2r_doc):
    doc = _doc_with(sl2r_doc, "D+", cross=["X"])
    violations = validate_block_doc(doc)
    assert [v.axiom for v in violations] == ["AX_UNKNOWN_LABEL"]


def test_violation_reports_carry_location(sl2r_doc):
    doc = _doc_with(sl2r_doc, "P", cayley=[["D+"]])
    violations = validate_block_doc(doc)
    v = next(v for v in violations if v.axiom == "AX_PARITY1")
    assert v.label == "P" and v.simple == 0
    assert v.to_json()["axiom"] == "AX_PARITY1"
    # the dangling partner is flagged from its side too
    assert any(v.axiom == "AX_NCI1" and v.label == "D-" for v in violations)
