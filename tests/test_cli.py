import contextlib
import functools
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys

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
from klvkit import cli, klv, rootdata
from klvkit.cli import run

from reference_klv import rows
from test_blockdata import _doc_with
from test_klv import _COXETER, _FACTORS, _relabelled
from test_rootdata import A1xA1, A2, B2, B3, SL2_SPLIT, SWAP


def _run(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


@pytest.fixture
def sl2_path(tmp_path):
    p = tmp_path / "sl2split.json"
    p.write_text(json.dumps(SL2_SPLIT))
    return str(p)


def test_validate_builtin(capsys):
    code, rep = _run(capsys, "validate", "builtin:sl2r")
    assert code == 0
    assert rep["command"] == "validate"
    assert rep["inputs"] == {"builtin:sl2r": "builtin"}
    assert rep["violations"] == []


def test_validate_corrupted_file(capsys, tmp_path):
    doc = block_to_json(builtin_sl2r_block())
    doc["params"][2]["length"] = 5
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, rep = _run(capsys, "validate", str(p))
    assert code == 1
    assert any(v["axiom"] == "AX_ARROW_LENGTH" for v in rep["violations"])
    assert len(rep["inputs"][str(p)]) == 64  # sha256 hex digest


def test_blocks_partition(capsys):
    code, rep = _run(capsys, "blocks", "builtin:sl2r")
    assert code == 0
    assert rep["blocks"] == [["D+", "D-", "P"]]


@pytest.mark.parametrize("base, label, edit, axiom", [
    ("sl2r", "P", {"cayley": [["D+", "X"]]}, "AX_UNKNOWN_LABEL"),
    ("sl2r", "P", {"status": []}, "AX_STRUCTURE"),
    ("nci2", "P1", {"cross": ["X"]}, "AX_UNKNOWN_LABEL"),
])
def test_blocks_reports_violations(capsys, tmp_path, base, label, edit, axiom):
    blocks = {"sl2r": builtin_sl2r_block, "nci2": builtin_nci2_block}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(_doc_with(block_to_json(blocks[base]()), label, **edit)))
    code, rep = _run(capsys, "blocks", str(p))
    assert code == 1
    assert "blocks" not in rep
    assert axiom in {v["axiom"] for v in rep["violations"]}


_FUZZ_BASES = [
    block_to_json(builtin_sl2r_block()),
    block_to_json(builtin_nci2_block()),
    block_to_json(generate_complex_block(("s1", "s2"), ((1, 3), (3, 1)))),
]
_OTHER_TYPES = [None, True, 1, 1.5, "1", [], {}, [[None]]]


@st.composite
def _mutated_block_docs(draw):
    """One mutation of a valid block document: drop a key, change a
    value's type, point a link at an unknown label, or shorten an array.
    Drawn with the labels of the unmutated document."""
    base = draw(st.sampled_from(_FUZZ_BASES))
    doc = json.loads(json.dumps(base))
    rec = draw(st.sampled_from(doc["params"]))
    where = draw(st.sampled_from([doc, rec]))
    kind = draw(st.sampled_from(["drop", "retype", "unknown", "shorten"]))
    if kind == "drop":
        del where[draw(st.sampled_from(sorted(where)))]
    elif kind == "retype":
        key = draw(st.sampled_from(sorted(where)))
        where[key] = draw(st.sampled_from(
            [v for v in _OTHER_TYPES if type(v) is not type(where[key])]))
    elif kind == "unknown":
        s = draw(st.integers(0, len(rec["cross"]) - 1))
        if draw(st.booleans()) or rec["cayley"][s] is None:
            rec["cross"][s] = "X"
        else:
            rec["cayley"][s] = rec["cayley"][s] + ["X"]
    else:
        key = draw(st.sampled_from(
            sorted(k for k, v in where.items() if isinstance(v, list) and v)))
        where[key] = where[key][:-1]
    return [rec["label"] for rec in base["params"]], doc


@settings(max_examples=300, deadline=None)
@given(labels_doc=_mutated_block_docs())
def test_mutated_block_files_never_raise(tmp_path_factory, labels_doc):
    labels, doc = labels_doc
    p = tmp_path_factory.getbasetemp() / "mutated.json"
    p.write_text(json.dumps(doc))
    ident = tmp_path_factory.getbasetemp() / "ident.json"
    ident.write_text(json.dumps(
        {"pairs": [[x, x] for x in labels], "length_shift": 0}))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for command in ("blocks", "validate", "klv"):
            assert run([command, str(p)]) in (0, 1, 2), command
        assert run(["induce", str(p), str(p), str(ident)]) in (0, 1, 2)
        for label in labels:
            assert run(["hecke-apply", str(p), "--simple", "0",
                        "--label", label]) in (0, 1, 2), label


def test_hecke_apply(capsys):
    code, rep = _run(capsys, "hecke-apply", "builtin:sl2r",
                     "--simple", "0", "--label", "P")
    assert code == 0
    assert rep["result"] == {"P": "-2 + 1*v^2", "D+": "-1 + 1*v^2",
                             "D-": "-1 + 1*v^2"}


def test_hecke_apply_reports_violations_of_an_invalid_block(capsys, tmp_path):
    """An NCI2 parameter with one Cayley target once ended in a ValueError
    from T_s with a traceback; hecke-apply validates first, as blocks
    does."""
    path = _written(tmp_path, "nci2.json", _doc_with(
        block_to_json(builtin_nci2_block()), "D", cayley=[["nope"]]))
    code, rep = _run(capsys, "hecke-apply", path, "--simple", "0", "--label", "D")
    assert code == 1
    assert "result" not in rep
    assert rep["violations"] == [{
        "axiom": "AX_UNKNOWN_LABEL", "label": "D", "simple": 0,
        "message": "cayley target 'nope' is not in the block"}]


def test_klv_golden_with_check(capsys):
    code, rep = _run(capsys, "klv", "builtin:sl2r", "--check")
    assert code == 0
    assert rep["checks_passed"] is True
    assert rep["order"] == ["D+", "D-", "P"]
    assert rep["R"]["D+|P"] == "-1 + 1*v^2"
    assert rep["P"]["D+|P"] == "1"
    assert rep["M"] == [[[1, 0, -1], [0, 1, -1], [0, 0, 1]]]
    assert rep["m"] == [[[1, 0, 1], [0, 1, 1], [0, 0, 1]]]


def test_induce_require_verdict(capsys, tmp_path):
    mp = tmp_path / "ident.json"
    mp.write_text(json.dumps(
        {"pairs": [["D+", "D+"], ["D-", "D-"], ["P", "P"]],
         "length_shift": 0}))
    code, rep = _run(capsys, "induce", "builtin:sl2r", "builtin:sl2r",
                     str(mp), "--require-verdict")
    assert code == 0
    assert all(v["verdict"] == "Irreducible" for v in rep["verdicts"])
    code, rep = _run(capsys, "induce", "builtin:sl2r", "builtin:sl2r",
                     str(mp), "--delta", "P")
    assert code == 0 and len(rep["verdicts"]) == 1


def test_induce_reports_block_violations(capsys, tmp_path):
    # a cross target outside the block once raised KeyError in the map check
    bad = tmp_path / "bad_sl2r.json"
    bad.write_text(json.dumps(
        _doc_with(block_to_json(builtin_sl2r_block()), "D+", cross=["X"])))
    mp = tmp_path / "ident.json"
    mp.write_text(json.dumps(
        {"pairs": [["D+", "D+"], ["D-", "D-"], ["P", "P"]],
         "length_shift": 0}))
    code, rep = _run(capsys, "induce", str(bad), "builtin:sl2r", str(mp))
    assert code == 1
    assert "verdicts" not in rep
    assert rep["violations"]["target"] == []
    assert "AX_UNKNOWN_LABEL" in {v["axiom"] for v in rep["violations"]["source"]}


def test_induce_solve_failure_exits_1(capsys, tmp_path, monkeypatch):
    def fail(b, cls):
        raise klv.DualityError("duality system non-unique")

    monkeypatch.setattr(klv, "compute_duality", fail)
    mp = tmp_path / "ident.json"
    mp.write_text(json.dumps(
        {"pairs": [["D+", "D+"], ["D-", "D-"], ["P", "P"]],
         "length_shift": 0}))
    assert run(["induce", "builtin:sl2r", "builtin:sl2r", str(mp)]) == 1
    assert "non-unique" in capsys.readouterr().err
    assert run(["induce", "builtin:sl2r", "builtin:sl2r", str(mp),
                "--delta", "nope"]) == 2
    assert "unknown label" in capsys.readouterr().err


def test_induce_bad_shift_fails_requirement(capsys, tmp_path):
    mp = tmp_path / "shift.json"
    mp.write_text(json.dumps(
        {"pairs": [["D+", "D+"], ["D-", "D-"], ["P", "P"]],
         "length_shift": 5}))
    code, rep = _run(capsys, "induce", "builtin:sl2r", "builtin:sl2r",
                     str(mp), "--require-verdict")
    assert code == 1
    assert rep["verdicts"][0]["verdict"] == "NoConclusion"


def test_generic_verdicts(capsys, sl2_path):
    code, rep = _run(capsys, "generic", sl2_path, "--xi-m", "0",
                     "--nu", "3/4")
    assert code == 0 and rep["verdict"] == "Main1"
    code, rep = _run(capsys, "generic", sl2_path, "--xi-m", "0",
                     "--nu", "2", "--require-verdict")
    assert code == 1 and rep["verdict"] == "NoConclusion"
    assert rep["hypB"]["witness"] == {"root": [2]}


def test_arrangement_window(capsys, sl2_path):
    code, rep = _run(capsys, "arrangement", sl2_path, "--xi-m", "0",
                     "--window", "-3", "3")
    assert code == 0
    assert rep["window"] == ["-3", "3"]
    coset = rep["families"][0]
    assert coset["kind"] == "IntegerCoset"
    assert coset["members"] == ["-3", "-2", "-1", "0", "1", "2", "3"]


def test_vector_values_may_start_with_minus(capsys, tmp_path, sl2_path):
    code, rep = _run(capsys, "generic", sl2_path, "--xi-m", "-1/2",
                     "--nu", "-1")
    assert code == 0
    assert (code, rep) == _run(capsys, "generic", sl2_path, "--xi-m=-1/2",
                               "--nu=-1")
    p = tmp_path / "a1a1.json"
    p.write_text(json.dumps(A1xA1))
    code, rep = _run(capsys, "generic", str(p), "--xi-m", "-1,0",
                     "--nu", "-1,0")
    assert code == 0 and rep["verdict"]
    code, rep = _run(capsys, "arrangement", str(p), "--xi-m", "-1,0",
                     "--window", "-1/2", "3")
    assert code == 0 and rep["window"] == ["-1/2", "3"]
    code, rep = _run(capsys, "translate-check", sl2_path,
                     "--xi", "-1/2", "--mu", "-1")
    assert code == 0 and rep["violations"] == []
    code, rep = _run(capsys, "translate-check", str(p),
                     "--xi", "-1/2,0", "--mu", "-1,0")
    assert code == 0 and rep["violations"] == []


def test_translate_check(capsys, tmp_path, sl2_path):
    code, rep = _run(capsys, "translate-check", sl2_path,
                     "--xi", "1/2", "--mu", "1")
    assert code == 0 and rep["violations"] == []
    sq = tmp_path / "square.json"
    sq.write_text(json.dumps({
        "iota_xi": [["a", "A"]], "iota_xi_prime": [["a'", "A'"]],
        "tL": [["a", "a'"]], "tG": [["A", "A'"]],
    }))
    code, rep = _run(capsys, "translate-check", sl2_path,
                     "--xi", "1/2", "--mu", "1", "--square", str(sq))
    assert code == 0 and rep["square_commutes"] is True
    sq.write_text(json.dumps({
        "iota_xi": [["a", "A"]], "iota_xi_prime": [["a'", "X"]],
        "tL": [["a", "a'"]], "tG": [["A", "A'"]],
    }))
    code, rep = _run(capsys, "translate-check", sl2_path,
                     "--xi", "1/2", "--mu", "1", "--square", str(sq))
    assert code == 1
    assert rep["square_commutes"] is False and rep["witness"] == "a"


@pytest.mark.parametrize("argv", [
    ["generic", "--xi-m", "0", "--nu", "1/0"],
    ["arrangement", "--xi-m", "1/0"],
    ["arrangement", "--xi-m", "0", "--window", "1/0", "3"],
    ["translate-check", "--xi", "1/0", "--mu", "1"],
])
def test_zero_denominators_exit_2(capsys, sl2_path, argv):
    assert run([argv[0], sl2_path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "'1/0'" in captured.err
    assert "Traceback" not in captured.err


def test_malformed_inputs_exit_2(capsys, tmp_path, sl2_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["blocks", str(bad)]) == 2
    assert run(["blocks", str(tmp_path / "missing.json")]) == 2
    assert run(["hecke-apply", "builtin:sl2r",
                "--simple", "9", "--label", "P"]) == 2
    assert run(["generic", sl2_path, "--xi-m", "0", "--nu", "bogus"]) == 2
    assert run(["generic", sl2_path, "--xi-m", "0,0", "--nu", "0"]) == 2
    assert run(["no-such-command"]) == 2
    capsys.readouterr()
    # Root-datum files of the wrong shape once ended in a TypeError or a
    # ValueError from zip(), or (arrangement) in a report; a root 2.5 was
    # read as 2.
    # A repeated Levi index once passed: a_coordinates [0, 0] made
    # arrangement print the functional [1, 1] on a one-dimensional a*.
    repeated_a = {"simple_base": [[2]], "levi_simples": [], "a_coordinates": [0, 0]}
    repeated_levi = {"simple_base": [[2]], "levi_simples": [0, 0], "a_coordinates": []}
    # A negative rank was reported as a fault of theta or the roots.
    for i, (edit, field) in enumerate([({"rank": -1}, "rank"),
                                       ({"roots": 5}, "roots"),
                                       ({"levi": 5}, "levi"),
                                       ({"roots": [[2, 0], [-2, 0]]}, "roots"),
                                       ({"roots": [[2.5], [-2]]}, "roots"),
                                       ({"levi": repeated_a}, "a_coordinates"),
                                       ({"levi": repeated_levi}, "levi_simples")]):
        path = _written(tmp_path, f"datum{i}.json", {**SL2_SPLIT, **edit})
        for argv in (["generic", path, "--xi-m", "0", "--nu", "1/2"],
                     ["arrangement", path, "--xi-m", "0"],
                     ["translate-check", path, "--xi", "1/2", "--mu", "1"]):
            assert run(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: malformed root-datum file: "), argv
            assert field in err, argv
    # Root data of the right shape that break an axiom once got a verdict.
    mixed = {"simple_base": [[1, 0], [0, 1]], "levi_simples": [0],
             "a_coordinates": [1]}
    dependent = {"simple_base": [[1, -1], [0, 1], [1, 0]], "levi_simples": [0],
                 "a_coordinates": [0]}
    for i, (base, edit, rank, message) in enumerate([
            (SL2_SPLIT, {"coroots": [[2], [-1]]}, 1,
             "<coroot,root> != 2 at (2,)"),
            (B2, {"levi": mixed}, 2,
             "root (2, -1) has mixed signs over the base"),
            (B2, {"levi": dependent}, 2,
             "simple_base of 3 vectors has rank 2: it is linearly dependent")]):
        path = _written(tmp_path, f"axiom{i}.json", {**base, **edit})
        halves, ones = ",".join(["1/2"] * rank), ",".join(["1"] * rank)
        for argv in (["generic", path, "--xi-m", halves, "--nu", halves],
                     ["arrangement", path, "--xi-m", halves],
                     ["translate-check", path, "--xi", halves, "--mu", ones]):
            assert run(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err == f"error: invalid root datum: {message}\n", argv
    # Braid entries that are not JSON integers (1.7 was read as 1).
    other = {**block_to_json(builtin_nci2_block()), "simples": ["t"]}
    for i, entry in enumerate([1.7, "3", True]):
        doc = block_to_json(product_block(builtin_nci2_block(),
                                          block_from_json(other)))
        doc["braid"][0][1] = entry
        path = _written(tmp_path, f"braid{i}.json", doc)
        for argv in (["blocks", path], ["klv", path]):
            assert run(argv) == 2, argv
            assert capsys.readouterr().err == (
                "error: malformed block file: braid entry at row 0, "
                "column 1 is not an integer\n"), argv
        assert run(["validate", path]) == 1
        capsys.readouterr()
    # Maps whose pairs are not a list, or that are not an object.
    for i, doc in enumerate([{"pairs": 5, "length_shift": 0},
                             [["D+", "D+"], ["D-", "D-"], ["P", "P"]]]):
        path = _written(tmp_path, f"map{i}.json", doc)
        assert run(["induce", "builtin:sl2r", "builtin:sl2r", path]) == 2
        assert capsys.readouterr().err.startswith(
            "error: malformed correspondence file: ")
    # Map values that were coerced: a shift 1.9 ran as 1, true as 1 and
    # "3" as 3, and the pair [["D+"], "D+"] named the label "['D+']".
    for i, (edit, field) in enumerate([
            ({"length_shift": 1.9}, "length_shift"),
            ({"length_shift": True}, "length_shift"),
            ({"length_shift": "3"}, "length_shift"),
            ({"pairs": [[["D+"], "D+"], ["D-", "D-"], ["P", "P"]]}, "pairs"),
            ({"pairs": [["D+", "D+", "P"], ["D-", "D-"], ["P", "P"]]}, "pairs")]):
        path = _written(tmp_path, f"coerced{i}.json", {**_MAP_BASE, **edit})
        assert run(["induce", "builtin:sl2r", "builtin:sl2r", path]) == 2, edit
        err = capsys.readouterr().err
        assert err.startswith("error: malformed correspondence file: " + field), edit
    # Block fields given as a string were split into characters.
    sl2r = block_to_json(builtin_sl2r_block())
    for i, (doc, field) in enumerate([
            (_doc_with(_doc_with(sl2r, "D+", cayley=["P"]), "D-", cayley=["P"]),
             "cayley entry 0 of 'D+'"),
            (_doc_with(sl2r, "P", cayley=["D+D-"]), "cayley entry 0 of 'P'"),
            ({**sl2r, "simples": "st"}, "simples")]):
        path = _written(tmp_path, f"split{i}.json", doc)
        for argv in (["blocks", path], ["klv", path]):
            assert run(argv) == 2, argv
            assert capsys.readouterr().err == (
                f"error: malformed block file: {field} is not a list\n"), argv
        code, rep = _run(capsys, "validate", path)
        assert code == 1
        assert [v["axiom"] for v in rep["violations"]] == ["AX_STRUCTURE"]
    # Labels and simples that are not JSON strings were read through str().
    for i, (doc, message) in enumerate([
            (json.loads(json.dumps(sl2r).replace('"D+"', "7")),
             "label is not a string: 7"),
            ({**sl2r, "simples": [0]}, "simples entry 0 is not a string: 0"),
            (_doc_with(sl2r, "D+", cross=[7]), "cross entry 0 of 'D+' is not a string: 7"),
            (_doc_with(sl2r, "P", cayley=[["D+", 7]]),
             "cayley target in entry 0 of 'P' is not a string: 7")]):
        path = _written(tmp_path, f"int_label{i}.json", doc)
        for argv in (["blocks", path], ["klv", path],
                     ["hecke-apply", path, "--simple", "0", "--label", "P"],
                     ["induce", path, path, _written(tmp_path, "id.json", _MAP_BASE)]):
            assert run(argv) == 2, argv
            assert capsys.readouterr().err == (
                f"error: malformed block file: {message}\n"), argv
        code, rep = _run(capsys, "validate", path)
        assert code == 1
        assert [v["axiom"] for v in rep["violations"]] == ["AX_STRUCTURE"]
    # A block file that is not UTF-8 ended in a UnicodeDecodeError.
    raw = tmp_path / "not_utf8.json"
    raw.write_bytes(b"\xff\xfe{")
    for argv in (["klv", raw], ["blocks", raw], ["validate", raw],
                 ["hecke-apply", raw, "--simple", "0", "--label", "P"],
                 ["induce", "builtin:sl2r", raw, _written(tmp_path, "id.json", _MAP_BASE)]):
        assert run(list(map(str, argv))) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(
            "error: 'utf-8' codec can't decode byte 0xff"), argv
    # A "|" in a label made R keys collide: on A2 relabelled so, R(p, q|r)
    # and R(p|q, r) were both "p|q|r", and klv exited 0 with one lost.
    new = {"e": "p", "s1": "p|q", "s2s1": "r", "s1s2s1": "q|r"}
    doc = block_to_json(generate_complex_block(("s1", "s2"), ((1, 3), (3, 1))))
    for rec in doc["params"]:
        rec["label"] = new.get(rec["label"], rec["label"])
        rec["cross"] = [new.get(x, x) for x in rec["cross"]]
    path = _written(tmp_path, "bar_labels.json", doc)
    for argv in (["klv", path], ["blocks", path],
                 ["hecke-apply", path, "--simple", "0", "--label", "p"],
                 ["induce", path, path, _written(tmp_path, "id.json", _MAP_BASE)]):
        assert run(argv) == 2, argv
        assert capsys.readouterr() == (
            "", "error: malformed block file: label 'p|q' contains '|'\n"), argv
    code, rep = _run(capsys, "validate", path)
    assert code == 1
    assert [v["axiom"] for v in rep["violations"]] == ["AX_STRUCTURE"]
    # Square files that once got a report: a label 1 was read as "1", and
    # of repeated sources only the last was kept, so with a -> A dropped
    # the second square was reported to commute.
    for i, square in enumerate([
            {"iota_xi": [[1, "A"]], "iota_xi_prime": [["a'", "A'"]],
             "tL": [["1", "a'"]], "tG": [["A", "A'"]]},
            {"iota_xi": [["a", "A"], ["a", "B"]], "iota_xi_prime": [["a'", "X"]],
             "tL": [["a", "a'"]], "tG": [["B", "X"], ["A", "Y"]]}]):
        sq = _written(tmp_path, f"square{i}.json", square)
        assert run(["translate-check", sl2_path, "--xi", "1/2", "--mu", "1",
                    "--square", sq]) == 2, square
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(
            "error: malformed square file: "), square


def _written(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _unreadable(tmp_path):
    """Path -> part of its error: a JSON array nested 100,000 deep and a
    block file with a 5,000-digit length, which json.load meets with a
    RecursionError and a ValueError."""
    doc = block_to_json(builtin_sl2r_block())
    doc["params"][0]["length"] = "LENGTH"
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    (tmp_path / "digits.json").write_text(json.dumps(doc).replace('"LENGTH"', "9" * 5000))
    return {str(tmp_path / "deep.json"): "JSON nested too deeply",
            str(tmp_path / "digits.json"): "Exceeds the limit (4300 digits)"}


def test_unreadable_json_exits_2_naming_the_file(capsys, tmp_path, sl2_path):
    """Each subcommand exits 2 with one error line that names the file
    when json cannot read it; both files once ended in a traceback."""
    pairs = _written(tmp_path, "id.json", _MAP_BASE)
    for path, why in _unreadable(tmp_path).items():
        for argv in (["validate", path], ["blocks", path],
                     ["hecke-apply", path, "--simple", "0", "--label", "P"],
                     ["klv", path], ["klv", path, "--check"],
                     ["induce", path, "builtin:sl2r", pairs],
                     ["induce", "builtin:sl2r", path, pairs],
                     ["induce", "builtin:sl2r", "builtin:sl2r", path],
                     ["generic", path, "--xi-m", "0", "--nu", "1/2"],
                     ["arrangement", path, "--xi-m", "0"],
                     ["translate-check", path, "--xi", "1/2", "--mu", "1"],
                     ["translate-check", sl2_path, "--xi", "1/2", "--mu", "1",
                      "--square", path]):
            assert run(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: {path}: "), argv
            assert why in err and err.count("\n") == 1, argv


def test_unreadable_json_reaches_stderr_without_a_traceback(tmp_path):
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    for path, why in _unreadable(tmp_path).items():
        proc = subprocess.run([sys.executable, "-m", "klvkit.cli", "klv", path],
                              capture_output=True, text=True, env=env, check=False)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(f"error: {path}: ") and why in proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_digest_is_the_sha256_of_the_file(tmp_path):
    """The builtin SHA-256 of `_digest` agrees with hashlib's, across the
    64-byte block boundaries and on larger files."""
    rng = random.Random(43)
    for n in [0, 1, 55, 56, 63, 64, 65, 127, 128, 1000, 1 << 16] + [
            rng.randrange(1 << 12) for _ in range(20)]:
        data = rng.randbytes(n)
        path = tmp_path / f"{n}.bin"
        path.write_bytes(data)
        assert cli._digest(str(path)) == hashlib.sha256(data).hexdigest()


def test_klv_loads_no_openssl(tmp_path):
    """`klvkit klv` hashes its input with the interpreter's own SHA-256:
    no _hashlib, and so no OpenSSL, is loaded."""
    path = _written(tmp_path, "sl2r.json", block_to_json(builtin_sl2r_block()))
    code = ("import contextlib, io, sys\n"
            "from klvkit import cli\n"
            "for argv in (['klv', 'builtin:sl2r'], ['klv', sys.argv[1]]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.run(argv) == 0\n"
            "print('_hashlib' in sys.modules)\n")
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, path], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout == "False\n"


_DATUM_BASES = [SL2_SPLIT, A2, A1xA1, SWAP, B2]
_MAP_BASE = {"pairs": [["D+", "D+"], ["D-", "D-"], ["P", "P"]], "length_shift": 0}


def _mutate(draw, doc):
    """Drop a key, change a value's type or shorten a list, at the top of
    doc or one level down."""
    where = doc
    inner = [v for v in doc.values() if isinstance(v, (dict, list)) and v]
    if inner and draw(st.booleans()):
        where = draw(st.sampled_from(inner))
    keys = sorted(where) if isinstance(where, dict) else list(range(len(where)))
    key = draw(st.sampled_from(keys))
    kind = draw(st.sampled_from(["drop", "retype", "shorten"]))
    if kind == "drop":
        del where[key]
    elif kind == "retype":
        where[key] = draw(st.sampled_from(
            [v for v in _OTHER_TYPES + [5, [5]] if type(v) is not type(where[key])]))
    elif isinstance(where[key], list) and where[key]:
        where[key] = where[key][:-1]
    else:
        where[key] = []


@st.composite
def _mutated_rootdata_and_maps(draw):
    base = draw(st.sampled_from(_DATUM_BASES))
    datum, mp = json.loads(json.dumps(base)), json.loads(json.dumps(_MAP_BASE))
    if draw(st.booleans()):
        _mutate(draw, datum)
    else:
        _mutate(draw, mp)
    return base["rank"], datum, mp


@settings(max_examples=300, deadline=None)
@given(case=_mutated_rootdata_and_maps())
def test_mutated_rootdata_and_maps_never_raise(tmp_path_factory, case):
    rank, datum, mp = case
    path = tmp_path_factory.getbasetemp() / "datum.json"
    path.write_text(json.dumps(datum))
    map_path = tmp_path_factory.getbasetemp() / "map.json"
    map_path.write_text(json.dumps(mp))
    zeros, halves = ",".join(["0"] * rank), ",".join(["1/2"] * rank)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for argv in (["generic", str(path), "--xi-m", zeros, "--nu", halves],
                     ["arrangement", str(path), "--xi-m", zeros],
                     ["translate-check", str(path), "--xi", halves,
                      "--mu", ",".join(["1"] * rank)],
                     ["induce", "builtin:sl2r", "builtin:sl2r", str(map_path)]):
            assert run(argv) in (0, 1, 2), argv


@pytest.mark.parametrize("doc", _DATUM_BASES + [B3])
def test_generic_decomposes_each_root_once(capsys, tmp_path, monkeypatch, doc):
    """Loading, validating and the four hypotheses share one split."""
    decompose, calls = rootdata._decompose, []

    def counting(*args):
        calls.append(args[0])
        return decompose(*args)

    monkeypatch.setattr(rootdata, "_decompose", counting)
    path = _written(tmp_path, "datum.json", doc)
    zeros = ",".join(["0"] * doc["rank"])
    code, rep = _run(capsys, "generic", path, "--xi-m", zeros, "--nu", zeros)
    assert code == 0 and rep["verdict"]
    assert len(calls) == len(doc["roots"])


def test_generic_beyond_weyl_cap(capsys, tmp_path):
    # A1^14 has 2^14 = 16384 Weyl elements, more than rootdata's
    # enumeration cap of 10080; the root tests never enumerate them.
    n = 14
    unit = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    p = tmp_path / "a1x14.json"
    p.write_text(json.dumps({
        "rank": n,
        "roots": [[2 * x for x in e] for e in unit] + [[-2 * x for x in e] for e in unit],
        "coroots": unit + [[-x for x in e] for e in unit],
        "theta": [[-x for x in e] for e in unit],
        "levi": {"simple_base": [[2 * x for x in e] for e in unit],
                 "levi_simples": list(range(7)),
                 "a_coordinates": list(range(7, n))},
    }))
    code, rep = _run(capsys, "generic", str(p), "--xi-m", ",".join(["0"] * n),
                     "--nu", ",".join(["0"] * 7 + ["1/2"] * 7))
    # xi = xi_m + nu is singular exactly on the Levi roots, and nu pairs
    # to 1/2 with each nilradical coroot: A fails, B, C and D hold
    assert code == 0 and rep["verdict"] == "Main2"
    assert rep["hypA"] == {"holds": False, "witness": {"root": [-2] + [0] * 13}}
    assert all(rep[h] == {"holds": True} for h in ("hypB", "hypC", "hypD"))


def _report_inputs(tmp_path, sl2_path):
    """The files that the argvs of test_reports_are_deterministic name."""
    odd = _relabelled(builtin_sl2r_block(), ['D\n"+', "D\\-é", "P"], range(3))
    return {
        "sl2": sl2_path,
        "odd": _written(tmp_path, "odd.json", block_to_json(odd)),
        "bad": _written(tmp_path, "bad.json", _doc_with(
            block_to_json(builtin_sl2r_block()), "D+", cross=["X"])),
        "map": _written(tmp_path, "ident.json", _MAP_BASE),
        "square": _written(tmp_path, "square.json", {
            "iota_xi": [["a", "A"]], "iota_xi_prime": [["a'", "X"]],
            "tL": [["a", "a'"]], "tG": [["A", "A'"]]}),
    }


# The exit code and argv of each subcommand, by test id; {name} stands
# for a file of _report_inputs.
_REPORT_ARGVS = {
    "validate": (0, ["validate", "builtin:sl2r"]),
    "validate-violations": (1, ["validate", "{bad}"]),
    "blocks": (0, ["blocks", "builtin:nci2"]),
    "blocks-odd-labels": (0, ["blocks", "{odd}"]),
    "hecke-apply-odd-labels": (0, ["hecke-apply", "{odd}", "--simple", "0", "--label", "P"]),
    "klv": (0, ["klv", "builtin:nci2"]),
    "klv-check-odd-labels": (0, ["klv", "{odd}", "--check"]),
    "induce": (0, ["induce", "builtin:sl2r", "builtin:sl2r", "{map}"]),
    "induce-violations": (1, ["induce", "{bad}", "builtin:sl2r", "{map}"]),
    "generic": (0, ["generic", "{sl2}", "--xi-m", "0", "--nu", "3/4"]),
    "arrangement": (0, ["arrangement", "{sl2}", "--xi-m", "0"]),
    "translate-check-witness": (1, ["translate-check", "{sl2}", "--xi", "1/2", "--mu", "1",
                                    "--square", "{square}"]),
}


@pytest.mark.parametrize("code, argv", list(_REPORT_ARGVS.values()), ids=list(_REPORT_ARGVS))
def test_reports_are_deterministic(capsys, tmp_path, sl2_path, code, argv):
    """Every subcommand prints the same report twice, and the report is
    its own json.dumps(sort_keys=True, indent=2) plus a newline: reports
    with and without violations, with an empty list value, and with
    labels that hold a newline, a quote, a backslash and an é."""
    files = _report_inputs(tmp_path, sl2_path)
    argv = [a.format(**files) for a in argv]
    first = run(argv)
    out1 = capsys.readouterr().out
    second = run(argv)
    out2 = capsys.readouterr().out
    assert first == second == code and out1 == out2
    assert out1.endswith("\n")
    assert json.dumps(json.loads(out1), sort_keys=True, indent=2) + "\n" == out1


class _Pieces(list):
    """A stdout that keeps each write apart."""

    def write(self, piece):
        self.append(piece)


def test_klv_report_is_written_in_small_pieces(tmp_path):
    """D4, 192 parameters: the report is written piece by piece, and no
    piece is longer than a quarter of it."""
    b = generate_complex_block(("s1", "s2", "s3", "s4"), _COXETER["D4"])
    assert len(b.params) == 192
    path = _written(tmp_path, "d4.json", block_to_json(b))
    pieces = _Pieces()
    with contextlib.redirect_stdout(pieces):
        assert run(["klv", path]) == 0
    report = "".join(pieces)
    assert json.dumps(json.loads(report), sort_keys=True, indent=2) + "\n" == report
    assert 4 * max(map(len, pieces)) <= len(report)


# Classes of different polynomials, all over the simples a1 and b1.
_UNION_PARTS = [("sl2r", "sl2r"), ("sl2r", "nci2"), ("nci2", "nci2"),
                ("nci2", "A1"), ("A1", "A1"), ("A1", "sl2r")]


def test_klv_report_matches_one_str_per_entry(capsys, tmp_path):
    """A block file of six classes: klv prints the json.dumps of the
    payload built with str() of every R and P entry.  klv keys its table
    of strings by id(), which is safe only because it keeps the R and P
    of every class alive until the write ends: were they freed class by
    class, a later class could reuse their ids and get the wrong text."""
    params = []
    for i, kinds in enumerate(_UNION_PARTS):
        part = functools.reduce(product_block, [
            _FACTORS[k](c) for k, c in zip(kinds, "ab")])
        renamed = _relabelled(part, [f"{i}:{x}" for x in sorted(part.params)],
                              range(len(part.params)))
        params += block_to_json(renamed)["params"]
    doc = {**block_to_json(part), "params": params}
    path = _written(tmp_path, "union.json", doc)
    b = block_from_json(doc)
    classes = klv.partition_blocks(b)
    assert len(classes) == len(_UNION_PARTS)
    for check in (False, True):
        code = run(["klv", path] + ["--check"] * check)
        out = capsys.readouterr().out
        payload = {"blocks": [], "order": [], "R": {}, "P": {}, "M": [], "m": []}
        for cls in classes:
            res = klv.solve_block(b, cls, check=check)
            payload["blocks"].append(cls)
            payload["order"].extend(res.order)
            payload["R"].update({f"{x}|{y}": str(v) for (x, y), v in res.r.entries.items()})
            payload["P"].update({f"{x}|{y}": str(v) for (x, y), v in res.p.entries.items()})
            payload["M"].append(rows(res.M))
            payload["m"].append(rows(res.m))
        if check:
            payload["checks_passed"] = True
        digest = hashlib.sha256((tmp_path / "union.json").read_bytes()).hexdigest()
        report = {"command": "klv", "inputs": {path: digest}, **payload}
        assert code == 0
        assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"


def _union_doc(parts, names):
    """A block file of one class per pair of kinds in parts, each a
    product over the simples a1 and b1, with the labels renamed in turn
    from names; no parts make an empty block."""
    params = []
    for kinds in parts:
        part = functools.reduce(product_block, [
            _FACTORS[k](c) for k, c in zip(kinds, "ab")])
        n = len(part.params)
        params += block_to_json(_relabelled(part, names[:n], range(n)))["params"]
        names = names[n:]
    return {"simples": ["a1", "b1"], "braid": [[1, 2], [2, 1]],
            "infchar_tag": "union", "params": params}


def _klv_oracle(path, check):
    """The klv report as it was built before it was written from the
    solved classes: a payload dict with a str per R and P entry, rendered
    by json.dumps."""
    with open(path, encoding="utf-8") as fh:
        b = block_from_json(json.load(fh))
    payload = {"blocks": [], "order": [], "R": {}, "P": {}, "M": [], "m": []}
    for cls in klv.partition_blocks(b):
        res = klv.solve_block(b, cls, check=check)
        payload["blocks"].append(cls)
        payload["order"].extend(res.order)
        for name, mat in (("R", res.r), ("P", res.p)):
            payload[name].update({f"{x}|{y}": str(v) for (x, y), v in mat.entries.items()})
        payload["M"].append(rows(res.M))
        payload["m"].append(rows(res.m))
    if check:
        payload["checks_passed"] = True
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    report = {"command": "klv", "inputs": {path: digest}, **payload}
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


_LABEL_CHARS = ["a", "b", '"', "\\", "\x00", "\n", "\x7f", "é", "日", "\U0001f600"]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(_UNION_PARTS), max_size=3), st.data())
def test_klv_report_matches_the_payload_oracle(tmp_path_factory, parts, data):
    """Relabelled unions of none to three classes, in both modes: labels
    with quotes, backslashes, control and non-ASCII characters, and
    labels that are prefixes of one another.  No label holds a "|":
    `block_from_json` rejects one."""
    labels = st.one_of(st.sampled_from(["a", "ab", "b"]),
                       st.text(st.sampled_from(_LABEL_CHARS), min_size=1, max_size=3))
    n = sum(len(_FACTORS[k]("a").params) * len(_FACTORS[l]("b").params) for k, l in parts)
    names = data.draw(st.lists(labels, min_size=n, max_size=n, unique=True))
    path = _written(tmp_path_factory.mktemp("union"), "union.json", _union_doc(parts, names))
    for check in (False, True):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(["klv", path] + ["--check"] * check) == 0
        assert out.getvalue() == _klv_oracle(path, check)


def test_klv_prints_nothing_when_a_later_class_fails(capsys, tmp_path, monkeypatch):
    """Every class is solved before the first byte is written: a solve
    that fails on the second class leaves stdout empty and exits 1."""
    path = _written(tmp_path, "union.json", _union_doc(
        _UNION_PARTS[:3], [f"q{i}" for i in range(27)]))
    solve, calls = klv.solve_block, []

    def failing(b, cls, check=False):
        calls.append(cls)
        if len(calls) == 2:
            raise klv.PSolveError("column 'q9' of P is not self-dual")
        return solve(b, cls, check)

    monkeypatch.setattr(klv, "solve_block", failing)
    for check in (False, True):
        calls.clear()
        assert run(["klv", path] + ["--check"] * check) == 1
        assert capsys.readouterr() == ("", "error: column 'q9' of P is not self-dual\n")
        assert len(calls) == 2


def test_klv_into_a_closed_pipe_exits_1_quietly(tmp_path):
    """A reader that takes a few bytes of the D4 report and closes the
    pipe ends klvkit with exit 1 and nothing on stderr."""
    b = generate_complex_block(("s1", "s2", "s3", "s4"), _COXETER["D4"])
    path = _written(tmp_path, "d4.json", block_to_json(b))
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    with subprocess.Popen([sys.executable, "-m", "klvkit.cli", "klv", path],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        for _ in range(10):
            assert proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 1
    assert err == b""


def test_one_parser_answers_every_call_as_a_first_call(capsys, sl2_path):
    """`run` builds its parser once per process.  In one process, klv,
    generic, a usage error and --help, run on that one parser, give the
    stdout, stderr and exit code that each gives on a parser built for it
    alone."""
    argvs = [["klv", "builtin:sl2r", "--check"],
             ["generic", sl2_path, "--xi-m", "0", "--nu", "3/4"],
             ["klv", "builtin:sl2r", "--no-such-option"],
             ["--help"]]

    def outcome(argv):
        code = run(argv)
        out, err = capsys.readouterr()
        return code, out, err

    first = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        first.append(outcome(argv))
    cli._build_parser.cache_clear()
    assert [outcome(argv) for argv in argvs] == first
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in first] == [0, 0, 2, 0]
    assert "error: unrecognized arguments: --no-such-option" in first[2][2]
    assert first[3][1].startswith("usage: klvkit")
