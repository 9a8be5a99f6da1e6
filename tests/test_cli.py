import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klvkit.blockdata import (
    block_to_json,
    builtin_nci2_block,
    builtin_sl2r_block,
    generate_complex_block,
)
from klvkit import correspondence, klv
from klvkit.cli import run

from test_blockdata import _doc_with
from test_rootdata import A1xA1, A2, B2, SL2_SPLIT, SWAP


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


def test_hecke_apply(capsys):
    code, rep = _run(capsys, "hecke-apply", "builtin:sl2r",
                     "--simple", "0", "--label", "P")
    assert code == 0
    assert rep["result"] == {"P": "-2 + 1*v^2", "D+": "-1 + 1*v^2",
                             "D-": "-1 + 1*v^2"}


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

    monkeypatch.setattr(correspondence, "compute_duality", fail)
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
    for i, (edit, field) in enumerate([({"roots": 5}, "roots"),
                                       ({"levi": 5}, "levi"),
                                       ({"roots": [[2, 0], [-2, 0]]}, "roots"),
                                       ({"roots": [[2.5], [-2]]}, "roots")]):
        path = _written(tmp_path, f"datum{i}.json", {**SL2_SPLIT, **edit})
        for argv in (["generic", path, "--xi-m", "0", "--nu", "1/2"],
                     ["arrangement", path, "--xi-m", "0"],
                     ["translate-check", path, "--xi", "1/2", "--mu", "1"]):
            assert run(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: malformed root-datum file: "), argv
            assert field in err, argv
    # Maps whose pairs are not a list, or that are not an object.
    for i, doc in enumerate([{"pairs": 5, "length_shift": 0},
                             [["D+", "D+"], ["D-", "D-"], ["P", "P"]]]):
        path = _written(tmp_path, f"map{i}.json", doc)
        assert run(["induce", "builtin:sl2r", "builtin:sl2r", path]) == 2
        assert capsys.readouterr().err.startswith(
            "error: malformed correspondence file: ")


def _written(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


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


def test_reports_are_deterministic(capsys):
    _run(capsys, "klv", "builtin:nci2")
    first = run(["klv", "builtin:nci2"])
    out1 = capsys.readouterr().out
    second = run(["klv", "builtin:nci2"])
    out2 = capsys.readouterr().out
    assert first == second == 0 and out1 == out2
    assert out1.endswith("\n")
    assert json.dumps(json.loads(out1), sort_keys=True, indent=2) + "\n" == out1
