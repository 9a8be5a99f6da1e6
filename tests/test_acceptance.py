"""End-to-end acceptance suite.

Each test below is one acceptance criterion; the per-test PASSED/FAILED
line from `pytest -v` is the pass/fail line for that criterion.
"""

import json
import random
from fractions import Fraction

from klvkit.blockdata import (
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
from klvkit.correspondence import Correspondence, check_correspondence, \
    compare_multiplicities, induced_verdict, mult_by_block
from klvkit.gaussian import GaussRat, gvec
from klvkit.genericity import check_hypD, emit_arrangement, verdict
from klvkit.hecke import check_braid, check_quadratic
from klvkit.klv import (
    compute_P,
    compute_duality,
    compute_order,
    multiplicities,
    partition_blocks,
    verify_duality,
)
from klvkit.laurent import ONE, U, ZERO
from klvkit.rootdata import rootdatum_from_json
from oracle_kl import ClassicalKL
from reference_klv import rows

from test_rootdata import A2 as A2_DATUM
from test_rootdata import SL2_SPLIT

COXETER_SYSTEMS = {
    "A1": (("s",), ((1,),)),
    "A1xA1": (("s1", "s2"), ((1, 2), (2, 1))),
    "A2": (("s1", "s2"), ((1, 3), (3, 1))),
    "B2": (("s1", "s2"), ((1, 4), (4, 1))),
    "A3": (("s1", "s2", "s3"), ((1, 3, 2), (3, 1, 3), (2, 3, 1))),
}


def _relabeled_nci2(simple="t"):
    return block_from_json(
        {**block_to_json(builtin_nci2_block()), "simples": [simple]})


def _test_blocks():
    out = {
        "sl2r": builtin_sl2r_block(),
        "nci2": builtin_nci2_block(),
        "product": product_block(builtin_sl2r_block(), _relabeled_nci2()),
        "nci2xnci2": product_block(_relabeled_nci2("t1"), _relabeled_nci2("t2")),
    }
    for name, (names, braid) in COXETER_SYSTEMS.items():
        out[f"complex-{name}"] = generate_complex_block(names, braid)
    return out


def _pipeline(b, cls):
    r = compute_duality(b, cls)
    p = compute_P(b, cls, r)
    return r, p, multiplicities(b, p)


def test_criterion_1_sl2r_golden_values():
    b = builtin_sl2r_block()
    (cls,) = partition_blocks(b)
    r, p, mm = _pipeline(b, cls)
    assert r.entry("D+", "P") == U - ONE
    assert r.entry("D-", "P") == U - ONE
    assert r.entry("D+", "D-") == ZERO and r.entry("D-", "D+") == ZERO
    assert all(r.entry(g, g) == ONE for g in cls)
    assert p.entry("D+", "P") == ONE and p.entry("D-", "P") == ONE
    assert mm.order == ("D+", "D-", "P")
    assert rows(mm.M) == ((1, 0, -1), (0, 1, -1), (0, 0, 1))
    assert rows(mm.m) == ((1, 0, 1), (0, 1, 1), (0, 0, 1))


def test_criterion_2_matches_classical_kl_oracle():
    for name, (names, braid) in COXETER_SYSTEMS.items():
        b = generate_complex_block(names, braid)
        (cls,) = partition_blocks(b)
        _, p, _ = _pipeline(b, cls)
        oracle = ClassicalKL(names, braid).p_matrix()
        down = compute_order(b, cls)
        for w in cls:
            for x in cls:
                expected = oracle.get((x, w), ZERO)
                got = p.entry(x, w) if x in down[w] else ZERO
                assert got == expected, (name, x, w)
        if name == "A3":
            nontrivial = {k for k, v in oracle.items() if v == ONE + U}
            assert nontrivial == {
                ("e", "s2s1s3s2"), ("s2", "s2s1s3s2"),
                ("e", "s1s2s3s2s1"), ("s1", "s1s2s3s2s1"),
                ("s3", "s1s2s3s2s1"), ("s1s3", "s1s2s3s2s1"),
            }


def test_criterion_3_duality_properties_on_all_blocks():
    for name, b in _test_blocks().items():
        assert validate_block(b) == [], name
        assert check_quadratic(b) == (True, None), name
        for s in range(len(b.simples)):
            for t in range(s + 1, len(b.simples)):
                assert check_braid(b, s, t), (name, s, t)
        for cls in partition_blocks(b):
            r = compute_duality(b, cls)
            assert verify_duality(b, cls, r), name


def test_criterion_4_multiplicity_algebra():
    for name, b in _test_blocks().items():
        for cls in partition_blocks(b):
            _, p, mm = _pipeline(b, cls)
            n = len(mm.order)
            lengths = [b.params[g].length for g in mm.order]
            for i in range(n):
                assert mm.M[i][i] == 1 and mm.m[i][i] == 1
                for j in range(n):
                    assert mm.m[i][j] >= 0, name
                    if mm.M[i][j] and i != j:
                        assert lengths[i] < lengths[j], name
            prod = [[sum(mm.m[i][k] * mm.M[k][j] for k in range(n))
                     for j in range(n)] for i in range(n)]
            assert prod == [[int(i == j) for j in range(n)]
                            for i in range(n)], name
            for j, g in enumerate(mm.order):
                if is_minimal(b, g):
                    assert [mm.m[i][j] for i in range(n)] \
                        == [int(i == j) for i in range(n)], (name, g)


def test_criterion_5_correspondence_end_to_end():
    G = builtin_sl2r_block()
    ident = Correspondence({"D+": "D+", "D-": "D-", "P": "P"}, 0)
    swap = Correspondence({"D+": "D-", "D-": "D+", "P": "P"}, 0)
    for c in (ident, swap):
        assert check_correspondence(G, G, c) == []
        assert compare_multiplicities(mult_by_block(G), mult_by_block(G), c)
        for delta in G.params:
            assert induced_verdict(G, G, c, [delta])[0]["verdict"] == "Irreducible"

    def mutated(**edits):
        label = edits.pop("_label")
        doc = block_to_json(builtin_sl2r_block())
        for rec in doc["params"]:
            if rec["label"] == label:
                rec.update(edits)
        return block_from_json(doc)

    # mutating one status, one length, and one link on the target side
    # each flips at least one check
    bad_status = mutated(_label="D+", status=["CompactImaginary"],
                         cross=["D+"], cayley=[None])
    assert check_correspondence(G, bad_status, ident) != []
    bad_length = mutated(_label="P", length=3)
    assert check_correspondence(G, bad_length, ident) != []
    bad_link = mutated(_label="P", cayley=[["D+", "P"]])
    assert check_correspondence(G, bad_link, ident) != []
    # and a corrupted label map is caught even between valid blocks
    bad_map = Correspondence({"D+": "P", "D-": "D+", "P": "D-"}, 0)
    assert check_correspondence(G, G, bad_map) != []
    assert not compare_multiplicities(mult_by_block(G), mult_by_block(G), bad_map)


def test_criterion_6_genericity_exact_on_rank_one_split():
    d, lv = rootdatum_from_json(SL2_SPLIT)
    rng = random.Random(20260823)
    samples = [Fraction(rng.randint(-60, 60), rng.randint(1, 12))
               for _ in range(100)]
    samples += [Fraction(n) for n in range(-5, 6)]
    for t in samples:
        rec = verdict(d, lv, gvec([0]), (GaussRat(t),))
        # the positive coroot is (1), so its pairing with nu = (t) is t
        pairing_integral = (t.denominator == 1)
        assert (rec["verdict"] == "Main1") == (not pairing_integral), t
        if pairing_integral:
            assert rec["verdict"] == "NoConclusion"
    fams = emit_arrangement(d, lv, gvec([0]), (Fraction(-3), Fraction(3)))
    coset = next(f for f in fams if f.kind == "IntegerCoset")
    assert [str(m) for m in coset.members] == [
        "-3", "-2", "-1", "0", "1", "2", "3"]


def test_criterion_7_stabilizer_condition_on_rank_two():
    d, lv = rootdatum_from_json(A2_DATUM)
    ok, wit = check_hypD(d, lv, gvec(["1/3", "2/3"]))
    assert ok and wit is None
    ok, wit = check_hypD(d, lv, gvec([0, 0]))
    assert not ok and wit is not None


def _corruption_corpus():
    sl2r = block_to_json(builtin_sl2r_block())
    nci2 = block_to_json(builtin_nci2_block())
    a2 = block_to_json(generate_complex_block(
        ("s1", "s2"), ((1, 3), (3, 1))))

    def edit(base, label, **edits):
        doc = json.loads(json.dumps(base))
        for rec in doc["params"]:
            if rec["label"] == label:
                rec.update(edits)
        return doc

    def braid(base, rows):
        doc = json.loads(json.dumps(base))
        doc["braid"] = rows
        return doc

    return [
        ("length-up", edit(sl2r, "P", length=2), "AX_ARROW_LENGTH"),
        ("length-collapse", edit(sl2r, "D+", length=1), "AX_ARROW_LENGTH"),
        ("cross-unknown", edit(sl2r, "D+", cross=["X"]), "AX_UNKNOWN_LABEL"),
        ("cayley-unknown", edit(sl2r, "P", cayley=[["D+", "X"]]),
         "AX_UNKNOWN_LABEL"),
        ("cross-broken-involution", edit(sl2r, "D+", cross=["D+"]),
         "AX_CROSS_INVOLUTION"),
        ("cayley-dropped", edit(sl2r, "P", cayley=[None]), "AX_CAYLEY_DOMAIN"),
        ("cayley-too-small", edit(sl2r, "P", cayley=[["D+"]]), "AX_PARITY1"),
        ("status-complex-with-cayley", edit(sl2r, "P",
                                            status=["ComplexDescent"]),
         "AX_CAYLEY_DOMAIN"),
        ("status-compact-with-cayley", edit(sl2r, "D+",
                                            status=["CompactImaginary"]),
         "AX_CAYLEY_DOMAIN"),
        ("status-compact-cross-moved", edit(sl2r, "D+",
                                            status=["CompactImaginary"],
                                            cayley=[None]),
         "AX_FIXED_NO_CAYLEY"),
        ("status-wrong-imaginary-type", edit(sl2r, "D+",
                                             status=["NoncompactImaginaryII"]),
         "AX_NCI2"),
        ("parity-cross-moved", edit(sl2r, "P", cross=["D+"]),
         "AX_CROSS_INVOLUTION"),
        ("negative-length", edit(sl2r, "D+", length=-1), "AX_STRUCTURE"),
        ("status-array-short", edit(sl2r, "P", status=[]), "AX_STRUCTURE"),
        ("status-unknown-name", edit(sl2r, "P", status=["Bogus"]),
         "AX_STRUCTURE"),
        ("braid-diagonal", braid(sl2r, [[2]]), "AX_STRUCTURE"),
        ("braid-asymmetric", braid(a2, [[1, 3], [4, 1]]), "AX_STRUCTURE"),
        ("braid-bad-order", braid(a2, [[1, 5], [5, 1]]), "AX_STRUCTURE"),
        ("parity2-cross-fixed", edit(nci2, "P1", cross=["P1"]), "AX_PARITY2"),
        ("parity2-wrong-link", edit(nci2, "P1", cayley=[["P1"]]),
         "AX_PARITY2"),
        ("nci2-cayley-too-small", edit(nci2, "D", cayley=[["P1"]]),
         "AX_NCI2"),
        ("nci2-length-up", edit(nci2, "P1", length=2), "AX_ARROW_LENGTH"),
        ("nci2-as-type1", edit(nci2, "D", status=["NoncompactImaginaryI"]),
         "AX_NCI1"),
        ("complex-length-jump", edit(a2, "s1", length=3), "AX_ARROW_LENGTH"),
        ("complex-status-flip", edit(a2, "e",
                                     status=["ComplexDescent",
                                             "ComplexAscent"]),
         "AX_COMPLEX_PAIR"),
        ("complex-cross-fixed", edit(a2, "e", cross=["e", "s2"]),
         "AX_COMPLEX_PAIR"),
    ]


def test_criterion_8_corrupted_blocks_rejected():
    corpus = _corruption_corpus()
    assert len(corpus) >= 20
    for name, doc, expected_axiom in corpus:
        violations = validate_block_doc(doc)
        assert violations, name
        assert expected_axiom in {v.axiom for v in violations}, (
            name, [v.to_json() for v in violations])
    # the uncorrupted documents are all accepted
    for b in _test_blocks().values():
        assert validate_block_doc(block_to_json(b)) == []
