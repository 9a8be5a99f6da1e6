import functools
import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from klvkit import cli, hecke, klv
from klvkit.blockdata import (
    SimpleStatus,
    block_from_json,
    block_to_json,
    builtin_nci2_block,
    builtin_sl2r_block,
    generate_complex_block,
    product_block,
    validate_block,
)
from klvkit.hecke import apply_T, check_braid, check_quadratic
from klvkit.klv import partition_blocks
from klvkit.laurent import ONE, U, LaurentPoly

import reference_klv
import test_klv
from reference_klv import ModuleElement, basis, rows
from test_klv import _FACTORS, _REFERENCE_BLOCKS, _compact_and_nonparity_block

U1 = U - ONE
U_INV = LaurentPoly({-2: 1})


def test_sl2r_action_table():
    b = builtin_sl2r_block()
    assert apply_T(b, 0, "P") == {"P": U - 2, "D+": U1, "D-": U1}
    assert apply_T(b, 0, "D+") == {"D-": ONE, "P": ONE}
    assert apply_T(b, 0, "D-") == {"D+": ONE, "P": ONE}


def test_type2_parity_action():
    b = builtin_nci2_block()
    # (u-1)*self - cross + (u-1)*cayley target
    assert apply_T(b, 0, "P1") == {"P1": U1, "P2": -ONE, "D": U1}
    assert apply_T(b, 0, "D") == {"D": ONE, "P1": ONE, "P2": ONE}


def test_complex_action_is_regular_representation():
    b = generate_complex_block(("s1", "s2"), ((1, 3), (3, 1)))
    assert apply_T(b, 0, "e") == {"s1": ONE}
    assert apply_T(b, 0, "s1") == {"e": U, "s1": U1}
    assert apply_T(b, 1, "s1") == {"s2s1": ONE}


def test_compact_and_nonparity_cases():
    b = _compact_and_nonparity_block()
    assert apply_T(b, 0, "c") == {"c": U}
    assert apply_T(b, 0, "n") == {"n": -ONE}
    assert check_quadratic(b) == (True, None)


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


def _g2():
    return generate_complex_block(("s1", "s2"), ((1, 6), (6, 1)))


def test_T_table_is_built_once_and_matches_per_call_reference(capsys, tmp_path):
    blocks = [builtin_sl2r_block(), builtin_nci2_block(),
              generate_complex_block(("s1", "s2"), ((1, 4), (4, 1))),
              product_block(builtin_sl2r_block(), block_from_json(
                  {**block_to_json(builtin_nci2_block()), "simples": ["t"]})),
              _g2(), _REFERENCE_BLOCKS["nci2xnci2"](),
              product_block(_FACTORS["sl2r"]("a"), _FACTORS["nci2"]("b")),
              _compact_and_nonparity_block()]
    assert {status for b in blocks for p in b.params.values()
            for status in p.status} == set(SimpleStatus)
    for b in blocks:
        for s in range(len(b.simples)):
            for label in b.params:
                row = hecke._T_rows(b, s)[label]
                # no empty label and no zero coefficient
                assert row and all(t and all(t.values()) for t in row.values())
                result = apply_T(b, s, label)
                assert result == reference_klv.T_basis(b, s, label).coeffs
                assert hecke._T_rows(b, s)[label] is row
                assert all(p._t is row[mu] for mu, p in result.items())
        # the classes, order, duality, certificate, P-solve and braid
        # check read these rows and keep no other table with the block
        for cls in partition_blocks(b):
            assert klv.solve_block(b, cls, check=True).verified
        n = len(b.simples)
        assert all(check_braid(b, s, t) for s, t in itertools.product(range(n), repeat=2))
        assert list(b.derived) == ["T rows"]
        with pytest.raises(ValueError, match="unknown simple index: -1"):
            apply_T(b, -1, label)
        with pytest.raises(ValueError, match=f"unknown simple index: {len(b.simples)}"):
            apply_T(b, len(b.simples), label)
        with pytest.raises(ValueError, match="unknown label: nope"):
            apply_T(b, len(b.simples), "nope")
    # hecke-apply renders the str of each reference coefficient
    b = blocks[5]
    path = tmp_path / "nci2xnci2.json"
    path.write_text(json.dumps(block_to_json(b)))
    for s in range(len(b.simples)):
        for label in sorted(b.params):
            assert cli.run(["hecke-apply", str(path), "--simple", str(s),
                            "--label", label]) == 0
            result = json.loads(capsys.readouterr().out)["result"]
            assert result == {mu: str(p) for mu, p
                              in reference_klv.T_basis(b, s, label).coeffs.items()}


def _coefficients(*elements):
    return [c for m in elements for p in m.coeffs.values() for c in p.terms.values()]


_WIDTH_BLOCKS = {
    "G2": _g2,
    "B3": lambda: generate_complex_block(
        ("s1", "s2", "s3"), ((1, 4, 2), (4, 1, 3), (2, 3, 1))),
    "B2xsl2r": _REFERENCE_BLOCKS["B2xsl2r"],
    "nci2xnci2": _REFERENCE_BLOCKS["nci2xnci2"],
}


@pytest.mark.parametrize("name", sorted(_WIDTH_BLOCKS))
def test_digit_widths_hold_every_packed_coefficient(name):
    """Each coefficient that `check_braid` and `intertwines` pack, read
    off the reference module elements, is one balanced base-2^w digit
    (|c| < 2^(w-1)) at the width w that each of them picks."""
    b = _WIDTH_BLOCKS[name]()
    n = len(b.simples)
    for s, t in itertools.permutations(range(n), 2):
        half = 1 << hecke._braid_width(b, s, t) - 1
        for label in b.params:
            lhs = rhs = basis(label)
            for i in range(b.braid_order(s, t)):
                lhs = reference_klv.apply_T(b, (s, t)[i % 2], lhs)
                rhs = reference_klv.apply_T(b, (t, s)[i % 2], rhs)
                assert all(abs(c) < half for c in _coefficients(lhs, rhs))
    for blk in partition_blocks(b):
        r = klv.compute_duality(b, blk)
        tp1 = [{x: klv._tp1(b, s, x) for x in r.order} for s in range(n)]
        half = 1 << klv._PackedDuality(b, r)._intertwining_width(tp1) - 1
        dual = reference_klv.duality_map(b, r)
        for s in range(n):
            for gamma in r.order:
                # u D((T_s + 1) gamma) and (T_s + 1) D(gamma)
                g = basis(gamma)
                lhs = reference_klv.apply_D(dual, reference_klv.apply_T(b, s, g) + g)
                rhs = reference_klv.apply_T(b, s, dual[gamma]) + dual[gamma]
                assert lhs == rhs.scale(U_INV)
                assert all(abs(c) < half for c in _coefficients(lhs, rhs))


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


# Bases of the mutations below, each with its simples named apart.
_MUTATION_BASES = {
    "sl2r": lambda: _FACTORS["sl2r"]("a"),
    "nci2": lambda: _FACTORS["nci2"]("a"),
    "A2": lambda: _FACTORS["A2"]("a"),
    "sl2rxsl2r": lambda: product_block(_FACTORS["sl2r"]("a"), _FACTORS["sl2r"]("b")),
    "sl2rxnci2": lambda: product_block(_FACTORS["sl2r"]("a"), _FACTORS["nci2"]("b")),
    "nci2xnci2": lambda: product_block(_FACTORS["nci2"]("a"), _FACTORS["nci2"]("b")),
    "nci2xA1": lambda: product_block(_FACTORS["nci2"]("a"), _FACTORS["A1"]("b")),
}

# Label and simple indices are taken modulo the counts of the base.
_MUTATIONS = st.one_of(
    st.tuples(st.just("status"), st.integers(0, 99), st.integers(0, 9),
              st.sampled_from([x.value for x in SimpleStatus])),
    st.tuples(st.just("cross"), st.integers(0, 99), st.integers(0, 9), st.integers(0, 99)),
    st.tuples(st.just("cayley"), st.integers(0, 99), st.integers(0, 9),
              st.lists(st.integers(0, 99), max_size=2)),
    st.tuples(st.just("length"), st.integers(0, 99), st.integers(0, 3)),
    st.tuples(st.just("copy"), st.integers(0, 99)),
)


def _mutated(base, mutations):
    """The block document of base with the mutations applied in turn.
    ("copy", i) adds a copy of the smallest set of labels that holds
    label i and is closed under every cross action, under new names, its
    links inside the set renamed and those outside it kept: nothing links
    to the copy, so the copy is the one that a link-back check finds."""
    doc = block_to_json(base)
    n = len(doc["simples"])
    for step, (kind, i, *rest) in enumerate(mutations):
        recs = sorted(doc["params"], key=lambda rec: rec["label"])
        rec = recs[i % len(recs)]
        if kind == "length":
            rec["length"] = rest[0]
            continue
        if kind == "copy":
            by_label = {r["label"]: r for r in recs}
            closed = [rec["label"]]
            for x in closed:
                closed += sorted(set(by_label[x]["cross"]) - set(closed))
            new = {x: f"{x}#{step}" for x in closed}
            for x in closed:
                twin = json.loads(json.dumps(by_label[x]))
                twin["label"] = new[x]
                twin["cross"] = [new[y] for y in twin["cross"]]
                twin["cayley"] = [c and [new.get(y, y) for y in c] for c in twin["cayley"]]
                doc["params"].append(twin)
            continue
        s = rest[0] % n
        if kind == "status":
            rec["status"][s] = rest[1]
        elif kind == "cross":
            rec["cross"][s] = recs[rest[1] % len(recs)]["label"]
        else:
            rec["cayley"][s] = sorted({recs[j % len(recs)]["label"] for j in rest[1]}) or None
    return doc


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_MUTATION_BASES)), st.lists(_MUTATIONS, min_size=1, max_size=3))
# A copy of the RP1 label, of the NCI2 label and of the NCI1 pair: each
# breaks only the link back of its own status.
@example("sl2r", [("copy", 2)])
@example("nci2", [("copy", 0)])
@example("sl2r", [("copy", 0)])
def test_valid_blocks_satisfy_the_quadratic_relation(name, mutations):
    """The lemma of `validate_block`: on blocks mutated in statuses,
    cross actions, Cayley sets, lengths and copies of labels, whenever it
    finds nothing, the quadratic relation holds."""
    b = block_from_json(_mutated(_MUTATION_BASES[name](), mutations))
    if validate_block(b) == []:
        assert reference_klv.check_quadratic(b) == (True, None)


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


# ---------------------------------------------------------------------------
# The generators of a class, from `klv._descent`, against the T-row
# ranking of the reference.

def _named_blocks():
    """Every valid block that test_klv and this module build by name."""
    yield from (f() for f in test_klv._WIDENING_BLOCKS.values())
    yield from (f() for f in test_klv._INTERNED.values())
    yield from (f("a") for f in test_klv._PARTITION_FACTORS.values())
    for ka, kb in itertools.product(test_klv._KINDS, repeat=2):
        yield product_block(_FACTORS[ka]("a"), _FACTORS[kb]("b"))
    for kinds in test_klv._TWO_TYPE2:
        yield functools.reduce(product_block, [_FACTORS[k](c) for k, c in zip(kinds, "abc")])
    for braid in test_klv._COXETER.values():
        yield generate_complex_block(tuple(f"s{i + 1}" for i in range(len(braid))), braid)
    yield test_klv._rank_zero_block({"a": 0, "b": 1, "c": 2, "d": 2})
    yield from (f() for f in _WIDTH_BLOCKS.values())
    yield from _QUADRATIC_BLOCKS
    yield from (f() for f in _MUTATION_BASES.values())


def _assert_generators_agree(b):
    for blk in partition_blocks(b):
        assert klv._generators(b, blk) == reference_klv.generators(b, blk), blk


def test_generators_match_the_t_row_ranking_on_every_named_block():
    for b in _named_blocks():
        assert validate_block(b) == []
        _assert_generators_agree(b)


def test_entries_views_agree_with_a_dict_of_the_columns():
    """R's and P's `entries`, a view over their columns, read as the dict
    built from those columns does, on every named block: its length, keys,
    values and items in order, and get and in on every pair of labels."""
    for b in _named_blocks():
        for blk in partition_blocks(b):
            res = klv.solve_block(b, blk)
            for mat in (res.r, res.p):
                want = {(phi, g): v for g, col in mat.cols.items() for phi, v in col.items()}
                view = mat.entries
                assert len(view) == len(want)
                assert list(view) == list(want)
                assert [id(v) for v in view.values()] == [id(v) for v in want.values()]
                assert list(view.items()) == list(want.items())
                for key in [*itertools.product(blk, repeat=2), blk[0], (blk[0],), ("?", blk[0])]:
                    assert (key in view) == (key in want), key
                    assert view.get(key) is want.get(key), key


@pytest.mark.parametrize("name", ["A3", "sl2rxnci2xA1", "nci2xnci2"])
def test_shared_term_tables_keep_their_values(name, tmp_path, capsys):
    """The T rows share one term table per case; `klv --check`, which
    reads them in every stage, changes none of them."""
    b = _REFERENCE_BLOCKS[name]()
    path = tmp_path / "block.json"
    path.write_text(json.dumps(block_to_json(b)))
    assert cli.run(["klv", str(path), "--check"]) == 0
    assert json.loads(capsys.readouterr().out)["checks_passed"] is True
    assert [hecke._ONE, hecke._U, hecke._NEG, hecke._U1, hecke._U2] == [
        {0: 1}, {2: 1}, {0: -1}, {2: 1, 0: -1}, {2: 1, 0: -2}]
    fresh = _REFERENCE_BLOCKS[name]()
    for s in range(len(b.simples)):
        for label in b.params:
            assert ({mu: LaurentPoly(t) for mu, t in hecke._T_row(fresh, s, label).items()}
                    == reference_klv.T_basis(b, s, label).coeffs)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_MUTATION_BASES)), st.lists(_MUTATIONS, min_size=1, max_size=3))
def test_generators_match_the_t_row_ranking_on_mutated_blocks(name, mutations):
    """Mutated sl2r, nci2 and A2 products that `validate_block` accepts."""
    b = block_from_json(_mutated(_MUTATION_BASES[name](), mutations))
    if validate_block(b) == []:
        _assert_generators_agree(b)


# ---------------------------------------------------------------------------
# The labels that `check_braid` and `klv._PackedDuality.intertwines` skip,
# and the spans that carry their checks to them.

def _span(b, s, gamma):
    """The labels whose T_s images give gamma, as (x, others): gamma is
    T_s x minus the others, by the case of its status at s; None when
    gamma is a T_s-generator."""
    p = b.params[gamma]
    st = p.status[s]
    if st is SimpleStatus.COMPLEX_DESCENT:
        return p.cross[s], []
    if st is SimpleStatus.RP1:
        x, other = sorted(p.cayley[s])
        return x, [other]
    if st is SimpleStatus.RP2 and p.cross[s] < gamma:
        (x,) = p.cayley[s]
        return x, [x, p.cross[s]]
    return None


def test_each_skipped_label_is_in_the_t_s_span_of_kept_ones():
    """On every valid named block, at every simple s: a label that
    `klv._t_generator` skips is T_s x minus other labels, all of them kept at s
    and, at a complex or RP1 descent, shorter, as `check_braid`'s
    induction needs; no other label is skipped."""
    for b in _named_blocks():
        for s, gamma in itertools.product(range(len(b.simples)), b.params):
            span = _span(b, s, gamma)
            assert klv._t_generator(b.params[gamma], s) == (span is None), (gamma, s)
            if span is None:
                continue
            x, others = span
            image = reference_klv.T_basis(b, s, x)
            for y in others:
                image = image - basis(y)
            assert image == basis(gamma), (gamma, s)
            assert all(klv._t_generator(b.params[y], s) for y in [x, *others])
            derived = b.params[gamma].status[s] in hecke._DERIVED
            assert derived == (b.params[gamma].status[s] is not SimpleStatus.RP2)
            if derived:
                assert all(b.params[y].length < b.params[gamma].length for y in [x, *others])


@pytest.mark.parametrize("kinds", [("sl2r", "sl2r"), ("sl2r", "A1"), ("nci2", "sl2r")])
def test_braid_check_tries_the_noncompact_imaginary_labels(kinds):
    """Rank-one factors with braid order 3 instead of 2: the relation
    fails, and among the labels that `check_braid` tries, only those with
    a noncompact imaginary status at one of the simples see it."""
    b = _with_braid_order(product_block(_FACTORS[kinds[0]]("a"), _FACTORS[kinds[1]]("b")),
                          0, 1, 3)
    noncompact = (SimpleStatus.NCI1, SimpleStatus.NCI2)
    for label in b.sorted_labels():
        status = b.params[label].status
        if not noncompact[0] in status and not noncompact[1] in status:
            lhs, rhs = basis(label), basis(label)
            for i in range(3):
                lhs = reference_klv.apply_T(b, (0, 1)[i % 2], lhs)
                rhs = reference_klv.apply_T(b, (1, 0)[i % 2], rhs)
            if lhs != rhs:
                assert set(status) & hecke._DERIVED, label
    assert not check_braid(b, 0, 1) and not check_braid(b, 1, 0)
    assert not reference_klv.check_braid(b, 0, 1)


# ---------------------------------------------------------------------------
# m on all-complex classes: the inversion formula against the
# back-substitution.

_COMPLEX_BASES = {
    "A2": lambda: _FACTORS["A2"]("a"),
    "B2": lambda: _FACTORS["B2"]("a"),
    "A1xA1": lambda: product_block(_FACTORS["A1"]("a"), _FACTORS["A1"]("b")),
    "A1xA2": lambda: product_block(_FACTORS["A1"]("a"), _FACTORS["A2"]("b")),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_COMPLEX_BASES)), st.lists(_MUTATIONS, min_size=1, max_size=3),
       st.data())
def test_multiplicities_match_back_substitution_on_mutated_complex_blocks(name, mutations,
                                                                          data):
    """Mutated complex blocks that `validate_block` accepts with every
    status complex, relabelled and reordered: on each class m is the
    back-substitution's, whether it was read off M or not."""
    b = block_from_json(_mutated(_COMPLEX_BASES[name](), mutations))
    complex_ = {SimpleStatus.COMPLEX_ASCENT, SimpleStatus.COMPLEX_DESCENT}
    if validate_block(b) or any(set(p.status) - complex_ for p in b.params.values()):
        return
    n = len(b.params)
    b = test_klv._relabelled(b, data.draw(st.permutations([f"q{i:02d}" for i in range(n)])),
                             data.draw(st.permutations(range(n))))
    for blk in partition_blocks(b):
        p = klv.compute_P(b, blk, klv.compute_duality(b, blk))
        mm, want = klv.multiplicities(b, p), reference_klv.back_substitution(b, p)
        assert (mm.order, rows(mm.M), rows(mm.m)) == (want.order, want.M, want.m)
