import functools
import itertools
import json
import operator
from fractions import Fraction

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
from klvkit import klv
from klvkit.klv import (
    DualityError,
    MultiplicityError,
    PMatrix,
    RMatrix,
    compute_P,
    compute_duality,
    compute_order,
    duality_map,
    multiplicities,
    partition_blocks,
    _solve_linear,
    verify_duality,
)
from klvkit.laurent import ONE, U, ZERO, LaurentPoly
from oracle_kl import ClassicalKL

A2_BRAID = ((1, 3), (3, 1))
B2_BRAID = ((1, 4), (4, 1))


def _pipeline(b, blk=None):
    blk = blk or partition_blocks(b)[0]
    r = compute_duality(b, blk)
    p = compute_P(b, blk, r)
    return blk, r, p, multiplicities(b, p)


def test_partition_sl2r_single_class():
    assert partition_blocks(builtin_sl2r_block()) == [["D+", "D-", "P"]]


def test_partition_disjoint_union():
    doc = block_to_json(builtin_sl2r_block())
    extra = json.loads(json.dumps(doc["params"]))
    rename = {"D+": "d+", "D-": "d-", "P": "p"}
    for rec in extra:
        rec["label"] = rename[rec["label"]]
        rec["cross"] = [rename[x] for x in rec["cross"]]
        rec["cayley"] = [[rename[x] for x in c] if c else c for c in rec["cayley"]]
    doc["params"].extend(extra)
    b = block_from_json(doc)
    assert partition_blocks(b) == [["D+", "D-", "P"], ["d+", "d-", "p"]]


def test_partition_complex_connected():
    b = generate_complex_block(("s1", "s2"), A2_BRAID)
    assert partition_blocks(b) == [sorted(b.params)]


def test_order_sl2r():
    b = builtin_sl2r_block()
    down = compute_order(b, ["D+", "D-", "P"])
    assert down["P"] == {"D+", "D-", "P"}
    assert down["D+"] == {"D+"}
    assert down["D-"] == {"D-"}


def test_order_complex_matches_bruhat():
    names, braid = ("s1", "s2"), A2_BRAID
    b = generate_complex_block(names, braid)
    down = compute_order(b, sorted(b.params))
    kl = ClassicalKL(names, braid)
    lab = {kl.w.label(g): g for g in kl.elements}
    for x in b.params:
        for w in b.params:
            assert (x in down[w]) == kl.bruhat_leq(lab[x], lab[w]), (x, w)


def test_duality_golden_sl2r():
    b = builtin_sl2r_block()
    blk, r, p, mm = _pipeline(b)
    assert r.entry("D+", "P") == U - ONE
    assert r.entry("D-", "P") == U - ONE
    assert r.entry("D+", "D-").is_zero()
    for gamma in blk:
        assert r.entry(gamma, gamma) == ONE
    assert verify_duality(b, blk, r)


def test_duality_golden_type2():
    b = builtin_nci2_block()
    blk, r, p, mm = _pipeline(b)
    assert r.entry("D", "P1") == U - ONE
    assert r.entry("D", "P2") == U - ONE
    assert r.entry("P1", "P2").is_zero()
    assert verify_duality(b, blk, r)
    assert p.entry("D", "P1") == ONE
    assert mm.m == ((1, 1, 1), (0, 1, 0), (0, 0, 1))


def test_verify_rejects_perturbation():
    b = builtin_sl2r_block()
    blk, r, _, _ = _pipeline(b)
    bad = dict(r.entries)
    bad[("D+", "P")] = U
    assert not verify_duality(b, blk, RMatrix(r.order, bad, r.down))


def test_p_golden_sl2r():
    b = builtin_sl2r_block()
    blk, r, p, mm = _pipeline(b)
    assert p.entry("D+", "P") == ONE
    assert p.entry("D-", "P") == ONE
    assert p.entry("P", "P") == ONE
    assert mm.order == ("D+", "D-", "P")
    assert mm.M == ((1, 0, -1), (0, 1, -1), (0, 0, 1))
    assert mm.m == ((1, 0, 1), (0, 1, 1), (0, 0, 1))


def test_degree_bounds_and_signs():
    for b in (builtin_sl2r_block(), builtin_nci2_block(),
              generate_complex_block(("s1", "s2"), B2_BRAID)):
        for blk in partition_blocks(b):
            blk, r, p, mm = _pipeline(b, blk)
            for (phi, gamma), e in r.entries.items():
                n = b.params[gamma].length - b.params[phi].length
                assert e.is_u_polynomial() and e.degree_in_u() <= n
            for (phi, gamma), e in p.entries.items():
                n = b.params[gamma].length - b.params[phi].length
                assert e.is_u_polynomial()
                assert 2 * e.degree_in_u() <= n - 1
            for i, gamma in enumerate(mm.order):
                for j, delta in enumerate(mm.order):
                    if i != j and mm.m[i][j]:
                        assert (b.params[gamma].length
                                < b.params[delta].length)
                    assert mm.m[i][j] >= 0


def test_duality_map_round_trip():
    b = builtin_sl2r_block()
    blk, r, _, _ = _pipeline(b)
    dual = duality_map(b, r)
    assert dual["P"].coeff("P") == LaurentPoly({-2: 1})
    assert dual["D+"].coeff("D+") == ONE


def test_m_times_signed_M_is_identity():
    for b in (builtin_sl2r_block(),
              generate_complex_block(("s1", "s2"), A2_BRAID)):
        blk, r, p, mm = _pipeline(b)
        n = len(mm.order)
        prod = [[sum(mm.m[i][k] * mm.M[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)]
        assert prod == [[1 if i == j else 0 for j in range(n)]
                        for i in range(n)]


def test_minimal_parameter_has_unit_column():
    from klvkit.blockdata import is_minimal
    b = builtin_sl2r_block()
    blk, r, p, mm = _pipeline(b)
    for j, gamma in enumerate(mm.order):
        if is_minimal(b, gamma):
            col = [mm.m[i][j] for i in range(len(mm.order))]
            assert col == [1 if i == j else 0 for i in range(len(mm.order))]


def test_multiplicities_rejects_bad_triangularity():
    b = builtin_sl2r_block()
    bad = PMatrix(order=("D+", "D-", "P"), entries={("P", "D+"): ONE})
    with pytest.raises(MultiplicityError, match="not unitriangular") as exc:
        multiplicities(b, bad)
    assert str(exc.value) == "M not unitriangular at ('P', 'D+')"


def test_product_block_pipeline():
    other = block_from_json(
        {**block_to_json(builtin_nci2_block()), "simples": ["t"]})
    prod = product_block(builtin_sl2r_block(), other)
    for blk in partition_blocks(prod):
        blk, r, p, mm = _pipeline(prod, blk)
        assert verify_duality(prod, blk, r)
    # multiplicities factor: m((P,P1),(D+,D)) column entries multiply
    j = mm.order.index("(P,P1)")
    i = mm.order.index("(D+,D)")
    assert mm.m[i][j] == 1


def test_solve_linear_failure_states_size_and_rank():
    assert _solve_linear([({0: Fraction(1)}, Fraction(3))], 1) == [3]
    with pytest.raises(DualityError, match="non-unique: 2 unknowns, rank 1"):
        _solve_linear([({0: Fraction(1), 1: Fraction(1)}, Fraction(1))], 2)
    with pytest.raises(DualityError, match="inconsistent: 2 unknowns, rank 2"):
        _solve_linear([({0: Fraction(1)}, Fraction(1)),
                       ({1: Fraction(1)}, Fraction(1)),
                       ({0: Fraction(1), 1: Fraction(1)}, Fraction(3))], 2)


def test_level_failures_name_parameters_size_and_rank(monkeypatch):
    """A level solve that is non-unique or non-integral names the
    parameters of its length, the unknown count and the rank."""
    b = builtin_nci2_block()
    where = r"at length 1, parameters 'P1', 'P2'$"
    monkeypatch.setattr(klv, "_solve_linear", lambda eqs, n: [Fraction(1, 2)] * n)
    with pytest.raises(DualityError, match=(
            r"^duality system non-integral: 4 unknowns, rank 4 " + where)):
        compute_duality(b, ["D", "P1", "P2"])

    def short(eqs, n):
        raise DualityError(f"duality system non-unique: {n} unknowns, rank 3")

    monkeypatch.setattr(klv, "_solve_linear", short)
    with pytest.raises(DualityError, match=(
            r"^duality system non-unique: 4 unknowns, rank 3 " + where)):
        compute_duality(b, ["D", "P1", "P2"])


def test_down_set_failure_names_both_labels(monkeypatch):
    """A down-set that misses a term of D(gamma) is reported with phi
    and gamma."""
    b = builtin_sl2r_block()
    real = compute_order(b, ["D+", "D-", "P"])
    monkeypatch.setattr(klv, "compute_order",
                        lambda *_: {**real, "P": frozenset({"P", "D-"})})
    with pytest.raises(DualityError, match=r"inconsistent or non-unique: "
                       r"D\('P'\) has a term at 'D\+' outside its down-set"):
        compute_duality(b, ["D+", "D-", "P"])


# ---------------------------------------------------------------------------
# Factorisation oracle: on product_block(A, B), R, P and M are the
# Kronecker products of the factors' matrices.

def _rank_one(base, simple):
    return block_from_json({**block_to_json(base), "simples": [simple]})


_FACTORS = {
    "sl2r": lambda c: _rank_one(builtin_sl2r_block(), c + "1"),
    "nci2": lambda c: _rank_one(builtin_nci2_block(), c + "1"),
    "A1": lambda c: generate_complex_block((c + "1",), ((1,),)),
    "A2": lambda c: generate_complex_block((c + "1", c + "2"), A2_BRAID),
    "B2": lambda c: generate_complex_block((c + "1", c + "2"), B2_BRAID),
}


def _tables(b):
    """R and P entries (diagonal of P included) and the M entries of
    every class of b, keyed by label pairs; absent pairs are zero."""
    R, P, M = {}, {}, {}
    for blk in partition_blocks(b):
        blk, r, p, mm = _pipeline(b, blk)
        R.update(r.entries)
        P.update({(x, y): p.entry(x, y) for x in blk for y in blk})
        M.update({(x, y): mm.M[i][j] for i, x in enumerate(mm.order)
                  for j, y in enumerate(mm.order)})
    return R, P, M


def _check_factorisation(kinds):
    """product_block over the factors of `kinds`, left to right, against
    the Kronecker products of the factors' tables."""
    blocks = [_FACTORS[k](c) for k, c in zip(kinds, "abcd")]
    prod = functools.reduce(product_block, blocks)
    labels = {x: (x,) for x in blocks[0].params}
    for blk in blocks[1:]:
        labels = {f"({lab},{y})": t + (y,) for lab, t in labels.items()
                  for y in blk.params}
    assert set(prod.params) == set(labels)
    for lab, t in labels.items():
        assert prod.params[lab].length == sum(
            blk.params[x].length for blk, x in zip(blocks, t))
    factors, tp = [_tables(blk) for blk in blocks], _tables(prod)
    zeros = (ZERO, ZERO, 0)
    for (l1, t1), (l2, t2) in itertools.product(labels.items(), repeat=2):
        for i, zero in enumerate(zeros):
            want = functools.reduce(operator.mul, (
                f[i].get((x1, x2), zero) for f, x1, x2 in zip(factors, t1, t2)))
            assert tp[i].get((l1, l2), zero) == want, (kinds, l1, l2)


_KINDS = list(_FACTORS)


@pytest.mark.parametrize("ka,kb", list(itertools.product(_KINDS, repeat=2)))
def test_product_blocks_factorise(ka, kb, monkeypatch):
    type2_solves = []
    solve = klv._solve_level
    monkeypatch.setattr(klv, "_solve_level",
                        lambda *args: type2_solves.append(1) or solve(*args))
    _check_factorisation((ka, kb))
    assert ("nci2" in (ka, kb)) == bool(type2_solves)


# nci2 x nci2 with one more factor in one of three places: 13 products.
_TWO_TYPE2 = sorted({("nci2", "nci2")[:i] + (k,) + ("nci2", "nci2")[i:]
                     for k in _KINDS for i in range(3)})


# At most one draw per product: about 5 s on a 2-vCPU VM, nci2^3 2.3 s of it.
@settings(max_examples=len(_TWO_TYPE2), deadline=None)
@given(st.sampled_from(_TWO_TYPE2))
def test_products_with_two_type2_factors_factorise(kinds):
    """Three factors, at least two of them nci2 (18 to 72 parameters)."""
    _check_factorisation(kinds)


def test_two_type2_factors_golden():
    """nci2 x nci2: the parameters whose two descents are both type-II
    real are solved together at length 2."""
    prod = product_block(_FACTORS["nci2"]("a"), _FACTORS["nci2"]("b"))
    blk, r, p, mm = _pipeline(prod)
    one = U - ONE
    for top in ("(P1,P1)", "(P1,P2)", "(P2,P1)", "(P2,P2)"):
        assert r.entry("(D,D)", top) == one * one
        assert r.entry(f"(D,{top[4:6]})", top) == one
        assert r.entry(f"({top[1:3]},D)", top) == one
        assert p.entry("(D,D)", top) == ONE
    assert r.entry("(P1,P1)", "(P1,P2)").is_zero()
    assert r.entry("(P1,D)", "(P2,P1)").is_zero()
    assert mm.order == ("(D,D)", "(D,P1)", "(D,P2)", "(P1,D)", "(P2,D)",
                        "(P1,P1)", "(P1,P2)", "(P2,P1)", "(P2,P2)")
    assert mm.m == ((1, 1, 1, 1, 1, 1, 1, 1, 1),
                    (0, 1, 0, 0, 0, 1, 0, 1, 0),
                    (0, 0, 1, 0, 0, 0, 1, 0, 1),
                    (0, 0, 0, 1, 0, 1, 1, 0, 0),
                    (0, 0, 0, 0, 1, 0, 0, 1, 1),
                    (0, 0, 0, 0, 0, 1, 0, 0, 0),
                    (0, 0, 0, 0, 0, 0, 1, 0, 0),
                    (0, 0, 0, 0, 0, 0, 0, 1, 0),
                    (0, 0, 0, 0, 0, 0, 0, 0, 1))
