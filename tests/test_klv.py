import itertools
import json
from fractions import Fraction

import pytest

from klvkit.blockdata import (
    block_from_json,
    block_to_json,
    builtin_nci2_block,
    builtin_sl2r_block,
    generate_complex_block,
    product_block,
)
from klvkit import klv
from klvkit.hecke import ModuleElement
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
    _as_int,
    _halve,
    _solve_linear,
    verify_duality,
)
from klvkit.laurent import ONE, U, ZERO, LaurentPoly
from oracle_kl import ClassicalKL

A2_BRAID = ((1, 3), (3, 1))


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
              generate_complex_block(("s1", "s2"), ((1, 4), (4, 1)))):
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


def test_integrality_failures_name_parameter_and_simple():
    where = "at parameter '(P1,P1)', simple 's'"
    odd = ModuleElement({"P1": LaurentPoly({-2: 2, 0: 1})})
    with pytest.raises(DualityError, match=r"inconsistent or non-unique at "
                       r"parameter '\(P1,P1\)', simple 's'"):
        _halve(odd, where)
    assert _halve(odd + odd, where) == odd
    with pytest.raises(DualityError, match="non-unique at parameter"):
        _as_int(Fraction(1, 2), where)
    assert _as_int(Fraction(-4, 2), where) == -2


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


def _check_factorisation(ka, kb, monkeypatch):
    a, c = _FACTORS[ka]("a"), _FACTORS[kb]("b")
    prod = product_block(a, c)
    type2_solves = []
    solve = klv._solve_rp2_pair
    monkeypatch.setattr(klv, "_solve_rp2_pair",
                        lambda *args: type2_solves.append(1) or solve(*args))
    ta, tb, tp = _tables(a), _tables(c), _tables(prod)
    assert ("nci2" in (ka, kb)) == bool(type2_solves)
    pairs = {f"({x},{y})": (x, y) for x in a.params for y in c.params}
    assert set(prod.params) == set(pairs)
    for lab, (x, y) in pairs.items():
        assert prod.params[lab].length == a.params[x].length + c.params[y].length
    zeros = (ZERO, ZERO, 0)
    for (l1, (x1, y1)), (l2, (x2, y2)) in itertools.product(pairs.items(), repeat=2):
        for fa, fb, fp, zero in zip(ta, tb, tp, zeros):
            want = fa.get((x1, x2), zero) * fb.get((y1, y2), zero)
            assert fp.get((l1, l2), zero) == want, (l1, l2)


_KINDS = list(_FACTORS)


@pytest.mark.parametrize("ka,kb", [
    (ka, kb) for ka, kb in itertools.product(_KINDS, repeat=2)
    if (ka, kb).count("nci2") <= 1
])
def test_product_blocks_factorise(ka, kb, monkeypatch):
    _check_factorisation(ka, kb, monkeypatch)


@pytest.mark.xfail(strict=True, raises=DualityError,
                   reason="type-II duality with two type-II simples is open")
def test_two_type2_factors_factorise(monkeypatch):
    _check_factorisation("nci2", "nci2", monkeypatch)


def test_two_type2_factors_name_the_system():
    """The type-II system of nci2 x nci2 has 4 unknowns at rank 2: the
    solve names its size, the parameter and the simple."""
    prod = product_block(_FACTORS["nci2"]("a"), _FACTORS["nci2"]("b"))
    with pytest.raises(DualityError, match=(
            r"^duality system non-unique: 4 unknowns, rank 2 at parameter "
            r"'\(P1,P1\)', simple 'a1'$")):
        compute_duality(prod, partition_blocks(prod)[0])
