import contextlib
import functools
import itertools
import json
import operator
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klvkit.blockdata import (
    BlockData,
    Parameter,
    SimpleStatus,
    block_from_json,
    block_to_json,
    builtin_nci2_block,
    builtin_sl2r_block,
    generate_complex_block,
    product_block,
    validate_block,
)
from klvkit import cli, klv
from klvkit.coxeter import CoxeterGroup, _mat_mul
from klvkit.klv import (
    DualityError,
    MultiplicityError,
    PMatrix,
    PSolveError,
    RMatrix,
    compute_P,
    compute_duality,
    compute_order,
    multiplicities,
    partition_blocks,
    _solve_linear,
    verify_duality,
)
from klvkit.laurent import ONE, U, ZERO, LaurentPoly
from oracle_kl import ClassicalKL
import reference_klv
from reference_klv import ModuleElement, by_column, rows

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


def _compact_and_nonparity_block():
    return block_from_json({
        "simples": ["s"], "braid": [[1]], "infchar_tag": "x",
        "params": [
            {"label": "c", "length": 0, "cartan_class": "",
             "status": ["CompactImaginary"], "cross": ["c"], "cayley": [None]},
            {"label": "n", "length": 0, "cartan_class": "",
             "status": ["RealNonparity"], "cross": ["n"], "cayley": [None]},
        ],
    })


def test_partition_compact_and_nonparity_labels_stand_alone():
    b = _compact_and_nonparity_block()
    assert partition_blocks(b) == reference_klv.partition_blocks(b) == [["c"], ["n"]]


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
    assert rows(mm.m) == ((1, 1, 1), (0, 1, 0), (0, 0, 1))


@pytest.mark.parametrize("key, poly", [
    (("D+", "D+"), LaurentPoly({0: 2})),  # diagonal: f never reads it
    (("D+", "D-"), U - ONE),  # outside the down-set of D-: f skips it
])
def test_p_safety_net_rejects_column_that_is_not_self_dual(key, poly):
    """Entries of R that the column solve does not read still enter D;
    the self-duality check of each column catches them."""
    b = builtin_sl2r_block()
    blk, r, _, _ = _pipeline(b)
    bad = RMatrix(r.order, by_column({**r.entries, key: poly}), r.down)
    with pytest.raises(PSolveError, match=re.escape(
            f"column {key[1]!r} of P is not self-dual")):
        compute_P(b, blk, bad)


def test_verify_rejects_perturbation():
    b = builtin_sl2r_block()
    blk, r, _, _ = _pipeline(b)
    bad = dict(r.entries)
    bad[("D+", "P")] = U
    assert not verify_duality(b, blk, RMatrix(r.order, by_column(bad), r.down))


def test_p_golden_sl2r():
    b = builtin_sl2r_block()
    blk, r, p, mm = _pipeline(b)
    assert p.entry("D+", "P") == ONE
    assert p.entry("D-", "P") == ONE
    assert p.entry("P", "P") == ONE
    assert mm.order == ("D+", "D-", "P")
    assert rows(mm.M) == ((1, 0, -1), (0, 1, -1), (0, 0, 1))
    assert rows(mm.m) == ((1, 0, 1), (0, 1, 1), (0, 0, 1))


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
    dual = reference_klv.duality_map(b, r)
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
    bad = PMatrix(order=("D+", "D-", "P"), cols=by_column({("P", "D+"): ONE}))
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


def test_solve_linear_keeps_exact_quotients_in_ints():
    """A pivot that divides its row gives ints; one that does not gives
    the exact Fraction."""
    sol = _solve_linear([({0: 2, 1: 4}, 6), ({1: 3}, 3)], 2)
    assert sol == [1, 1] and all(type(x) is int for x in sol)
    assert _solve_linear([({0: 2}, 1)], 1) == [Fraction(1, 2)]


_COEFFICIENTS = st.one_of(st.integers(-3, 3), st.sampled_from([7, -12, 1 << 70]))


@st.composite
def _systems(draw):
    """(equations, unknowns): one to three components on unknowns drawn
    apart from each other.  Each has the solution x / d for a random
    integer vector x and d in 1, 2, 3 (its rows scaled by d), with rows
    whose right side may be off by one, and as many rows as unknowns,
    one fewer or up to two more: unique, singular, inconsistent and
    non-integral systems all occur."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    names = draw(st.permutations(range(sum(sizes))))
    equations = []
    for k in sizes:
        unknowns, names = names[:k], names[k:]
        x = draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k))
        d = draw(st.sampled_from([1, 1, 2, 3]))
        for _ in range(draw(st.integers(k - 1, k + 2))):
            a = draw(st.lists(_COEFFICIENTS, min_size=k, max_size=k))
            rhs = sum(c * y for c, y in zip(a, x)) + draw(st.sampled_from([0, 0, 0, 1]))
            equations.append(({v: d * c for v, c in zip(unknowns, a)}, rhs))
    draw(st.randoms()).shuffle(equations)
    return equations, sum(sizes)


def _solve_outcome(solve, equations, n):
    try:
        return solve(equations, n)
    except DualityError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_sparse_solve_agrees_with_dense_elimination(system):
    """The sparse solve gives the solution of the reference's dense
    `Fraction` elimination, or its error with the same unknown count and
    rank."""
    equations, n = system
    assert (_solve_outcome(_solve_linear, equations, n)
            == _solve_outcome(reference_klv.solve_linear, equations, n))


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
    prod = product_block(_FACTORS[ka]("a"), _FACTORS[kb]("b"))
    for blk in partition_blocks(prod):
        blk, r, p, mm = _pipeline(prod, blk)
        assert p == reference_klv.compute_P(prod, r)
        want = reference_klv.multiplicities(prod, p)
        assert (mm.order, rows(mm.M), rows(mm.m)) == (want.order, want.M, want.m)


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
    assert rows(mm.m) == ((1, 1, 1, 1, 1, 1, 1, 1, 1),
                    (0, 1, 0, 0, 0, 1, 0, 1, 0),
                    (0, 0, 1, 0, 0, 0, 1, 0, 1),
                    (0, 0, 0, 1, 0, 1, 1, 0, 0),
                    (0, 0, 0, 0, 1, 0, 0, 1, 1),
                    (0, 0, 0, 0, 0, 1, 0, 0, 0),
                    (0, 0, 0, 0, 0, 0, 1, 0, 0),
                    (0, 0, 0, 0, 0, 0, 0, 1, 0),
                    (0, 0, 0, 0, 0, 0, 0, 0, 1))


# ---------------------------------------------------------------------------
# The reference duality map: an involution that intertwines T_s + 1.

_MODULE_BLOCKS = {
    "A3": lambda: generate_complex_block(
        ("s1", "s2", "s3"), ((1, 3, 2), (3, 1, 3), (2, 3, 1))),
    "B2xsl2r": lambda: product_block(_FACTORS["B2"]("a"), _FACTORS["sl2r"]("b")),
    "nci2xnci2": lambda: product_block(_FACTORS["nci2"]("a"), _FACTORS["nci2"]("b")),
}


@functools.lru_cache(maxsize=None)
def _block_and_dual(name):
    b = _MODULE_BLOCKS[name]()
    dual = {}
    for blk in partition_blocks(b):
        dual.update(reference_klv.duality_map(b, compute_duality(b, blk)))
    return b, dual


_small_polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-6, 6), st.integers(-4, 4), max_size=4))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_MODULE_BLOCKS)), st.data())
def test_module_actions_match_fold_reference(name, data):
    b, dual = _block_and_dual(name)
    labels = sorted(b.params)
    m = ModuleElement(data.draw(st.dictionaries(
        st.sampled_from(labels), _small_polys, max_size=12)))
    s = data.draw(st.integers(0, len(b.simples) - 1))
    # D is an involution and intertwines T_s + 1 with u^(-1)(T_s + 1)
    apply_D = reference_klv.apply_D
    assert apply_D(dual, apply_D(dual, m)) == m
    lhs = apply_D(dual, reference_klv.apply_T(b, s, m) + m)
    assert lhs == reference_klv.ts_plus_one_over_u(b, s, apply_D(dual, m))


# ---------------------------------------------------------------------------
# verify_duality on packed D, and compute_P, against the references.

@functools.lru_cache(maxsize=None)
def _solved(name):
    b = _MODULE_BLOCKS[name]()
    return b, [compute_duality(b, blk) for blk in partition_blocks(b)]


def _p_outcome(compute, *args, **kwargs):
    try:
        return compute(*args, **kwargs)
    except PSolveError as exc:
        return str(exc)


def _packed(b, r, width=None):
    """D of r packed, starting from the given digit width if any."""
    packed = klv._PackedDuality(b, r)
    packed.width = width or packed.width
    return packed


@contextlib.contextmanager
def _packed_from(width=None):
    """Wherever klv packs D, start from the given digit width if any."""
    with pytest.MonkeyPatch.context() as mp:
        if width:
            class Narrow(klv._PackedDuality):
                def __init__(self, *args):
                    super().__init__(*args)
                    self.width = width

            mp.setattr(klv, "_PackedDuality", Narrow)
        yield


def _solve_all_columns(b, blk, r, check):
    """compute_P with every column solved from R, as it solves the columns
    without a complex or RP1 descent."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(klv, "_descent", lambda p: None)
        return compute_P(b, blk, r, check)


def _assert_agrees(b, r, width=None, solve=compute_P):
    blk = list(r.order)
    with _packed_from(width):
        assert verify_duality(b, blk, r) == reference_klv.verify_duality(b, r)
        assert (_p_outcome(solve, b, blk, r, check=True)
                == _p_outcome(reference_klv.compute_P, b, r))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_MODULE_BLOCKS)), st.data())
def test_packed_duality_matches_references(name, data):
    """Valid R, and R with one coefficient changed by +-1 or +-2^k for k
    across the digit width chosen for it, or with c v^i - c v^j added,
    which keeps the value at u = 1.  The v-exponents i and j are even and
    in 0..2n, or else odd, negative or above 2n, which `verify_duality`
    rejects before it packs D and the solve from R must still handle.
    Recursed columns of compute_P do not read R, so the P half solves
    every column from R."""
    b, rs = _solved(name)
    r = data.draw(st.sampled_from(rs))
    w = klv._PackedDuality(b, r).width
    pairs = sorted((phi, g) for g in r.order for phi in r.down[g])
    phi, gamma = data.draw(st.sampled_from(pairs))
    n = b.params[gamma].length - b.params[phi].length
    c = data.draw(st.sampled_from([0, 1, -1] + [s << k for k in range(w + 2)
                                                for s in (1, -1)]))
    if data.draw(st.booleans()):
        exponents = st.integers(0, n).map(lambda i: 2 * i)
    else:
        exponents = st.sampled_from([-3, -2, -1, 1, 2 * n + 1, 2 * n + 2, 2 * n + 3])
    i, j = data.draw(exponents), data.draw(exponents)
    delta = {i: c}
    if data.draw(st.booleans()) and i != j:
        delta[j] = -c
    entries = dict(r.entries)
    entries[(phi, gamma)] = r.entry(phi, gamma) + LaurentPoly(delta)
    bad = RMatrix(r.order, by_column(entries), r.down)
    _assert_agrees(b, bad, solve=_solve_all_columns)
    # the same from a digit width far too narrow for the coefficients
    _assert_agrees(b, bad, width=2, solve=_solve_all_columns)


def test_valid_duality_passes_packed_checks():
    for name in sorted(_MODULE_BLOCKS):
        b, rs = _solved(name)
        for r in rs:
            packed = klv._PackedDuality(b, r)
            assert packed.involutive() and packed.intertwines(), name
            _assert_agrees(b, r)


def _rank_zero_block(lengths):
    """A block without simples; only the lengths of its labels matter."""
    return BlockData((), (), "x", {
        lab: Parameter(lab, l, "", (), (), ()) for lab, l in lengths.items()})


def _r_from_p(b, p_entries):
    """The R-matrix whose D makes each column C(gamma) = sum of
    P(phi, gamma) phi self-dual: D(C(gamma)) = v^(-2 l gamma) C(gamma).
    Every label of shorter length is below."""
    order = tuple(sorted(b.params, key=lambda x: (b.params[x].length, x)))
    lens = {x: b.params[x].length for x in order}
    down = {g: frozenset(x for x in order if lens[x] < lens[g]) | {g}
            for g in order}
    dual = {}
    for g in order:
        col = ModuleElement({g: ONE, **{x: p_entries[(x, g)] for x in down[g]
                                         if (x, g) in p_entries}})
        d = col.scale(LaurentPoly({-2 * lens[g]: 1}))
        for x in down[g] - {g}:
            d = d - dual[x].scale(p_entries.get((x, g), ZERO).bar())
        dual[g] = d
    entries = {}
    for g in order:
        for x, poly in dual[g].coeffs.items():
            sign = -1 if (lens[g] - lens[x]) % 2 else 1
            entries[(x, g)] = poly.shifted(2 * lens[g]) * sign
    return RMatrix(order, by_column(entries), down)


def test_huge_coefficients_widen_the_digits():
    """P entries near 2^90 give R entries near 2^180: the solve from R
    finds them, and the packed checks of `verify_duality`, started from
    4-bit digits, must widen until their sums compare exactly."""
    b = _rank_zero_block({"a": 0, "b": 1, "c": 2, "d": 3, "e": 3})
    big = (1 << 90) + 12345
    p_entries = {
        ("a", "b"): LaurentPoly({0: big}),
        ("a", "c"): LaurentPoly({0: -big}),
        ("b", "c"): LaurentPoly({0: 3}),
        ("a", "d"): LaurentPoly({0: 7, 2: big - 1}),
        ("b", "d"): LaurentPoly({0: -(big >> 3)}),
        ("c", "d"): LaurentPoly({0: big}),
        ("c", "e"): LaurentPoly({0: -big}),
        ("b", "e"): LaurentPoly({0: 5}),
    }
    r = _r_from_p(b, p_entries)
    assert max(abs(c) for q in r.entries.values() for c in q.terms.values()) > big
    want = PMatrix(r.order, by_column(p_entries))
    assert _solve_all_columns(b, list(r.order), r, False) == want
    packed = _packed(b, r, width=4)
    assert packed.involutive() and packed.intertwines()
    assert packed.width > 4
    # longest column first
    rev = RMatrix(tuple(reversed(r.order)), r.cols, r.down)
    assert (_solve_all_columns(b, list(rev.order), rev, False)
            == PMatrix(rev.order, by_column(p_entries)))
    assert compute_P(b, list(r.order), r) == want
    assert reference_klv.compute_P(b, r) == want
    _assert_agrees(b, r)
    _assert_agrees(b, r, width=4)


def test_solve_reads_no_entry_outside_the_down_set():
    """Valid R with a down-set made too small: R(a, c) is nonzero, but a
    is left out of the down-set of c, and P(a, c) = 0 keeps column c
    self-dual.  f(a) of column d sums only over the psi whose down-set
    holds a, so it leaves out R(a, c), as the reference does."""
    b = _rank_zero_block({"a": 0, "b": 1, "c": 2, "d": 3})
    r = _r_from_p(b, {("a", "b"): ONE, ("b", "c"): ONE, ("c", "d"): ONE})
    assert r.entry("a", "c")
    bad = RMatrix(r.order, r.cols, {**r.down, "c": r.down["c"] - {"a"}})
    message = "no solution under degree bound at P('a', 'd')"
    assert _p_outcome(compute_P, b, list(r.order), bad) == message
    assert _p_outcome(reference_klv.compute_P, b, bad) == message


def test_verify_rejects_duality_that_is_not_an_involution():
    """Without simples only the involution check can fail: R(a, b) =
    (u - 1)^2 has the degree and the value at u = 1 of a valid entry."""
    b = _rank_zero_block({"a": 0, "b": 2})
    r = RMatrix(("a", "b"), by_column({("a", "a"): ONE, ("b", "b"): ONE,
                                       ("a", "b"): (U - ONE) * (U - ONE)}),
                {"a": frozenset({"a"}), "b": frozenset({"a", "b"})})
    assert not klv._PackedDuality(b, r).involutive()
    assert not verify_duality(b, ["a", "b"], r)
    assert not reference_klv.verify_duality(b, r)


def test_verify_rejects_duality_that_does_not_intertwine():
    """R(D+, P) = 2(u - 1) keeps D an involution on sl2r but breaks its
    intertwining with T_s + 1."""
    b = builtin_sl2r_block()
    blk, r, _, _ = _pipeline(b)
    bad = RMatrix(r.order, by_column({**r.entries, ("D+", "P"): (U - ONE) * 2}), r.down)
    packed = klv._PackedDuality(b, bad)
    assert packed.involutive() and not packed.intertwines()
    assert not verify_duality(b, blk, bad)
    assert not reference_klv.verify_duality(b, bad)


def test_verify_rejects_entry_outside_down_set():
    b = builtin_sl2r_block()
    blk, r, _, _ = _pipeline(b)
    bad = RMatrix(r.order, by_column({**r.entries, ("D+", "D-"): U - ONE}), r.down)
    assert not verify_duality(b, blk, bad)


def test_multiplicities_reports_first_lower_entry_in_row_major_order():
    b = builtin_sl2r_block()
    bad = PMatrix(order=("D+", "D-", "P"), cols=by_column({
        ("P", "D+"): ONE, ("P", "D-"): U - ONE, ("D-", "D+"): ONE}))
    with pytest.raises(MultiplicityError) as exc:
        multiplicities(b, bad)
    assert str(exc.value) == "M not unitriangular at ('D-', 'D+')"
    # an entry that vanishes at u = 1 is no offender
    ok = PMatrix(order=("D+", "D-", "P"), cols=by_column({("P", "D-"): U - ONE}))
    got, want = multiplicities(b, ok), reference_klv.multiplicities(b, ok)
    assert (got.order, rows(got.M), rows(got.m)) == (want.order, want.M, want.m)


def test_solve_block_shares_one_solve():
    b = product_block(_FACTORS["nci2"]("a"), _FACTORS["sl2r"]("b"))
    for blk in partition_blocks(b):
        res = klv.solve_block(b, blk, check=True)
        blk, r, p, mm = _pipeline(b, blk)
        assert res.verified is True
        assert (res.order, res.r, res.p) == (r.order, r, p)
        assert (rows(res.M), rows(res.m)) == (rows(mm.M), rows(mm.m))
        assert klv.solve_block(b, blk).verified is None


# ---------------------------------------------------------------------------
# compute_duality and compute_order on integer tables against the
# module-element references.

_REFERENCE_BLOCKS = {
    "A3": _MODULE_BLOCKS["A3"],
    "B2xsl2r": _MODULE_BLOCKS["B2xsl2r"],
    "sl2rxnci2xA1": lambda: functools.reduce(product_block, [
        _FACTORS["sl2r"]("a"), _FACTORS["nci2"]("b"), _FACTORS["A1"]("c")]),
    "nci2xnci2": _MODULE_BLOCKS["nci2xnci2"],
}


def _relabelled(b, names, order):
    """b with label i of sorted(b.params) renamed names[i] and its
    parameters listed in the given order."""
    labels = sorted(b.params)
    new = dict(zip(labels, names))
    doc = block_to_json(b)
    for rec in doc["params"]:
        rec["label"] = new[rec["label"]]
        rec["cross"] = [new[x] for x in rec["cross"]]
        rec["cayley"] = [[new[x] for x in c] if c else c for c in rec["cayley"]]
    doc["params"] = [doc["params"][i] for i in order]
    return block_from_json(doc)


_RANK_ONE = ["sl2r", "nci2", "A1", "compact/nonparity"]
_PARTITION_FACTORS = {**_FACTORS, "compact/nonparity":
                      lambda c: _rank_one(_compact_and_nonparity_block(), c + "1")}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_partition_matches_union_find_reference(data):
    """Disjoint unions of one to three products over the same simples
    (each factor of rank one drawn apart for each part), with the labels
    renamed and the parameters listed in another order: the search over
    the T rows finds the classes that the reference joins by status."""
    shape = data.draw(st.lists(st.sampled_from(["rank one", "A2", "B2"]),
                               min_size=1, max_size=2))
    params = []
    for i in range(data.draw(st.integers(1, 3))):
        kinds = [data.draw(st.sampled_from(_RANK_ONE)) if k == "rank one" else k
                 for k in shape]
        part = functools.reduce(product_block, [
            _PARTITION_FACTORS[k](c) for k, c in zip(kinds, "ab")])
        renamed = _relabelled(part, [f"{i}:{x}" for x in sorted(part.params)],
                              range(len(part.params)))
        params += block_to_json(renamed)["params"]
    union = block_from_json({**block_to_json(part), "params": params})
    n = len(params)
    b = _relabelled(union, data.draw(st.permutations([f"q{i:03d}" for i in range(n)])),
                    data.draw(st.permutations(range(n))))
    assert validate_block(b) == []
    assert partition_blocks(b) == reference_klv.partition_blocks(b)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_REFERENCE_BLOCKS)), st.data())
def test_duality_and_order_match_module_references(name, data):
    """Direct (complex), type-I and type-II levels, with the labels
    renamed so that the order breaks its length ties differently and the
    parameters listed in another order."""
    base = _REFERENCE_BLOCKS[name]()
    n = len(base.params)
    names = data.draw(st.permutations([f"q{i:02d}" for i in range(n)]))
    order = data.draw(st.permutations(range(n)))
    b = _relabelled(base, names, order)
    for blk in partition_blocks(b):
        blk = data.draw(st.permutations(blk))
        assert compute_order(b, blk) == reference_klv.compute_order(b, blk)
        assert compute_duality(b, blk) == reference_klv.compute_duality(b, blk)


def _rp1_bound_block():
    """A block that `validate_block` accepts, though not a real one: the
    RP1 label g over c1 and c2, with c1 a base and c2 above the base d
    through a complex descent t.  Then D(g) = E_s D(c1) - D(c2) has L1
    norm 7, while k_s B(c1) is 5: the bound holds D(g) only with its
    B(c2) term, 3."""
    def rec(label, length, status, cross, cayley):
        return {"label": label, "length": length, "cartan_class": "",
                "status": status, "cross": cross, "cayley": cayley}

    return block_from_json({
        "simples": ["s", "t"], "braid": [[1, 2], [2, 1]], "infchar_tag": "x",
        "params": [
            rec("d", 0, ["CompactImaginary", "ComplexAscent"], ["d", "c2"], [None, None]),
            rec("c1", 1, ["NoncompactImaginaryI", "CompactImaginary"], ["c2", "c1"],
                [["g"], None]),
            rec("c2", 1, ["NoncompactImaginaryI", "ComplexDescent"], ["c1", "d"],
                [["g"], None]),
            rec("g", 2, ["RealParityI", "CompactImaginary"], ["g", "g"],
                [["c1", "c2"], None]),
        ],
    })


_WIDENING_BLOCKS = {
    **_REFERENCE_BLOCKS,
    "nci2^3": lambda: functools.reduce(product_block, [
        _FACTORS["nci2"](c) for c in "abc"]),
    "RP1 bound": _rp1_bound_block,
}


@pytest.mark.parametrize("name", sorted(_WIDENING_BLOCKS))
def test_packed_duality_widens_from_two_bit_digits(name):
    """Packed D starts from 2-bit digits: every label's bound holds the
    L1 norm of its D, the digits widen, and R is that of the module
    reference."""
    b = _WIDENING_BLOCKS[name]()
    assert validate_block(b) == []
    widths = []
    for blk in partition_blocks(b):
        r = reference_klv.compute_duality(b, blk)
        _, w, bound = klv._packed_dual(b, r.order, r.down)
        widths.append(w)
        dual = reference_klv.duality_map(b, r)
        for gamma in r.order:
            l1 = sum(abs(c) for p in dual[gamma].coeffs.values() for c in p.terms.values())
            assert bound[gamma] >= l1, gamma
        assert compute_duality(b, blk) == r
    assert max(widths) > 2


# ---------------------------------------------------------------------------
# D^2 = Id is checked only at the generators of a class; intertwining
# carries it to the derived parameters.

def _descents(b, gamma):
    return {st for st in b.params[gamma].status if st in (
        SimpleStatus.COMPLEX_DESCENT, SimpleStatus.RP1, SimpleStatus.RP2)}


def test_generators_of_a_complex_block_are_its_minimal_element():
    b = _REFERENCE_BLOCKS["A3"]()
    (blk,) = partition_blocks(b)
    order = sorted(blk, key=lambda x: (b.params[x].length, x))
    assert klv._generators(b, order) == ["e"] == order[:1]


def test_generators_without_simples_are_every_label():
    b = _rank_zero_block({"a": 0, "b": 1, "c": 2, "d": 2})
    assert klv._generators(b, ["a", "b", "c", "d"]) == ["a", "b", "c", "d"]


def test_generators_of_nci2xnci2_are_its_minimal_and_type2_parameters():
    b = _REFERENCE_BLOCKS["nci2xnci2"]()
    (blk,) = partition_blocks(b)
    order = sorted(blk, key=lambda x: (b.params[x].length, x))
    want = [g for g in order
            if not _descents(b, g) or _descents(b, g) == {SimpleStatus.RP2}]
    assert want[0] == order[0] and len(want) == len(order) == 9
    assert klv._generators(b, order) == want


@pytest.mark.parametrize("name", ["A3", "B2xsl2r", "sl2rxnci2xA1"])
def test_verify_rejects_a_derived_column_through_intertwining(name):
    """R(phi, gamma) + (u - 1) on the longest derived gamma keeps the
    degree bound, the value at u = 1 and D^2 = Id at every generator, so
    only intertwining can reject it."""
    b = _REFERENCE_BLOCKS[name]()
    for blk in partition_blocks(b):
        r = compute_duality(b, blk)
        gens = klv._generators(b, r.order)
        gamma = [x for x in r.order if x not in gens][-1]
        phi = r.order[0]
        assert phi in r.down[gamma] and phi != gamma
        bad = RMatrix(r.order, by_column({**r.entries,
                                          (phi, gamma): r.entry(phi, gamma) + U - ONE}), r.down)
        dual = reference_klv.duality_map(b, bad)
        for g in gens:
            assert reference_klv.apply_D(dual, dual[g]) == ModuleElement({g: ONE})
        packed = klv._PackedDuality(b, bad)
        assert packed.involutive() and not packed.intertwines()
        assert not verify_duality(b, list(r.order), bad)
        assert not reference_klv.verify_duality(b, bad)


@contextlib.contextmanager
def _packed_checks_pass():
    """Packed D with its packed checks taken as passed, so that only the
    scalar checks of the pass that packs it decide."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(klv._PackedDuality, "involutive", lambda self: True)
        mp.setattr(klv._PackedDuality, "intertwines", lambda self: True)
        yield


@pytest.mark.parametrize("change", [
    "no diagonal", "odd exponent", "negative exponent", "degree", "u = 1"])
def test_each_scalar_check_rejects_on_its_own(change):
    """Each entry breaks exactly one of the checks of the one pass over
    the terms of R; the packed checks are taken as passed."""
    b = _REFERENCE_BLOCKS["A3"]()
    (blk,) = partition_blocks(b)
    r = compute_duality(b, blk)
    with _packed_checks_pass():
        assert verify_duality(b, blk, r)
    gamma = r.order[-1]
    phi = r.order[0]
    n = b.params[gamma].length - b.params[phi].length
    entries = dict(r.entries)
    if change == "no diagonal":
        del entries[(gamma, gamma)]
    else:
        delta = {"odd exponent": {1: 1, 3: -1},
                 "negative exponent": {-2: 1, 0: -1},
                 "degree": {2 * n + 2: 1, 0: -1},
                 "u = 1": {0: 1}}[change]
        entries[(phi, gamma)] = r.entry(phi, gamma) + LaurentPoly(delta)
    bad = RMatrix(r.order, by_column(entries), r.down)
    with _packed_checks_pass():
        assert not verify_duality(b, blk, bad)
    assert not verify_duality(b, blk, bad)
    assert not reference_klv.verify_duality(b, bad)


# ---------------------------------------------------------------------------
# compute_P by descent recursion, with the solve from R only for columns
# that have neither a complex nor an RP1 descent.

def _p_both_modes(b, blk, r):
    """compute_P without and with check, as `solve_block` runs it."""
    return compute_P(b, blk, r), compute_P(b, blk, r, check=True)


_SIZES = {"sl2r": 3, "nci2": 3, "A1": 2, "A2": 6, "B2": 8}


@st.composite
def _relabelled_products(draw):
    """A product of one to three of sl2r, nci2, A1, A2, B2 with at most
    200 parameters, its labels renamed and its parameters reordered."""
    kinds = draw(st.lists(st.sampled_from(sorted(_SIZES)), min_size=1, max_size=3)
                 .filter(lambda ks: functools.reduce(
                     operator.mul, (_SIZES[k] for k in ks)) <= 200))
    base = functools.reduce(product_block, [_FACTORS[k](c) for k, c in zip(kinds, "abc")])
    n = len(base.params)
    return _relabelled(base, draw(st.permutations([f"q{i:03d}" for i in range(n)])),
                       draw(st.permutations(range(n))))


@settings(max_examples=15, deadline=None)
@given(_relabelled_products())
def test_compute_P_matches_the_full_solve_and_the_module_reference(b):
    for blk in partition_blocks(b):
        r = compute_duality(b, blk)
        want = reference_klv.compute_P(b, r)
        assert _solve_all_columns(b, blk, r, False) == want
        assert _p_both_modes(b, blk, r) == (want, want)


_COXETER = {
    "A3": ((1, 3, 2), (3, 1, 3), (2, 3, 1)),
    "B3": ((1, 3, 2), (3, 1, 4), (2, 4, 1)),
    "G2": ((1, 6), (6, 1)),
    "A4": ((1, 3, 2, 2), (3, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1)),
    "D4": ((1, 3, 2, 2), (3, 1, 3, 3), (2, 3, 1, 2), (2, 3, 2, 1)),
}


@pytest.mark.parametrize("name", sorted(_COXETER))
def test_compute_P_matches_classical_kl(name):
    braid = _COXETER[name]
    names = tuple(f"s{i + 1}" for i in range(len(braid)))
    b = generate_complex_block(names, braid)
    (blk,) = partition_blocks(b)
    r = compute_duality(b, blk)
    oracle = ClassicalKL(names, braid).p_matrix()
    want = PMatrix(r.order, by_column({k: v for k, v in oracle.items() if k[0] != k[1]}))
    assert _p_both_modes(b, blk, r) == (want, want)


_INTERNED = {
    "A3": lambda: generate_complex_block(("s1", "s2", "s3"), _COXETER["A3"]),
    "B3": lambda: generate_complex_block(("s1", "s2", "s3"), _COXETER["B3"]),
    "sl2rxnci2xA3": lambda: functools.reduce(product_block, [
        _FACTORS["sl2r"]("a"), _FACTORS["nci2"]("b"),
        generate_complex_block(("c1", "c2", "c3"), _COXETER["A3"])]),
}


@pytest.mark.parametrize("name", sorted(_INTERNED))
@pytest.mark.parametrize("check", [False, True])
def test_equal_entries_of_a_class_share_one_object(name, check):
    """R and P hold one LaurentPoly per distinct value of each class."""
    b = _INTERNED[name]()
    for blk in partition_blocks(b):
        res = klv.solve_block(b, blk, check=check)
        for entries in (res.r.entries, res.p.entries):
            values = set(entries.values())
            assert len({id(v) for v in entries.values()}) == len(values)
            assert len(values) < len(entries)


def _corrupt_last_recursed_column(monkeypatch, b, blk):
    """Make the recursion return its longest column with 1 added to the
    constant term of the entry at the minimal label: still under the
    degree bound, no longer self-dual.  Returns the two labels."""
    order = sorted(blk, key=lambda x: (b.params[x].length, x))
    gamma, phi = next(x for x in reversed(order) if klv._descent(b.params[x])), order[0]
    recursed = klv._recursed

    def corrupted(b, g, *args):
        col = recursed(b, g, *args)
        if g == gamma:
            t = col.setdefault(phi, {})
            t[0] = t.get(0, 0) + 1
        return col

    monkeypatch.setattr(klv, "_recursed", corrupted)
    return phi, gamma


@pytest.mark.parametrize("name", ["A3", "B2xsl2r", "sl2rxnci2xA1"])
def test_check_nets_a_corrupted_recursed_column(name, monkeypatch, tmp_path, capsys):
    """With check every recursed column is certified by replaying the
    recursion, and klv --check exits 1; without check it is not."""
    b = _REFERENCE_BLOCKS[name]()
    blk = max(partition_blocks(b), key=len)
    right = klv.solve_block(b, blk).p
    phi, gamma = _corrupt_last_recursed_column(monkeypatch, b, blk)
    message = f"column {gamma!r} of P is not self-dual"
    with pytest.raises(PSolveError, match=re.escape(message)):
        klv.solve_block(b, blk, check=True)
    assert klv.solve_block(b, blk).p.entry(phi, gamma) == right.entry(phi, gamma) + ONE
    path = tmp_path / "block.json"
    path.write_text(json.dumps(block_to_json(b)))
    assert cli.run(["klv", str(path), "--check"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# The replay of recursed columns under check, against the check it
# replaced: the degree bound of the recursion and the self-duality net
# (`reference_klv.net`).

def _element(cols, z):
    """C_z as a module element, from the columns of P."""
    return ModuleElement({z: ONE, **{phi: LaurentPoly(q) for phi, q in cols[z].items()}})


def _recursion(b, gamma, t, x, order, cols, skip=None):
    """(T_t + 1) C_x reduced as the descent recursion reduces it, with
    none of its checks: for each delta before gamma but skip, in
    decreasing order, less a C_delta, with a symmetric and equal to the
    coefficient at delta in each v-exponent k >= n.  Returns the reduced
    element, and the a taken at each delta."""
    lg = b.params[gamma].length
    y = reference_klv.apply_T(b, t, _element(cols, x)) + _element(cols, x)
    taken = {}
    for delta in reversed(order[:order.index(gamma)]):
        n = lg - b.params[delta].length
        a = {}
        for k, c in y.coeff(delta).terms.items():
            if k >= n:
                a[k] = a[2 * n - k] = c
        if a and delta != skip:
            taken[delta] = LaurentPoly(a)
            y = y - _element(cols, delta).scale(taken[delta])
    return y, taken


def _column_of(m, gamma):
    return {phi: dict(p.terms) for phi, p in m.coeffs.items() if phi != gamma}


def _rejects(certify, *args):
    try:
        certify(*args)
    except PSolveError:
        return True
    return False


def _replay(b, r, cols, gamma, s, x, col):
    i = r.order.index(gamma)
    y = klv._tp1_col(b, s, x, cols, {})
    klv._replay(b, gamma, y, col, r.order[:i], r.down[gamma], cols)


def _corrupted(kind, b, r, cols, gamma, data):
    """Column gamma of P corrupted as named, and the simple and label
    that the replay is told it came through; None if b has one simple
    and the corruption needs another."""
    s, x = klv._descent(b.params[gamma])
    right = _element(cols, gamma)
    below = sorted(r.down[gamma] - {gamma})
    if kind == "+1 on a constant term":
        bad = right + ModuleElement({data.draw(st.sampled_from(below)): ONE})
    elif kind == "non-symmetric a_delta":
        # the replay finds a_delta - 1 at delta; the degree bound holds
        bad = right + _element(cols, data.draw(st.sampled_from(below)))
    elif kind == "dropped delta":
        taken = _recursion(b, gamma, s, x, r.order, cols)[1]
        skip = data.draw(st.sampled_from(sorted(taken)))
        bad = _recursion(b, gamma, s, x, r.order, cols, skip)[0]
    else:
        others = [t for t in range(len(b.simples)) if t != s]
        if not others:
            return None
        s = data.draw(st.sampled_from(others))
        bad = _recursion(b, gamma, s, x, r.order, cols)[0]
    return _column_of(bad, gamma), s, x


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.sampled_from(["A3", "B2xsl2r", "sl2rxnci2xA1"]).map(
           lambda name: _REFERENCE_BLOCKS[name]()), _relabelled_products()),
       st.data())
def test_replay_agrees_with_the_self_duality_net(b, data):
    """Both accept every right recursed column, and both reject each
    corrupted one."""
    for blk in partition_blocks(b):
        r = compute_duality(b, blk)
        cols = {g: {} for g in r.order}
        for (phi, g), poly in compute_P(b, blk, r).entries.items():
            cols[g][phi] = dict(poly.terms)
        dual = reference_klv.duality_map(b, r)
        recursed = [g for g in r.order if klv._descent(b.params[g])]
        for g in recursed:
            s, x = klv._descent(b.params[g])
            assert not _rejects(_replay, b, r, cols, g, s, x, cols[g])
            assert not _rejects(reference_klv.net, b, r, dual, g, cols[g])
        # the columns whose recursion takes some a_delta away
        reduced = [g for g in recursed if _recursion(
            b, g, *klv._descent(b.params[g]), r.order, cols)[1]]
        for kind in ("+1 on a constant term", "non-symmetric a_delta",
                     "dropped delta", "column built through the wrong simple"):
            pool = reduced if kind == "dropped delta" else recursed
            if not pool:
                continue
            gamma = data.draw(st.sampled_from(pool))
            corrupted = _corrupted(kind, b, r, cols, gamma, data)
            if corrupted is None or corrupted[0] == cols[gamma]:
                continue
            bad, s, x = corrupted
            assert _rejects(_replay, b, r, cols, gamma, s, x, bad), kind
            assert _rejects(reference_klv.net, b, r, dual, gamma, bad), kind


@pytest.mark.parametrize("name", ["A3", "B2xsl2r", "sl2rxnci2xA1"])
def test_replay_rejects_a_column_through_a_descent_of_x(name):
    """Through a simple t that is a descent of x, the recursion finds
    (u + 1) C_x and reduces it to nothing.  The replay of that empty
    column through t takes (u + 1) C_x away whole and is left with
    -gamma: only its final test can reject it."""
    b = _REFERENCE_BLOCKS[name]()
    found = 0
    for blk in partition_blocks(b):
        r = compute_duality(b, blk)
        cols = {g: {} for g in r.order}
        for (phi, g), poly in compute_P(b, blk, r).entries.items():
            cols[g][phi] = dict(poly.terms)
        for gamma in r.order:
            if not klv._descent(b.params[gamma]):
                continue
            s, x = klv._descent(b.params[gamma])
            for t in range(len(b.simples)):
                y, taken = _recursion(b, gamma, t, x, r.order, cols)
                if (t != s and y.is_zero() and cols[gamma]
                        and taken == {x: LaurentPoly({0: 1, 2: 1})}):
                    assert _rejects(_replay, b, r, cols, gamma, t, x, {})
                    found += 1
    assert found


@pytest.mark.parametrize("check", [False, True])
def test_solve_block_runs_each_stage_once_per_class(check, monkeypatch):
    """The tracer of the benchmark times these four stages by rebinding
    them in klv; solve_block must look each up there, once per class,
    and verify_duality only under check."""
    calls = {}
    for name in ("compute_duality", "compute_P", "multiplicities", "verify_duality"):
        def counted(*args, _name=name, _f=getattr(klv, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(klv, name, counted)
    classes = 0
    for b in (_REFERENCE_BLOCKS["A3"](), _REFERENCE_BLOCKS["sl2rxnci2xA1"](),
              _compact_and_nonparity_block()):
        for blk in partition_blocks(b):
            klv.solve_block(b, blk, check=check)
            classes += 1
    assert classes > 3
    want = dict.fromkeys(["compute_duality", "compute_P", "multiplicities"], classes)
    assert calls == ({**want, "verify_duality": classes} if check else want)


def test_default_packing_holds_only_the_fallback_down_sets(monkeypatch):
    """compute_P packs nothing: it solves the columns without a complex
    or RP1 descent (on A3, the minimal label) from R.  Only
    verify_duality packs D, all of it once, under check."""
    made = []

    class Recorded(klv._PackedDuality):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(klv, "_PackedDuality", Recorded)
    b = _REFERENCE_BLOCKS["A3"]()
    (blk,) = partition_blocks(b)
    klv.solve_block(b, blk)
    assert made == []
    klv.solve_block(b, blk, check=True)
    assert [set(p.cols) for p in made] == [set(blk)]


# ---------------------------------------------------------------------------
# Intertwining at the T_s-generators only, and D^2 at the generators that
# have an RP2 descent.

def test_involution_is_checked_at_the_generators_with_an_rp2_descent():
    """nci2 times a block without simples, {x, y} with y two lengths
    above x: D + psi (x) delta, with psi(P1) = P1 - P2 = -psi(P2),
    psi(D) = 0 and delta(y) = u^(-3)(1 - u) x.  psi intertwines T + 1 with
    u^(-1)(T + 1) on nci2 and the second factor has no simple, so the R
    of that D is sound and passes every intertwining, and D^2 differs
    from Id only at (P1,y) and (P2,y): generators whose one descent is
    type-II real.  Only the involution check can reject it."""
    b = product_block(_FACTORS["nci2"]("a"), _rank_zero_block({"x": 0, "y": 2}))
    assert validate_block(b) == []
    entries, down = {}, {}
    for blk in partition_blocks(b):
        r = compute_duality(b, blk)
        entries.update(r.entries)
        down.update(r.down)
    order = tuple(sorted(b.params, key=lambda x: (b.params[x].length, x)))
    for top, own, other in (("(P1,y)", "(P1,x)", "(P2,x)"), ("(P2,y)", "(P2,x)", "(P1,x)")):
        down[top] |= {own, other}
        entries[(own, top)] = ONE - U
        entries[(other, top)] = U - ONE
    bad = RMatrix(order, by_column(entries), down)
    dual = reference_klv.duality_map(b, bad)
    assert [g for g in order if reference_klv.apply_D(dual, dual[g])
            != ModuleElement({g: ONE})] == ["(P1,y)", "(P2,y)"]
    for g in ("(P1,y)", "(P2,y)"):
        assert g in klv._generators(b, order) and _descents(b, g) == {SimpleStatus.RP2}
    for s, g in itertools.product(range(len(b.simples)), order):
        lhs = reference_klv.apply_D(dual, reference_klv.apply_T(b, s, ModuleElement({g: ONE}))
                                    + ModuleElement({g: ONE}))
        assert lhs == reference_klv.ts_plus_one_over_u(b, s, dual[g])
    packed = klv._PackedDuality(b, bad)
    assert packed.sound and packed.intertwines() and not packed.involutive()
    assert not verify_duality(b, list(order), bad)
    assert not reference_klv.verify_duality(b, bad)


def test_intertwining_is_checked_at_the_smaller_rp2_label():
    """On nci2, R(D, P1) = 0 and R(D, P2) = 2(u - 1) keep R sound, D an
    involution and the intertwining at D: of the checked labels only P1,
    the smaller of the RP2 pair, sees the fault."""
    b = _FACTORS["nci2"]("a")
    blk, r, _, _ = _pipeline(b)
    entries = {k: v for k, v in r.entries.items() if k != ("D", "P1")}
    bad = RMatrix(r.order, by_column({**entries, ("D", "P2"): (U - ONE) * 2}), r.down)
    dual = reference_klv.duality_map(b, bad)
    broken = [g for g in r.order if reference_klv.apply_D(
        dual, reference_klv.apply_T(b, 0, ModuleElement({g: ONE})) + ModuleElement({g: ONE}))
        != reference_klv.ts_plus_one_over_u(b, 0, dual[g])]
    assert broken == ["P1", "P2"]
    assert [g for g in r.order if klv._t_generator(b.params[g], 0)] == ["D", "P1"]
    packed = klv._PackedDuality(b, bad)
    assert packed.sound and packed.involutive() and not packed.intertwines()
    assert not verify_duality(b, blk, bad)
    assert not reference_klv.verify_duality(b, bad)


@pytest.mark.parametrize("name", ["A3", "B2xsl2r", "sl2rxnci2xA1"])
def test_rejects_a_duality_first_broken_at_a_skipped_pair(name):
    """R(phi, gamma) + (u - 1) at the longest derived gamma breaks only the
    intertwining.  In (length, label) order the first broken pair is
    always checked: a skipped label breaks it only if a shorter or
    smaller label that spans it does (see `verify_duality`).  So R's
    order is reversed here, and the full check, in that order, breaks
    first at a skipped pair; `verify_duality` must still reject."""
    b = _REFERENCE_BLOCKS[name]()
    for blk in partition_blocks(b):
        r = compute_duality(b, blk)
        gens = klv._generators(b, r.order)
        gamma = [x for x in r.order if x not in gens][-1]
        phi = r.order[0]
        bad = RMatrix(tuple(reversed(r.order)), by_column({
            **r.entries, (phi, gamma): r.entry(phi, gamma) + U - ONE}), r.down)
        dual = reference_klv.duality_map(b, bad)
        first = next((s, g) for s in range(len(b.simples)) for g in bad.order
                     if reference_klv.apply_D(dual, reference_klv.apply_T(
                         b, s, ModuleElement({g: ONE})) + ModuleElement({g: ONE}))
                     != reference_klv.ts_plus_one_over_u(b, s, dual[g]))
        assert not klv._t_generator(b.params[first[1]], first[0])
        packed = klv._PackedDuality(b, bad)
        assert packed.sound and packed.involutive() and not packed.intertwines()
        assert not verify_duality(b, list(blk), bad)


def test_packing_is_the_same_with_unshared_polynomials():
    """R as `compute_duality` returns it, with one object per distinct
    value, and the same R with a fresh object at every entry: the pass
    over R and the packed rows agree, and so do the answers, on a valid
    and on a corrupted R."""
    b = _REFERENCE_BLOCKS["sl2rxnci2xA1"]()
    for blk in partition_blocks(b):
        r = compute_duality(b, blk)
        assert len({id(p) for p in r.entries.values()}) < len(r.entries)
        phi, gamma = r.order[0], r.order[-1]
        bad = RMatrix(r.order, by_column({**r.entries, (phi, gamma): r.entry(phi, gamma) + U - ONE}),
                      r.down)
        for shared in (r, bad):
            fresh = RMatrix(shared.order, by_column({k: LaurentPoly(dict(p.terms))
                                                     for k, p in shared.entries.items()}),
                            shared.down)
            a, c = klv._PackedDuality(b, shared), klv._PackedDuality(b, fresh)
            assert (a.sound, a.max_entry, a.max_row, a.width, a.cols) == (
                c.sound, c.max_entry, c.max_row, c.width, c.cols)
            assert a._plain() == c._plain()
            assert verify_duality(b, blk, shared) == verify_duality(b, blk, fresh)
        assert verify_duality(b, blk, r) and not verify_duality(b, blk, bad)


# ---------------------------------------------------------------------------
# m read off M on self-dual classes, by the Kazhdan-Lusztig inversion
# formula, against the back-substitution.

_INVERTED = {
    **_COXETER,
    "B4": ((1, 3, 2, 2), (3, 1, 3, 2), (2, 3, 1, 4), (2, 2, 4, 1)),
}


@functools.lru_cache(maxsize=None)
def _complex_p(name):
    b = generate_complex_block(tuple(f"s{i + 1}" for i in range(len(_INVERTED[name]))),
                               _INVERTED[name])
    (blk,) = partition_blocks(b)
    return b, compute_P(b, blk, compute_duality(b, blk))


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "B4", "G2"])
def test_m_is_read_off_M_on_complex_blocks(name, monkeypatch):
    """On a complex block m comes from the inversion formula, with no
    back-substitution, and equals the back-substitution's m."""
    b, p = _complex_p(name)
    want = reference_klv.back_substitution(b, p)

    def refuse(rows):
        raise AssertionError("back-substitution on a self-dual class")

    monkeypatch.setattr(klv, "_back_substitution", refuse)
    mm = multiplicities(b, p)
    assert (mm.order, rows(mm.M), rows(mm.m)) == (want.order, want.M, want.m)
    assert min(x for row in want.m for x in row) >= 0


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "G2"])
def test_dual_map_of_a_weyl_group_is_right_multiplication_by_w0(name):
    braid = _INVERTED[name]
    names = tuple(f"s{i + 1}" for i in range(len(braid)))
    w = CoxeterGroup(names, braid)
    w0 = max(w.elements, key=w.length.__getitem__)
    b = generate_complex_block(names, braid)
    order = tuple(sorted(b.params, key=lambda x: (b.params[x].length, x)))
    want = {w.label(x): w.label(_mat_mul(x, w0)) for x in w.elements}
    assert klv._dual_map(b, order) == want


def test_classes_that_are_not_all_complex_take_back_substitution(monkeypatch):
    """sl2r x A2 and nci2 x A1: the scan stops at a status that is not
    complex, and m is the back-substitution's."""
    calls = []
    inverse = klv._back_substitution
    monkeypatch.setattr(klv, "_back_substitution", lambda rows: calls.append(1) or inverse(rows))
    for b in (product_block(_FACTORS["sl2r"]("a"), _FACTORS["A2"]("b")),
              product_block(_FACTORS["nci2"]("a"), _FACTORS["A1"]("b"))):
        for blk in partition_blocks(b):
            blk, r, p, mm = _pipeline(b, blk)
            assert klv._dual_map(b, p.order) is None
            want = reference_klv.back_substitution(b, p)
            assert (mm.order, rows(mm.M), rows(mm.m)) == (want.order, want.M, want.m)
    assert len(calls) == 2


def _two_simples_block(statuses):
    """Four labels e < a, b < t over two simples, crossing as on A1 x A1
    (s1: e-a, b-t; s2: e-b, a-t), with the given complex statuses of a
    and b; e ascends and t descends at both."""
    up, down = "ComplexAscent", "ComplexDescent"
    cross = {"e": ["a", "b"], "a": ["e", "t"], "b": ["t", "e"], "t": ["b", "a"]}
    status = {"e": [up, up], "a": statuses[0], "b": statuses[1], "t": [down, down]}
    length = {"e": 0, "a": 1, "b": 1, "t": 2}
    return block_from_json({
        "simples": ["s1", "s2"], "braid": [[1, 2], [2, 1]], "infchar_tag": "x",
        "params": [{"label": x, "length": length[x], "cartan_class": "",
                    "status": status[x], "cross": cross[x], "cayley": [None, None]}
                   for x in "eabt"]})


def test_inversion_needs_ascent_and_descent_swapped():
    """The same search on two blocks that differ in the statuses of a and
    b.  On A1 x A1 phi swaps a and b and the inversion applies.  With a
    and b both (ascent, descent) the block is not valid, and phi, found
    with the same lengths and cross action, keeps the statuses: the class
    is not self-dual, and m must be the inverse of M, which the formula
    would get wrong for P(e, a) = 1."""
    good = _two_simples_block([["ComplexDescent", "ComplexAscent"],
                               ["ComplexAscent", "ComplexDescent"]])
    assert validate_block(good) == []
    assert klv._dual_map(good, ("e", "a", "b", "t")) == {"e": "t", "a": "b", "b": "a", "t": "e"}
    bad = _two_simples_block([["ComplexAscent", "ComplexDescent"]] * 2)
    assert validate_block(bad) != []
    assert klv._dual_map(bad, ("e", "a", "b", "t")) is None
    p = PMatrix(("e", "a", "b", "t"), by_column({("e", "a"): ONE}))
    mm = multiplicities(bad, p)
    want = reference_klv.back_substitution(bad, p)
    assert (mm.order, rows(mm.M), rows(mm.m)) == (want.order, want.M, want.m)
    assert mm.m[0][1] == 1


@pytest.mark.parametrize("value, big, small", [
    (127, "b", "b"), (-128, "b", "h"), (128, "h", "b"), (-129, "h", "h"),
    (32767, "h", "h"), (-32768, "h", "i"), (32768, "i", "h"), (-32769, "i", "i"),
    ((1 << 31) - 1, "i", "i"), (-(1 << 31), "i", "q"), (1 << 31, "q", "i"),
    (-(1 << 31) - 1, "q", "q"), ((1 << 63) - 1, "q", "q"), (-(1 << 63), "q", None),
    (1 << 63, None, "q"), (-(1 << 63) - 1, None, None)])
def test_rows_take_the_narrowest_typecode_that_holds_every_entry(value, big, small):
    """M = [[1, value], [0, 1]] and m = [[1, -value], [0, 1]] are held in
    arrays of the narrowest signed typecode for their entries, big for M
    and small for m, and in tuples of ints past 64 bits (None)."""
    b = _rank_zero_block({"a": 0, "b": 2})
    mm = multiplicities(b, PMatrix(("a", "b"), {"b": {"a": LaurentPoly({0: value})}}))
    assert rows(mm.M) == ((1, value), (0, 1)) and rows(mm.m) == ((1, -value), (0, 1))
    for mat, want in ((mm.M, big), (mm.m, small)):
        for row in mat:
            assert getattr(row, "typecode", None) == want
            assert want is not None or type(row) is tuple
