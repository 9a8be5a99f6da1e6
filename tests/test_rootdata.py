import dataclasses
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_rootdata
from klvkit import rootdata
from klvkit.coxeter import CoxeterCapExceeded
from klvkit.gaussian import gvec
from klvkit.rootdata import (
    RootDatum,
    reflection_matrix,
    rootdatum_from_json,
    weyl_enumerate,
    weyl_stabilizer,
    weyl_subgroup,
)

SL2_SPLIT = {
    "rank": 1,
    "roots": [[2], [-2]],
    "coroots": [[1], [-1]],
    "theta": [[-1]],
    "levi": {"simple_base": [[2]], "levi_simples": [], "a_coordinates": [0]},
}

A2 = {
    "rank": 2,
    "roots": [[1, 0], [0, 1], [1, 1], [-1, 0], [0, -1], [-1, -1]],
    "coroots": [[2, -1], [-1, 2], [1, 1], [-2, 1], [1, -2], [-1, -1]],
    "theta": [[1, 0], [0, 1]],
    "levi": {"simple_base": [[1, 0], [0, 1]], "levi_simples": [0],
             "a_coordinates": []},
}

A1xA1 = {
    "rank": 2,
    "roots": [[2, 0], [0, 2], [-2, 0], [0, -2]],
    "coroots": [[1, 0], [0, 1], [-1, 0], [0, -1]],
    "theta": [[-1, 0], [0, -1]],
    "levi": {"simple_base": [[2, 0], [0, 2]], "levi_simples": [0],
             "a_coordinates": [1]},
}

SWAP = {  # rank-2 realization of a single root whose reflection swaps coords
    "rank": 2,
    "roots": [[1, -1], [-1, 1]],
    "coroots": [[1, -1], [-1, 1]],
    "theta": [[-1, 0], [0, -1]],
    "levi": {"simple_base": [[1, -1]], "levi_simples": [],
             "a_coordinates": [1]},
}

B2 = {  # basis e1, e1+e2 of the B2 lattice: the Levi coroot kills coord 1
    "rank": 2,
    "roots": [[2, -1], [-1, 1], [1, 0], [0, 1],
              [-2, 1], [1, -1], [-1, 0], [0, -1]],
    "coroots": [[1, 0], [0, 2], [2, 2], [1, 2],
                [-1, 0], [0, -2], [-2, -2], [-1, -2]],
    "theta": [[-1, 0], [0, -1]],
    "levi": {"simple_base": [[2, -1], [-1, 1]], "levi_simples": [0],
             "a_coordinates": [1]},
}


B3 = {  # type B3 with the Levi of the short root e3: nu lives on e1, e2
    "rank": 3,
    "roots": [[1, 1, 0], [1, -1, 0], [-1, 1, 0], [-1, -1, 0],
              [1, 0, 1], [1, 0, -1], [-1, 0, 1], [-1, 0, -1],
              [0, 1, 1], [0, 1, -1], [0, -1, 1], [0, -1, -1],
              [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
              [0, 0, 1], [0, 0, -1]],
    "coroots": [[1, 1, 0], [1, -1, 0], [-1, 1, 0], [-1, -1, 0],
                [1, 0, 1], [1, 0, -1], [-1, 0, 1], [-1, 0, -1],
                [0, 1, 1], [0, 1, -1], [0, -1, 1], [0, -1, -1],
                [2, 0, 0], [-2, 0, 0], [0, 2, 0], [0, -2, 0],
                [0, 0, 2], [0, 0, -2]],
    "theta": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
    "levi": {"simple_base": [[1, -1, 0], [0, 1, -1], [0, 0, 1]],
             "levi_simples": [2], "a_coordinates": [0, 1]},
}


@pytest.fixture(params=[SL2_SPLIT, A2, A1xA1, SWAP, B2, B3])
def datum(request):
    return rootdatum_from_json(request.param)


def test_validate_all_fixtures(datum):
    d, lv = datum
    assert d.validate() == []
    assert lv.validate(d) == []


@pytest.mark.parametrize("doc, expected", [
    ({**SL2_SPLIT, "roots": [[2], [-2], [2]], "coroots": [[1], [-1], [1]]},
     ["duplicate roots"]),
    # s_a(a) = -a whenever <coroot(a), a> = 2, so a root without its
    # negative always breaks the reflection axiom too
    ({**SL2_SPLIT, "roots": [[2]], "coroots": [[1]], "theta": [[1]]},
     ["roots not closed under negation at (2,)",
      "reflection in (2,) does not permute roots"]),
    ({**A1xA1, "theta": [[0, -1], [1, 0]]},  # a rotation of order 4
     ["theta^2 != identity"]),
    ({**A1xA1, "theta": [[1, 1], [0, -1]]},  # an involution moving (0, 2) off
     ["theta does not permute roots at (0, 2)",
      "theta does not permute roots at (0, -2)"]),
    # the roots of A2 with coroots 2e1, 2e2 and e1+e2: each pairs to 2
    # with its root, but s_(1,0) sends (1, 1) to (-1, 1)
    ({**A2, "coroots": [[2, 0], [0, 2], [1, 1], [-2, 0], [0, -2], [-1, -1]]},
     ["reflection in (1, 0) does not permute roots",
      "reflection in (0, 1) does not permute roots",
      "reflection in (-1, 0) does not permute roots",
      "reflection in (0, -1) does not permute roots"]),
], ids=["duplicate", "negation", "theta-squared", "theta-permutes", "reflection"])
def test_validate_names_each_violation(doc, expected):
    """Each datum breaks one axiom; validate names exactly what breaks,
    in order."""
    d, _ = rootdatum_from_json(doc)
    assert d.validate() == expected


def test_validate_reports_a_root_without_a_coroot():
    """A root with no coroot once ended in ValueError from the reflection
    check; its reflection is now skipped."""
    d = RootDatum(rank=1, roots=((2,), (-2,)), coroots={(2,): (1,)},
                  theta=((1,),))
    assert d.validate() == ["missing coroot for (-2,)"]


def test_levi_validate_skips_a_levi_root_without_a_coroot():
    d, lv = rootdatum_from_json({**SL2_SPLIT, "levi": {
        "simple_base": [[2]], "levi_simples": [0], "a_coordinates": [0]}})
    d = dataclasses.replace(d, coroots={(2,): (1,)})
    assert lv.levi == ((-2,), (2,))
    assert lv.validate(d) == [
        "Levi root (2,) does not pair to zero with a-coordinates"]


def _type_b_roots(rank: int) -> list[tuple[int, ...]]:
    """The roots +-e_i +- e_j and +-e_i of B_rank."""
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    return [tuple(s * x for x in e) for e in units for s in (1, -1)] + [
        tuple(s * x + t * y for x, y in zip(e, f))
        for e, f in itertools.combinations(units, 2) for s in (1, -1) for t in (1, -1)]


def _entries(values, n: int):
    """n entries from values, drawn as one integer of n base-len(values)
    digits (one draw in place of n, so that rank 14 stays cheap); it
    shrinks towards values[0]."""
    k = len(values)
    return st.integers(0, k ** n - 1).map(
        lambda x: tuple(values[x // k ** i % k] for i in range(n)))


def _strategies(rank: int):
    """Vectors with entries -2..2, vectors from B_rank or with entries
    -2..2, and theta: -Id, Id or entries 0, +-1.  Built once per rank,
    since building strategies inside a draw is slow."""
    small = _entries((0, 1, -1, 2, -2), rank)
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    theta = st.one_of(
        st.just(tuple(tuple(-x for x in e) for e in units)), st.just(tuple(units)),
        _entries((0, 1, -1), rank * rank).map(lambda xs: tuple(zip(*[iter(xs)] * rank))))
    return small, st.one_of(small, st.sampled_from(_type_b_roots(rank))), theta


_STRATEGIES = {rank: _strategies(rank) for rank in (1, 2, 3, 4, 5, 6, 14)}


@st.composite
def _root_data(draw):
    """Root data of rank 1-6 or 14 that may break any axiom: up to 16
    roots, from B_rank or with entries -2..2, with or without their
    negatives and a duplicate; coroots with entries -2..2, or 2a/(a, a)
    where that is integral, or none; theta -Id, Id or with entries
    0, +-1.  One draw in ten scales roots, coroots or theta by a factor
    near 10^25."""
    rank = draw(st.sampled_from(sorted(_STRATEGIES)))
    small, vec, thetas = _STRATEGIES[rank]
    roots = draw(st.lists(vec, max_size=8))
    if draw(st.booleans()):
        roots += [tuple(-x for x in a) for a in roots]
    if roots and draw(st.booleans()):
        roots.append(draw(st.sampled_from(roots)))
    roots = draw(st.permutations(roots))
    coroots = {}
    for a in roots:
        kind = draw(st.sampled_from(["natural", "small", "none"]))
        norm = sum(x * x for x in a)
        if kind == "natural" and norm and all(2 * x % norm == 0 for x in a):
            coroots[a] = tuple(2 * x // norm for x in a)
        elif kind != "none":
            coroots[a] = draw(small)
    theta = draw(thetas)
    if draw(st.integers(0, 9)) == 0:
        scale = 10 ** 25 + draw(st.integers(-3, 3))
        which = draw(st.sampled_from(["roots", "coroots", "theta"]))
        big = lambda v: tuple(scale * x for x in v)  # noqa: E731
        if which == "roots":
            coroots = {big(a): cr for a, cr in coroots.items()}
            roots = list(map(big, roots))
        elif which == "coroots":
            coroots = {a: big(cr) for a, cr in coroots.items()}
        else:
            theta = tuple(map(big, theta))
    return RootDatum(rank=rank, roots=tuple(roots), coroots=coroots, theta=theta)


@settings(max_examples=200, deadline=None)
@given(_root_data())
# the reflection sends the root to 10^25 - 2 * 10^50: digits as wide as
# the roots' entries alone would not hold it
@example(RootDatum(rank=1, roots=((10 ** 25,),), coroots={(10 ** 25,): (2,)},
                   theta=((-1,),)))
def test_validate_matches_the_tuple_loop(d):
    """The packed checks name the same violations, in the same order, as
    one tuple per pair of roots."""
    assert d.validate() == reference_rootdata.validate(d)


def test_reflection_matrix_involution():
    d, _ = rootdatum_from_json(A2)
    for alpha in d.roots:
        m = reflection_matrix(d, alpha)
        sq = tuple(
            tuple(sum(m[i][k] * m[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )
        assert sq == ((1, 0), (0, 1))


def test_weyl_enumerate_orders():
    d, _ = rootdatum_from_json(SL2_SPLIT)
    assert len(weyl_enumerate(d)) == 2
    d, _ = rootdatum_from_json(A2)
    assert len(weyl_enumerate(d)) == 6
    d, _ = rootdatum_from_json(A1xA1)
    assert len(weyl_enumerate(d)) == 4
    with pytest.raises(CoxeterCapExceeded):
        weyl_enumerate(d, cap=3)
    d, _ = rootdatum_from_json(B3)
    assert len(weyl_enumerate(d)) == 48


def test_weyl_stabilizer_sizes():
    d, _ = rootdatum_from_json(A2)
    # pairings (0, 1): fixed exactly by the first simple reflection
    assert len(weyl_stabilizer(d, gvec(["1/3", "2/3"]))) == 2
    assert len(weyl_stabilizer(d, gvec([0, 0]))) == 6
    # regular element (both simple pairings nonzero): trivial stabilizer
    assert len(weyl_stabilizer(d, gvec([1, 3]))) == 1


def test_weyl_subgroup():
    d, lv = rootdatum_from_json(A2)
    assert len(weyl_subgroup(d, [(1, 0)])) == 2
    assert len(weyl_subgroup(d, [(1, 0), (0, 1)])) == 6


def test_levi_and_nilradical():
    d, lv = rootdatum_from_json(A2)
    assert lv.levi == ((-1, 0), (1, 0))
    assert lv.nilradical == ((0, 1), (1, 1))
    assert dict(zip(d.roots, lv.coefficients))[(1, 1)] == (1, 1)
    d, lv = rootdatum_from_json(SL2_SPLIT)
    assert lv.levi == ()
    assert lv.nilradical == ((2,),)
    d, lv = rootdatum_from_json(B3)
    assert lv.levi == ((0, 0, -1), (0, 0, 1))
    assert len(lv.nilradical) == 8


def test_levi_selection_violations():
    # over the standard basis, (2, -1) has mixed signs, and the Levi root
    # (1, 0) has coroot (2, 2), which does not vanish on coordinate 1
    doc = {**B2, "levi": {"simple_base": [[1, 0], [0, 1]], "levi_simples": [0],
                          "a_coordinates": [1]}}
    d, lv = rootdatum_from_json(doc)
    out = lv.validate(d)
    assert out[0] == "root (2, -1) has mixed signs over the base"
    assert "Levi root (1, 0) does not pair to zero with a-coordinates" in out
    # (2,) is not an integer combination of (4,), so it is in neither part
    doc = {**SL2_SPLIT, "levi": {"simple_base": [[4]], "levi_simples": [],
                                 "a_coordinates": [0]}}
    d, lv = rootdatum_from_json(doc)
    assert lv.coefficients == (None, None)
    assert lv.levi == lv.nilradical == ()
    assert lv.validate(d)[0] == "root (2,) not an integer combination of the base"


def test_levi_selection_rejects_a_dependent_base():
    # every B2 root has coefficients of one sign over these three vectors,
    # with 0 on the third, but three vectors in rank 2 are no base
    doc = {**B2, "levi": {"simple_base": [[1, -1], [0, 1], [1, 0]],
                          "levi_simples": [0], "a_coordinates": [0]}}
    d, lv = rootdatum_from_json(doc)
    assert d.validate() == []
    assert lv.validate(d) == [
        "simple_base of 3 vectors has rank 2: it is linearly dependent"]
    doc["levi"]["simple_base"] = [[1, -1], [0, 1]]
    d, lv = rootdatum_from_json(doc)
    assert lv.validate(d) == []


def test_coroot_rejects_a_non_root():
    d, _ = rootdatum_from_json(SL2_SPLIT)
    with pytest.raises(ValueError):
        d.coroot((3,))


def _coefficients_by_search(alpha, base, box=3):
    """Every integer vector c in [-box, box]^len(base) with sum c_k base_k
    = alpha."""
    return [c for c in itertools.product(range(-box, box + 1), repeat=len(base))
            if tuple(sum(ck * b[i] for ck, b in zip(c, base))
                     for i in range(len(alpha))) == alpha]


@pytest.mark.parametrize("base", [
    [[1, -1, 0], [0, 1, -1], [0, 0, 1]],  # B3 simple roots
    [[0, 0, 1], [1, -1, 0], [0, 1, -1]],  # the same, permuted
    [[2, 0, 0], [0, 1, -1], [0, 0, 1]],   # index 2: some roots are half-integral
    [[1, -1, 0], [0, 1, -1]],             # rank 2 in rank 3: e3 is outside
    [[0, 1, -1], [1, 0, 0]],              # rank 2, first pivot in a later row
    [[3, 0, 0], [0, 1, -1], [0, 0, 1]],   # index 3: a pivot of 3
    [[0, 0, 3], [1, -1, 0], [0, 1, -1]],  # index 3, the pivot 3 in the last row
])
def test_decompose_through_one_elimination(base):
    """Each root's coefficients come from one elimination of the base:
    the unique integer solution, or None where there is none."""
    base = tuple(map(tuple, base))
    elim = rootdata._eliminator(base, 3)
    for alpha in map(tuple, B3["roots"]):
        found = _coefficients_by_search(alpha, base)
        assert len(found) <= 1
        assert rootdata._decompose(alpha, base, elim) == (found[0] if found else None)
