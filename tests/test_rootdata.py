import json

import pytest

from klvkit.gaussian import GaussRat, gvec
from klvkit.rootdata import (
    InfChar,
    RootClass,
    SingularError,
    WeylCapExceeded,
    classify_root,
    integral_subsystem,
    integral_system_theta_stable,
    levi_roots,
    nilradical_roots,
    positive_system,
    reflection_matrix,
    rootdatum_from_json,
    rootdatum_to_json,
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


@pytest.fixture(params=[SL2_SPLIT, A2, A1xA1, SWAP])
def datum(request):
    return rootdatum_from_json(request.param)


def test_validate_all_fixtures(datum):
    d, lv = datum
    assert d.validate() == []
    assert lv.validate(d) == []


def test_json_round_trip():
    d, lv = rootdatum_from_json(A2)
    doc = rootdatum_to_json(d, lv)
    d2, lv2 = rootdatum_from_json(json.loads(json.dumps(doc)))
    assert d2 == d and lv2 == lv


def test_classify_root():
    d, _ = rootdatum_from_json(SL2_SPLIT)
    assert classify_root(d, (2,)) is RootClass.REAL
    d, _ = rootdatum_from_json(A2)
    assert classify_root(d, (1, 0)) is RootClass.IMAGINARY
    swap = dict(A1xA1)
    swap = {**A1xA1, "theta": [[0, 1], [1, 0]]}
    d, _ = rootdatum_from_json(swap)
    assert classify_root(d, (2, 0)) is RootClass.COMPLEX
    with pytest.raises(ValueError):
        classify_root(d, (1, 1))


def test_reflection_matrix_involution():
    d, _ = rootdatum_from_json(A2)
    for alpha in d.roots:
        m = reflection_matrix(d, alpha)
        sq = tuple(
            tuple(sum(m[i][k] * m[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )
        assert sq == ((1, 0), (0, 1))


def test_canonical_base():
    d, _ = rootdatum_from_json(A2)
    assert d.canonical_base() == ((0, 1), (1, 0))
    d, _ = rootdatum_from_json(SL2_SPLIT)
    assert d.canonical_base() == ((2,),)


def test_weyl_enumerate_orders():
    d, _ = rootdatum_from_json(SL2_SPLIT)
    assert len(weyl_enumerate(d)) == 2
    d, _ = rootdatum_from_json(A2)
    assert len(weyl_enumerate(d)) == 6
    d, _ = rootdatum_from_json(A1xA1)
    assert len(weyl_enumerate(d)) == 4
    with pytest.raises(WeylCapExceeded):
        weyl_enumerate(d, cap=3)


def test_weyl_stabilizer_sizes():
    d, _ = rootdatum_from_json(A2)
    # pairings (0, 1): fixed exactly by the first simple reflection
    xi = InfChar.from_coords(gvec(["1/3", "2/3"]))
    assert len(weyl_stabilizer(d, xi)) == 2
    assert len(weyl_stabilizer(d, InfChar.from_coords(gvec([0, 0])))) == 6
    # regular element (both simple pairings nonzero): trivial stabilizer
    assert len(weyl_stabilizer(d, InfChar.from_coords(gvec([1, 3])))) == 1


def test_weyl_subgroup():
    d, lv = rootdatum_from_json(A2)
    assert len(weyl_subgroup(d, [(1, 0)])) == 2
    assert len(weyl_subgroup(d, [(1, 0), (0, 1)])) == 6


def test_integral_subsystem_and_positive_system():
    d, _ = rootdatum_from_json(A2)
    lam = gvec(["1/3", "2/3"])  # pairings: 0, 1, 1 on the positive roots
    assert integral_subsystem(d, lam) == tuple(sorted(d.roots))
    with pytest.raises(SingularError):
        positive_system(d, lam)
    reg = gvec([1, 1])  # pairings 1, 1, 2
    assert positive_system(d, reg) == ((0, 1), (1, 0))
    half = gvec(["1/2", "0"])  # pairings 1, -1/2, 1/2: only +-alpha1 integral
    assert integral_subsystem(d, half) == ((-1, 0), (1, 0))
    assert positive_system(d, half) == ((1, 0),)


def test_positive_system_half_integral():
    d, _ = rootdatum_from_json(A2)
    lam = gvec(["1/2", "3/4"])  # pairings 1/4, 1, 5/4 -> integral = +-alpha2
    assert integral_subsystem(d, lam) == ((0, -1), (0, 1))
    assert positive_system(d, lam) == ((0, 1),)


def test_theta_stability():
    d, _ = rootdatum_from_json(SL2_SPLIT)
    assert integral_system_theta_stable(d, gvec(["1/2"]))
    d, _ = rootdatum_from_json(A2)
    assert integral_system_theta_stable(d, gvec([1, 1]))


def test_levi_and_nilradical():
    d, lv = rootdatum_from_json(A2)
    assert levi_roots(d, lv) == ((-1, 0), (1, 0))
    assert nilradical_roots(d, lv) == ((0, 1), (1, 1))
    d, lv = rootdatum_from_json(SL2_SPLIT)
    assert levi_roots(d, lv) == ()
    assert nilradical_roots(d, lv) == ((2,),)


def test_infchar_split():
    xi = InfChar.from_coords(gvec(["1", "1/2"]), a_coordinates=(1,))
    assert xi.m_part == gvec([1, 0])
    assert xi.nu_part == gvec([0, "1/2"])
    same = InfChar.from_parts(gvec([1, 0]), gvec([0, "1/2"]))
    assert same.coords == xi.coords
    with pytest.raises(ValueError):
        InfChar.from_parts(gvec([1, 0]), gvec([1, 0]))


def test_pairing_typing():
    d, _ = rootdatum_from_json(SL2_SPLIT)
    assert d.pairing((2,), gvec(["3/2"])) == GaussRat.parse("3/2")
    with pytest.raises(ValueError):
        d.coroot((3,))
