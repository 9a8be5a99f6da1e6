import itertools
import random
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from klvkit import genericity
from klvkit.gaussian import GaussRat, ScaledVec, gvec, mat_apply, vec_add
from klvkit.genericity import (
    check_hypA,
    check_hypB,
    check_hypC,
    check_hypD,
    emit_arrangement,
    verdict,
)
from klvkit.rootdata import (
    rootdatum_from_json,
    weyl_enumerate,
    weyl_stabilizer,
    weyl_subgroup,
)

from test_rootdata import A1xA1, A2, B2, B3, SL2_SPLIT, SWAP


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b, strict=True))


def test_hypA():
    d, lv = rootdatum_from_json(A2)
    # Levi = full group analogue: both pairings nonzero
    ok, wit = check_hypA(d, lv, gvec([1, 1]))
    assert ok and wit is None
    ok, wit = check_hypA(d, lv, gvec([0, 0]))
    assert not ok and wit == (-1, 0)
    # torus Levi: vacuous
    d, lv = rootdatum_from_json(SL2_SPLIT)
    assert check_hypA(d, lv, gvec([0])) == (True, None)


def test_hypB():
    d, lv = rootdatum_from_json(SL2_SPLIT)
    assert check_hypB(d, lv, gvec(["3/4"]))[0]          # pairing 3/2
    ok, wit = check_hypB(d, lv, gvec([1]))              # pairing 2
    assert not ok and wit == (2,)
    assert check_hypB(d, lv, gvec(["1/4+1/2*i"]))[0]    # nonzero imag part


def test_hypC2():
    d, lv = rootdatum_from_json(SL2_SPLIT)
    ok, wit = check_hypC(d, lv, gvec([0]), gvec([0]))
    assert not ok and wit == ("root", (2,))
    assert check_hypC(d, lv, gvec([0]), gvec([1]))[0]


def test_hypC1_vacuous_for_invariant_xi_m():
    d, lv = rootdatum_from_json(A1xA1)
    # xi_m = 0 is Weyl invariant: only the root condition remains
    assert check_hypC(d, lv, gvec([0, 0]), gvec([0, "1/2"]))[0]


def test_hypC1_affine_condition():
    d, lv = rootdatum_from_json(SWAP)
    xi_m = gvec([1, 0])
    # the swap w gives xi_m - w*xi_m = (1,-1); w*nu - nu = (t,-t) for
    # nu = (0,t), so C1 fails exactly at t = 1
    for t, expect in [("1", False), ("2", True), ("1/2", True)]:
        ok, wit = check_hypC(d, lv, xi_m, gvec(["0", t]))
        assert ok is expect, t
        if not ok:
            assert wit[0] == "weyl"


def test_hypD():
    d, lv = rootdatum_from_json(A2)
    # pairings (0, 1): stabilizer {e, s1} inside the Levi group
    assert check_hypD(d, lv, gvec(["1/3", "2/3"])) == (True, None)
    ok, wit = check_hypD(d, lv, gvec([0, 0]))
    assert not ok and wit is not None


def test_verdict_main1_and_no_conclusion():
    d, lv = rootdatum_from_json(SL2_SPLIT)
    assert verdict(d, lv, gvec([0]), gvec(["3/4"]))["verdict"] == "Main1"
    rec = verdict(d, lv, gvec([0]), gvec([1]))
    assert rec["verdict"] == "NoConclusion"
    assert rec["hypB"] == {"holds": False, "witness": {"root": [2]}}


def test_verdict_main2():
    d, lv = rootdatum_from_json(A1xA1)
    # xi_m = 0 is singular on the Levi root, so the first theorem fails,
    # but the nonintegral nu keeps the second one available
    rec = verdict(d, lv, gvec([0, 0]), gvec([0, "1/2"]))
    assert rec["verdict"] == "Main2"
    assert not rec["hypA"]["holds"]
    assert rec["hypB"]["holds"] and rec["hypC"]["holds"]


def test_randomized_main1_boundary():
    d, lv = rootdatum_from_json(SL2_SPLIT)
    rng = random.Random(7)
    samples = [Fraction(rng.randint(-60, 60), rng.randint(1, 12))
               for _ in range(100)]
    samples += [Fraction(n) for n in range(-5, 6)]
    for t in samples:
        rec = verdict(d, lv, gvec([0]), (GaussRat(t),))
        # pairing with the coroot equals t itself here
        assert (rec["verdict"] == "Main1") == (t.denominator != 1), t


def test_hypB_translation_invariance():
    # adding a vector pairing to 0 with all nilradical coroots cannot
    # change the integrality test
    d, lv = rootdatum_from_json(A1xA1)
    rng = random.Random(3)
    for _ in range(25):
        nu = gvec(["0", Fraction(rng.randint(-20, 20), rng.randint(1, 9))])
        shift = gvec([Fraction(rng.randint(-5, 5)), 0])  # kills coroot (0,1)
        xi = gvec([0, 0])
        from klvkit.gaussian import vec_add
        assert (check_hypB(d, lv, vec_add(xi, nu))[0]
                == check_hypB(d, lv, vec_add(vec_add(xi, nu), shift))[0])


def test_arrangement_integer_window():
    d, lv = rootdatum_from_json(SL2_SPLIT)
    fams = emit_arrangement(d, lv, gvec([0]), (Fraction(-3), Fraction(3)))
    kinds = [f.kind for f in fams]
    assert kinds == ["IntegerCoset", "Zero"]
    coset = fams[0]
    assert coset.functional == (1,)
    assert [str(m) for m in coset.members] == [
        "-3", "-2", "-1", "0", "1", "2", "3"]


def test_arrangement_half_integer_offset():
    d, lv = rootdatum_from_json(SL2_SPLIT)
    fams = emit_arrangement(d, lv, gvec(["1/2"]), (Fraction(-2), Fraction(2)))
    coset = fams[0]
    assert str(coset.offset) == "1/2"
    assert [str(m) for m in coset.members] == [
        "-3/2", "-1/2", "1/2", "3/2"]


def test_arrangement_empty_for_full_levi():
    doc = {**A2, "levi": {"simple_base": [[1, 0], [0, 1]],
                          "levi_simples": [0, 1], "a_coordinates": []}}
    d, lv = rootdatum_from_json(doc)
    assert emit_arrangement(d, lv, gvec([0, 0]), (Fraction(-3), Fraction(3))) == []


def test_arrangement_affine_subspaces():
    d, lv = rootdatum_from_json(SWAP)
    fams = emit_arrangement(d, lv, gvec([1, 0]), (Fraction(-1), Fraction(1)))
    assert [f.kind for f in fams] == ["IntegerCoset", "Zero", "Hyperplane"]
    # the swap moves xi_m = (1, 0) and fixes xi exactly when
    # <coroot, xi> = 1 - t = 0, i.e. -t = -1 for nu = (0, t)
    plane = fams[2]
    assert plane.functional == (-1,)
    assert tuple(str(m) for m in plane.members) == ("-1",)
    assert plane.to_json() == {"kind": "Hyperplane", "functional": [-1],
                               "members": ["-1"]}


_DATA = [SL2_SPLIT, A2, A1xA1, SWAP, B2]
_VALUES = ["0", "0", "1", "-1", "1/2", "-1/2", "2", "1/3", "1*i", "1/2+1/2*i"]


def _random_point(rng, n):
    return gvec(rng.choice(_VALUES) for _ in range(n))


def test_root_tests_match_weyl_enumeration():
    """Flags of C and D against the brute-force definitions over the
    whole Weyl group; every witness fixes xi and either moves xi_m (C)
    or lies outside the Levi Weyl group (D)."""
    rng = random.Random(11)
    for doc in _DATA:
        d, lv = rootdatum_from_json(doc)
        assert d.validate() == [] and lv.validate(d) == []
        levi_group = set(weyl_subgroup(
            d, [lv.simple_base[i] for i in lv.levi_simples]))
        nil = lv.nilradical
        for _ in range(60):
            xi_m, nu = _random_point(rng, d.rank), _random_point(rng, d.rank)
            xi = vec_add(xi_m, nu)
            stab = weyl_stabilizer(d, xi)
            want_c = (all(mat_apply(w, xi_m) == xi_m for w in stab)
                      and all(not ScaledVec(nu).value(d.coroot(a)).is_zero()
                              for a in nil))
            want_d = all(w in levi_group for w in stab)

            c_ok, c_wit = check_hypC(d, lv, xi_m, nu)
            assert c_ok is want_c, (doc, xi_m, nu)
            if c_wit is not None and c_wit[0] == "weyl":
                w = c_wit[1]
                assert mat_apply(w, xi) == xi and mat_apply(w, xi_m) != xi_m
            elif c_wit is not None:
                assert c_wit[1] in nil
                assert ScaledVec(nu).value(d.coroot(c_wit[1])).is_zero()

            d_ok, d_wit = check_hypD(d, lv, xi)
            assert d_ok is want_d, (doc, xi)
            if d_wit is not None:
                kind, w = d_wit
                assert kind == "weyl"
                assert mat_apply(w, xi) == xi and w not in levi_group


def _affine_subspaces(d, xi_m):
    """The excluded set of hypothesis C, first half, as one affine
    subspace (w - 1) nu = xi_m - w xi_m per Weyl element w moving xi_m."""
    out = []
    for w in weyl_enumerate(d):
        delta = _sub(xi_m, mat_apply(w, xi_m))
        if any(not x.is_zero() for x in delta):
            out.append((w, delta))
    return out


def test_hyperplanes_cover_the_affine_subspaces():
    """On a grid of nu over the a-coordinates, nu lies on a Hyperplane
    family exactly when it lies on one of the affine subspaces."""
    rng = random.Random(5)
    grid_values = [GaussRat(Fraction(k, 2)) for k in range(-6, 7)]
    grid_values.append(GaussRat.parse("1/2*i"))
    hits = 0
    for doc in _DATA:
        d, lv = rootdatum_from_json(doc)
        acoords = lv.a_coordinates
        for _ in range(12):
            xi_m = _random_point(rng, d.rank)
            planes = [f for f in emit_arrangement(d, lv, xi_m, (-1, 1))
                      if f.kind == "Hyperplane"]
            subspaces = _affine_subspaces(d, xi_m)
            for vals in itertools.product(grid_values, repeat=len(acoords)):
                nu = [GaussRat()] * d.rank
                for j, v in zip(acoords, vals):
                    nu[j] = v
                nu = tuple(nu)
                on_plane = any(
                    ScaledVec(vals).value(f.functional) == m
                    for f in planes for m in f.members)
                on_subspace = any(
                    _sub(mat_apply(w, nu), nu) == delta
                    for w, delta in subspaces)
                assert on_plane is on_subspace, (doc, xi_m, nu)
                hits += on_plane
    assert hits > 20


def test_arrangement_lists_each_family_once():
    """No report has two equal families, and every nilradical root's
    integer-coset and zero family is still there."""
    rng = random.Random(7)
    for doc in _DATA:
        d, lv = rootdatum_from_json(doc)
        for _ in range(12):
            xi_m = _random_point(rng, d.rank)
            fams = emit_arrangement(d, lv, xi_m, (-2, 2))
            assert len(set(fams)) == len(fams), (doc, xi_m)
            for alpha in lv.nilradical:
                func = tuple(d.coroot(alpha)[j] for j in lv.a_coordinates)
                c = ScaledVec(xi_m).value(d.coroot(alpha))
                assert any(f.kind == "IntegerCoset" and f.functional == func
                           and f.offset == c for f in fams)
                assert any(f.kind == "Zero" and f.functional == func
                           for f in fams)
    # B2's three nilradical roots share one coroot on the a-coordinates
    d, lv = rootdatum_from_json(B2)
    fams = emit_arrangement(d, lv, gvec([0, 0]), (-1, 1))
    assert len(lv.nilradical) == 3
    assert [f.kind for f in fams] == ["IntegerCoset", "Zero"]


def test_arrangement_families_may_cover_the_same_planes():
    """Each family stands for the condition of one nilradical root, so
    families of different roots may name the same planes.  On B2 at
    xi_m = (1, 0) the three roots pair to 0, 1 and 2 with xi_m: three
    integer cosets of functional (2) with equal members, and two
    hyperplanes that lie inside them.  Merging them would change the
    report."""
    d, lv = rootdatum_from_json(B2)
    fams = emit_arrangement(d, lv, gvec([1, 0]), (-2, 2))
    members = ["-2", "-1", "0", "1", "2"]
    assert [f.to_json() for f in fams] == [
        {"kind": "IntegerCoset", "functional": [2], "offset": "0", "members": members},
        {"kind": "Zero", "functional": [2]},
        {"kind": "IntegerCoset", "functional": [2], "offset": "1", "members": members},
        {"kind": "IntegerCoset", "functional": [2], "offset": "2", "members": members},
        {"kind": "Hyperplane", "functional": [2], "members": ["-1"]},
        {"kind": "Hyperplane", "functional": [2], "members": ["-2"]},
    ]


# ---------------------------------------------------------------------------
# The arrangement against the paper's theorem: i_P^G(pi_M x chi_nu) is
# irreducible for every nu off a locally finite union of hyperplanes.

_THEOREM_DATA = [rootdatum_from_json(doc) for doc in (SL2_SPLIT, A1xA1, SWAP, B2, B3)]
_RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
_GAUSS = st.builds(GaussRat, _RATIONALS,
                   st.one_of(st.just(Fraction(0)), _RATIONALS))


@st.composite
def _points(draw):
    """A datum, xi_m on every coordinate and nu on the a-coordinates."""
    d, lv = draw(st.sampled_from(_THEOREM_DATA))
    xi_m = tuple(draw(_GAUSS) for _ in range(d.rank))
    nu = [GaussRat()] * d.rank
    for j in lv.a_coordinates:
        nu[j] = draw(_GAUSS)
    return d, lv, xi_m, tuple(nu)


def _value(lv, fam, nu):
    """functional . nu, the quantity the family's planes fix."""
    return ScaledVec(tuple(nu[j] for j in lv.a_coordinates)).value(fam.functional)


def _on(fam, value) -> bool:
    return value.is_zero() if fam.kind == "Zero" else value in fam.members


@settings(max_examples=300, deadline=None)
@given(point=_points(),
       window=st.sampled_from([(-3, 3), (-2, 1), (Fraction(-1, 2), 4)]))
def test_off_the_arrangement_a_theorem_applies(point, window):
    """Every nu whose functional values all lie in the window, and that
    lies on no emitted plane, gets Main1 or Main2."""
    d, lv, xi_m, nu = point
    fams = emit_arrangement(d, lv, xi_m, window)
    values = [_value(lv, f, nu) for f in fams]
    assume(all(window[0] <= v.real <= window[1] for v in values))
    assume(not any(_on(f, v) for f, v in zip(fams, values)))
    assert verdict(d, lv, xi_m, nu)["verdict"] in ("Main1", "Main2")


@st.composite
def _on_a_plane(draw, kind):
    """A point whose nu lies on one plane of a family of the given kind,
    found by solving functional . nu = member for one a-coordinate."""
    d, lv, xi_m, nu = draw(_points())
    fams = [f for f in emit_arrangement(d, lv, xi_m, (-2, 2)) if f.kind == kind]
    assume(fams)
    fam = draw(st.sampled_from(fams))
    target = draw(st.sampled_from(fam.members)) if fam.members else GaussRat()
    k = draw(st.sampled_from([k for k, c in enumerate(fam.functional) if c]))
    j, c = lv.a_coordinates[k], fam.functional[k]
    rest = _value(lv, fam, nu) - c * nu[j]
    nu = list(nu)
    nu[j] = (target - rest) * GaussRat(Fraction(1, c))
    assert _value(lv, fam, nu) == target
    return d, lv, xi_m, tuple(nu), fams


@settings(max_examples=150, deadline=None)
@given(case=_on_a_plane("IntegerCoset"))
def test_on_an_integer_coset_plane_hypB_fails(case):
    d, lv, xi_m, nu, _ = case
    ok, wit = check_hypB(d, lv, vec_add(xi_m, nu))
    assert not ok and wit in lv.nilradical


@settings(max_examples=150, deadline=None)
@given(case=_on_a_plane("Zero"))
def test_on_a_zero_plane_hypC_fails_at_a_root(case):
    """Off the Hyperplane families no root witnesses the first half of
    C, so the second half fails, at a nilradical root."""
    d, lv, xi_m, nu, _ = case
    planes = [f for f in emit_arrangement(d, lv, xi_m, (-2, 2))
              if f.kind == "Hyperplane"]
    assume(not any(_on(f, _value(lv, f, nu)) for f in planes))
    ok, wit = check_hypC(d, lv, xi_m, nu)
    assert not ok and wit[0] == "root"
    assert wit[1] in lv.nilradical
    assert ScaledVec(nu).value(d.coroot(wit[1])).is_zero()


@settings(max_examples=150, deadline=None)
@given(case=_on_a_plane("Hyperplane"))
def test_on_a_hyperplane_hypC_fails_at_a_weyl_element(case):
    d, lv, xi_m, nu, _ = case
    ok, wit = check_hypC(d, lv, xi_m, nu)
    assert not ok and wit[0] == "weyl"
    xi = vec_add(xi_m, nu)
    assert mat_apply(wit[1], xi) == xi and mat_apply(wit[1], xi_m) != xi_m


def test_verdict_finds_the_singular_roots_once(monkeypatch):
    """Hypotheses C and D share one pass over the roots per verdict."""
    calls = []
    singular = genericity._singular_roots
    monkeypatch.setattr(genericity, "_singular_roots",
                        lambda *args: calls.append(1) or singular(*args))
    d, lv = rootdatum_from_json(B3)
    rec = verdict(d, lv, gvec([0, 0, 0]), gvec(["1/2", "1/3", 0]))
    assert len(calls) == 1
    monkeypatch.setattr(genericity, "_singular_roots", singular)
    assert verdict(d, lv, gvec([0, 0, 0]), gvec(["1/2", "1/3", 0])) == rec
    xi = gvec(["1/2", "1/3", 0])
    assert rec["hypC"]["holds"] == check_hypC(d, lv, gvec([0, 0, 0]), xi)[0]
    assert rec["hypD"]["holds"] == check_hypD(d, lv, xi)[0]
