"""Exact genericity tests for an infinitesimal character xi = xi_m + nu
split along a Levi selection, and the excluded hyperplane arrangement.

Every test is a root test: whether the pairing <coroot, x> is zero, an
integer or a positive integer.  Each vector is written once as integers
over one common denominator (`ScaledVec`), so every test reads off
integer dot products; there are no tolerances.  A failed hypothesis
never claims reducibility — the strongest verdict that the checks
support is reported, otherwise "NoConclusion".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .gaussian import GaussRat, GVec, ScaledVec, gvec, vec_add
from .rootdata import LeviSelection, RootDatum, reflection_matrix
# Not called here: bench/tracer.py wraps these names in this module to
# count Weyl elements enumerated.
from .rootdata import weyl_enumerate, weyl_stabilizer, weyl_subgroup  # noqa: F401

__all__ = [
    "HyperplaneFamily", "check_hypA", "check_hypB", "check_hypC",
    "check_hypD", "verdict", "emit_arrangement",
]


@dataclass(frozen=True)
class HyperplaneFamily:
    kind: str  # "IntegerCoset" | "Zero" | "Hyperplane"
    functional: tuple[int, ...]
    offset: GaussRat | None = None
    members: tuple[GaussRat, ...] = ()

    def to_json(self) -> dict:
        doc: dict = {"kind": self.kind, "functional": list(self.functional)}
        if self.offset is not None:
            doc["offset"] = str(self.offset)
        if self.members:
            doc["members"] = [str(m) for m in self.members]
        return doc


def _coords(xi) -> GVec:
    return xi.coords if isinstance(xi, ScaledVec) else gvec(xi)


def _scaled(xi) -> ScaledVec:
    """xi, given as a vector or a ScaledVec, as a ScaledVec."""
    return xi if isinstance(xi, ScaledVec) else ScaledVec(_coords(xi))


def check_hypA(d: RootDatum, lv: LeviSelection, xi):
    """No Levi root may pair to zero with xi."""
    x = _scaled(xi)
    for alpha in lv.levi:
        if x.is_zero(d.coroot(alpha)):
            return False, alpha
    return True, None


def check_hypB(d: RootDatum, lv: LeviSelection, xi):
    """No nilradical root may pair to an integer with xi."""
    x = _scaled(xi)
    for alpha in lv.nilradical:
        if x.is_integer(d.coroot(alpha)):
            return False, alpha
    return True, None


def _singular_roots(d: RootDatum, x: ScaledVec) -> list:
    """Roots pairing to zero with x, in d.roots order.  By Steinberg's
    theorem their reflections generate the stabilizer of x in the Weyl
    group."""
    return [a for a in d.roots if x.is_zero(d.coroot(a))]


def check_hypC(d: RootDatum, lv: LeviSelection, xi_m, nu, singular=None):
    """Two exact conditions on nu given the singular part xi_m:
    no Weyl element moving xi_m can realize w*nu - nu = xi_m - w*xi_m,
    i.e. every root singular on xi = xi_m + nu is singular on xi_m,
    and no nilradical root pairs to zero with nu.  `singular`, if given,
    is `_singular_roots` of xi."""
    xm, nv = _scaled(xi_m), _scaled(nu)
    if singular is None:
        singular = _singular_roots(d, ScaledVec(vec_add(xm.coords, nv.coords)))
    for alpha in singular:
        if not xm.is_zero(d.coroot(alpha)):
            return False, ("weyl", reflection_matrix(d, alpha))
    for alpha in lv.nilradical:
        if nv.is_zero(d.coroot(alpha)):
            return False, ("root", alpha)
    return True, None


def check_hypD(d: RootDatum, lv: LeviSelection, xi, singular=None):
    """The full stabilizer of xi must lie inside the Levi Weyl group,
    i.e. every root singular on xi must be a Levi root.  `singular`, if
    given, is `_singular_roots` of xi."""
    if singular is None:
        singular = _singular_roots(d, _scaled(xi))
    for alpha in singular:
        if alpha not in lv.levi:
            return False, ("weyl", reflection_matrix(d, alpha))
    return True, None


def verdict(d: RootDatum, lv: LeviSelection, xi_m, nu) -> dict:
    """Strongest applicable conclusion with per-hypothesis detail."""
    xm, nv = _coords(xi_m), _coords(nu)
    xi = ScaledVec(vec_add(xm, nv))
    singular = _singular_roots(d, xi)
    a_ok, a_wit = check_hypA(d, lv, xi)
    b_ok, b_wit = check_hypB(d, lv, xi)
    c_ok, c_wit = check_hypC(d, lv, ScaledVec(xm), ScaledVec(nv), singular)
    d_ok, d_wit = check_hypD(d, lv, xi, singular)
    if a_ok and b_ok:
        tag = "Main1"
    elif b_ok and (c_ok or d_ok):
        tag = "Main2"
    else:
        tag = "NoConclusion"

    def detail(ok, wit):
        rec: dict = {"holds": ok}
        if wit is not None:
            rec["witness"] = _witness_json(wit)
        return rec

    return {
        "verdict": tag,
        "hypA": detail(a_ok, a_wit),
        "hypB": detail(b_ok, b_wit),
        "hypC": detail(c_ok, c_wit),
        "hypD": detail(d_ok, d_wit),
    }


def _witness_json(wit):
    if wit[0] == "weyl":
        return {"weyl": [list(r) for r in wit[1]]}
    if wit[0] == "root":
        return {"root": list(wit[1])}
    return {"root": list(wit)}


def emit_arrangement(d: RootDatum, lv: LeviSelection, xi_m,
                     window: tuple[Fraction, Fraction]) -> list[HyperplaneFamily]:
    """All excluded hyperplanes meeting the window, deterministically
    ordered: integer-coset families and zero planes per nilradical root,
    then the hyperplane <coroot, nu> = -<coroot, xi_m> of each
    nilradical root not singular on xi_m, where the stabilizer of
    xi_m + nu moves xi_m.  Levi roots vanish on the a-coordinates, so
    they add no hyperplane.  Roots with the same coroot on the
    a-coordinates give the same family; it is listed once, where it
    first occurs."""
    xm = _scaled(xi_m)
    lo, hi = Fraction(window[0]), Fraction(window[1])
    out: list[HyperplaneFamily] = []
    moving: list[HyperplaneFamily] = []
    for alpha in lv.nilradical:
        cr = d.coroot(alpha)
        func = tuple(cr[j] for j in lv.a_coordinates)
        c = xm.value(cr)
        members = []
        n = (lo + c.real).__ceil__()
        while n - c.real <= hi:
            members.append(GaussRat(n - c.real, -c.imag))
            n += 1
        out.append(HyperplaneFamily(
            kind="IntegerCoset", functional=func, offset=c,
            members=tuple(members),
        ))
        out.append(HyperplaneFamily(kind="Zero", functional=func))
        if not c.is_zero():
            moving.append(HyperplaneFamily(
                kind="Hyperplane", functional=func, members=(-c,),
            ))
    return list(dict.fromkeys(out + moving))
