"""Root systems with coroots, a Cartan involution theta, integral
subsystems, Levi/nilradical decomposition, and Weyl group enumeration,
the brute-force reference for the root tests of `genericity`."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .coxeter import _mat_mul
from .gaussian import GaussRat, GVec, gvec, mat_apply, pair, vec_sub

__all__ = [
    "RootDatum", "LeviSelection", "InfChar", "RootClass",
    "classify_root", "integral_subsystem", "weyl_enumerate",
    "weyl_stabilizer", "positive_system", "reflection_matrix",
    "integral_system_theta_stable", "WeylCapExceeded", "SingularError",
    "rootdatum_from_json", "rootdatum_to_json",
    "load_rootdatum",
]

DEFAULT_WEYL_CAP = 10080

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]


class WeylCapExceeded(RuntimeError):
    pass


class SingularError(ValueError):
    pass


class RootClass(Enum):
    REAL = "Real"
    IMAGINARY = "Imaginary"
    COMPLEX = "Complex"


def _identity(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_vec(m: IntMat, v: IntVec) -> IntVec:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


@dataclass(frozen=True)
class RootDatum:
    rank: int
    roots: tuple[IntVec, ...]
    coroots: dict[IntVec, IntVec]
    theta: IntMat

    def coroot(self, alpha: IntVec) -> IntVec:
        try:
            return self.coroots[alpha]
        except KeyError:
            raise ValueError(f"not a root: {alpha}") from None

    def pairing(self, alpha: IntVec, x: GVec) -> GaussRat:
        """<coroot(alpha), x> for a Gaussian-rational vector x."""
        return pair(self.coroot(alpha), x)

    def theta_apply(self, v: IntVec) -> IntVec:
        return _mat_vec(self.theta, v)

    def validate(self) -> list[str]:
        """Structural checks, as a list of human-readable violations."""
        out = []
        rs = set(self.roots)
        if len(rs) != len(self.roots):
            out.append("duplicate roots")
        for a in self.roots:
            if tuple(-x for x in a) not in rs:
                out.append(f"roots not closed under negation at {a}")
            cr = self.coroots.get(a)
            if cr is None:
                out.append(f"missing coroot for {a}")
            elif sum(c * x for c, x in zip(cr, a)) != 2:
                out.append(f"<coroot,root> != 2 at {a}")
        th2 = _mat_mul(self.theta, self.theta)
        if th2 != _identity(self.rank):
            out.append("theta^2 != identity")
        for a in self.roots:
            if self.theta_apply(a) not in rs:
                out.append(f"theta does not permute roots at {a}")
        for a in self.roots:
            m = reflection_matrix(self, a)
            for b in self.roots:
                if _mat_vec(m, b) not in rs:
                    out.append(f"reflection in {a} does not permute roots")
                    break
        return out

    def canonical_base(self) -> tuple[IntVec, ...]:
        """Simple roots of a deterministic positive system, sorted
        lexicographically.  Uses the first generic integer functional
        (1, t, t^2, ...) with no vanishing root pairing."""
        if not self.roots:
            return ()
        t = 1
        while True:
            f = tuple(t**i for i in range(self.rank))
            vals = {a: sum(c * x for c, x in zip(f, a)) for a in self.roots}
            if all(v != 0 for v in vals.values()):
                break
            t += 1
        pos = [a for a in self.roots if vals[a] > 0]
        return tuple(sorted(a for a in pos if not _is_sum_of_two(a, pos)))


def _is_sum_of_two(alpha: IntVec, pos) -> bool:
    ps = set(pos)
    return any(
        tuple(x - y for x, y in zip(alpha, b)) in ps
        for b in ps
        if b != alpha
    )


def reflection_matrix(d: RootDatum, alpha: IntVec) -> IntMat:
    """Matrix of s_alpha: x -> x - <coroot(alpha), x> alpha on Z^rank."""
    cr = d.coroot(alpha)
    n = d.rank
    return tuple(
        tuple((1 if i == j else 0) - cr[j] * alpha[i] for j in range(n))
        for i in range(n)
    )


@dataclass(frozen=True)
class LeviSelection:
    simple_base: tuple[IntVec, ...]
    levi_simples: tuple[int, ...]
    a_coordinates: tuple[int, ...]

    def validate(self, d: RootDatum) -> list[str]:
        out = []
        base = self.simple_base
        for a in d.roots:
            coeffs = _decompose(a, base, d.rank)
            if coeffs is None:
                out.append(f"root {a} not an integer combination of the base")
            elif not (all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)):
                out.append(f"root {a} has mixed signs over the base")
        for a in levi_roots(d, self):
            cr = d.coroot(a)
            if any(cr[j] != 0 for j in self.a_coordinates):
                out.append(f"Levi root {a} does not pair to zero with a-coordinates")
        return out


def _decompose(alpha: IntVec, base: tuple[IntVec, ...], rank: int):
    """Integer coefficients of alpha over the base vectors, or None."""
    if not base:
        return None if any(alpha) else ()
    # Gaussian elimination over Q on the rank x len(base) system.
    rows = [[Fraction(base[k][i]) for k in range(len(base))] + [Fraction(alpha[i])]
            for i in range(rank)]
    ncols = len(base)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, rank) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        pr[:] = [x / pr[c] for x in pr]
        for i in range(rank):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], pr)]
        pivots.append(c)
        r += 1
    coeffs = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        coeffs[c] = rows[i][-1]
    for i in range(r, rank):
        if rows[i][-1] != 0:
            return None
    if any(x.denominator != 1 for x in coeffs):
        return None
    out = tuple(int(x) for x in coeffs)
    check = tuple(sum(out[k] * base[k][i] for k in range(ncols)) for i in range(rank))
    return out if check == alpha else None


def levi_roots(d: RootDatum, lv: LeviSelection) -> tuple[IntVec, ...]:
    """Roots supported on the Levi simples (both signs)."""
    out = []
    for a in d.roots:
        coeffs = _decompose(a, lv.simple_base, d.rank)
        if coeffs is not None and all(
            c == 0 for k, c in enumerate(coeffs) if k not in lv.levi_simples
        ):
            out.append(a)
    return tuple(sorted(out))


def nilradical_roots(d: RootDatum, lv: LeviSelection) -> tuple[IntVec, ...]:
    """Positive roots (over the base) outside the Levi."""
    levi = set(levi_roots(d, lv))
    out = []
    for a in d.roots:
        if a in levi:
            continue
        coeffs = _decompose(a, lv.simple_base, d.rank)
        if coeffs is not None and all(c >= 0 for c in coeffs):
            out.append(a)
    return tuple(sorted(out))


@dataclass(frozen=True)
class InfChar:
    coords: GVec
    m_part: GVec
    nu_part: GVec

    @classmethod
    def from_coords(cls, coords, a_coordinates=()) -> "InfChar":
        coords = gvec(coords)
        a = set(a_coordinates)
        m = tuple(x if i not in a else GaussRat() for i, x in enumerate(coords))
        nu = tuple(x if i in a else GaussRat() for i, x in enumerate(coords))
        return cls(coords, m, nu)

    @classmethod
    def from_parts(cls, m_part, nu_part) -> "InfChar":
        m, nu = gvec(m_part), gvec(nu_part)
        if any((not x.is_zero()) and (not y.is_zero()) for x, y in zip(m, nu, strict=True)):
            raise ValueError("m_part and nu_part must have disjoint supports")
        return cls(tuple(x + y for x, y in zip(m, nu)), m, nu)


def classify_root(d: RootDatum, alpha: IntVec) -> RootClass:
    if alpha not in d.coroots:
        raise ValueError(f"not a root: {alpha}")
    ta = d.theta_apply(alpha)
    if ta == alpha:
        return RootClass.IMAGINARY
    if ta == tuple(-x for x in alpha):
        return RootClass.REAL
    return RootClass.COMPLEX


def integral_subsystem(d: RootDatum, lam: InfChar | GVec) -> tuple[IntVec, ...]:
    """Roots whose coroot pairs to a (real) integer with lam."""
    coords = lam.coords if isinstance(lam, InfChar) else gvec(lam)
    return tuple(sorted(a for a in d.roots if d.pairing(a, coords).is_integer()))


def _weyl_bfs(d: RootDatum, roots, cap: int) -> list[IntMat]:
    """Group generated by the reflections in roots, in BFS order from
    the identity; WeylCapExceeded once it would exceed cap elements."""
    gens = [reflection_matrix(d, a) for a in roots]
    ident = _identity(d.rank)
    seen = {ident}
    order = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                gw = _mat_mul(g, w)
                if gw not in seen:
                    if len(seen) + 1 > cap:
                        raise WeylCapExceeded(f"Weyl group exceeds cap {cap}")
                    seen.add(gw)
                    order.append(gw)
                    nxt.append(gw)
        frontier = nxt
    return order


def weyl_enumerate(d: RootDatum, cap: int = DEFAULT_WEYL_CAP) -> list[IntMat]:
    """All Weyl group elements as lattice matrices, by BFS over the
    canonical simple reflections.  Deterministic order."""
    return _weyl_bfs(d, d.canonical_base(), cap)


def weyl_subgroup(d: RootDatum, simples, cap: int = DEFAULT_WEYL_CAP) -> list[IntMat]:
    """Subgroup generated by the reflections in the given roots, sorted."""
    return sorted(_weyl_bfs(d, simples, cap))


def weyl_stabilizer(d: RootDatum, xi: InfChar, cap: int = DEFAULT_WEYL_CAP) -> list[IntMat]:
    coords = xi.coords
    return [w for w in weyl_enumerate(d, cap) if mat_apply(w, coords) == coords]


def positive_system(d: RootDatum, lam: InfChar | GVec) -> tuple[IntVec, ...]:
    """Simple roots of the positive integral system R+(lam), sorted
    lexicographically.  Raises SingularError on a zero integral pairing."""
    coords = lam.coords if isinstance(lam, InfChar) else gvec(lam)
    integral = integral_subsystem(d, coords)
    pos = []
    for a in integral:
        p = d.pairing(a, coords)
        if p.is_zero():
            raise SingularError("singular on integral system")
        if p.real > 0:
            pos.append(a)
    return tuple(sorted(a for a in pos if not _is_sum_of_two(a, pos)))


def integral_system_theta_stable(d: RootDatum, lam: InfChar | GVec) -> bool:
    """Validator: does theta map R(lam) onto itself?"""
    integral = set(integral_subsystem(d, lam))
    return all(d.theta_apply(a) in integral for a in integral)


# ---------------------------------------------------------------------------
# JSON file format

def _ints(values, field: str, length: int | None = None) -> IntVec:
    """A JSON list of integers, of the given length if one is given;
    ValueError names the field."""
    if not isinstance(values, list) or any(type(x) is not int for x in values) \
            or length not in (None, len(values)):
        what = "a list of" if length is None else f"lists of {length}"
        raise ValueError(f"{field} must be {what} integers")
    return tuple(values)


def _vectors(rows, field: str, rank: int) -> tuple[IntVec, ...]:
    if not isinstance(rows, list):
        raise ValueError(f"{field} must be a list of vectors")
    return tuple(_ints(r, field, rank) for r in rows)


def _indices(values, field: str, bound: int) -> IntVec:
    out = _ints(values, field)
    if any(not 0 <= i < bound for i in out):
        raise ValueError(f"{field} has an index outside 0..{bound - 1}")
    return out


def rootdatum_from_json(doc: dict) -> tuple[RootDatum, LeviSelection | None]:
    """Parse a root-datum document.  Shapes, integer entries and index
    ranges are checked (ValueError naming the field); the root-system
    axioms are left to `RootDatum.validate` and `LeviSelection.validate`."""
    rank = doc["rank"]
    if type(rank) is not int:
        raise ValueError("rank must be an integer")
    roots = _vectors(doc["roots"], "roots", rank)
    coroot_list = _vectors(doc["coroots"], "coroots", rank)
    if len(coroot_list) != len(roots):
        raise ValueError("coroots must be aligned with roots")
    coroots = dict(zip(roots, coroot_list))
    theta = _vectors(doc["theta"], "theta", rank)
    if len(theta) != rank:
        raise ValueError(f"theta must have {rank} rows")
    d = RootDatum(rank=rank, roots=roots, coroots=coroots, theta=theta)
    lv = None
    if "levi" in doc and doc["levi"] is not None:
        l = doc["levi"]
        if not isinstance(l, dict):
            raise ValueError("levi must be an object")
        base = _vectors(l["simple_base"], "simple_base", rank)
        lv = LeviSelection(
            simple_base=base,
            levi_simples=_indices(l["levi_simples"], "levi_simples", len(base)),
            a_coordinates=_indices(l["a_coordinates"], "a_coordinates", rank),
        )
    return d, lv


def rootdatum_to_json(d: RootDatum, lv: LeviSelection | None = None) -> dict:
    doc = {
        "rank": d.rank,
        "roots": [list(r) for r in d.roots],
        "coroots": [list(d.coroots[r]) for r in d.roots],
        "theta": [list(row) for row in d.theta],
    }
    if lv is not None:
        doc["levi"] = {
            "simple_base": [list(r) for r in lv.simple_base],
            "levi_simples": list(lv.levi_simples),
            "a_coordinates": list(lv.a_coordinates),
        }
    return doc


def load_rootdatum(path: str) -> tuple[RootDatum, LeviSelection | None]:
    with open(path, encoding="utf-8") as fh:
        return rootdatum_from_json(json.load(fh))
