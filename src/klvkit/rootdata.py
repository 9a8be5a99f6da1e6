"""Root data with coroots and a Cartan involution theta, the
Levi/nilradical split of a Levi selection, and Weyl group enumeration,
the brute-force reference for the root tests of `genericity`.

The split is computed once, when `rootdatum_from_json` reads a file: it
eliminates the selection's `simple_base` once, over the integers, then
decomposes each root over the base by integer dot products and
divisibility tests, and stores the coefficients, the Levi roots and the
nilradical roots on the `LeviSelection`, which every later check reads.
The command line runs `RootDatum.validate` and `LeviSelection.validate`
on every root datum it loads."""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd, lcm
from operator import mul

from .coxeter import _mat_mul
from .gaussian import GaussRat, GVec, gvec, mat_apply, pair

__all__ = [
    "RootDatum", "LeviSelection", "InfChar", "weyl_enumerate",
    "weyl_subgroup", "weyl_stabilizer", "reflection_matrix",
    "WeylCapExceeded", "rootdatum_from_json", "load_rootdatum",
]

DEFAULT_WEYL_CAP = 10080

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]


class WeylCapExceeded(RuntimeError):
    pass


def _identity(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_vec(m: IntMat, v: IntVec) -> IntVec:
    return tuple([sum(map(mul, row, v)) for row in m])


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
            elif sum(map(mul, cr, a)) != 2:
                out.append(f"<coroot,root> != 2 at {a}")
        th2 = _mat_mul(self.theta, self.theta)
        if th2 != _identity(self.rank):
            out.append("theta^2 != identity")
        for a in self.roots:
            if self.theta_apply(a) not in rs:
                out.append(f"theta does not permute roots at {a}")
        for a in self.roots:
            cr = self.coroot(a)
            for b in self.roots:
                # s_a(b) = b - <coroot(a), b> a, which is b itself when
                # the pairing is 0
                p = sum(map(mul, cr, b))
                if p and tuple([x - p * y for x, y in zip(b, a)]) not in rs:
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
    """A Levi subgroup, named by some simples of `simple_base`, and the
    coordinates that nu lives on.  `rootdatum_from_json` splits the
    roots of its datum once: `coefficients` holds each root's integer
    coefficients over the base, aligned with the datum's roots (None
    where there are none); `levi` holds the roots supported on the
    Levi simples, of both signs, and `nilradical` the positive roots
    outside the Levi, both sorted; `base_rank` is the rank of the base
    vectors, the number of pivots their elimination found."""
    simple_base: tuple[IntVec, ...]
    levi_simples: tuple[int, ...]
    a_coordinates: tuple[int, ...]
    coefficients: tuple[IntVec | None, ...]
    levi: tuple[IntVec, ...]
    nilradical: tuple[IntVec, ...]
    base_rank: int

    def validate(self, d: RootDatum) -> list[str]:
        """Checks against the datum the selection was loaded with."""
        out = []
        for a, coeffs in zip(d.roots, self.coefficients, strict=True):
            if coeffs is None:
                out.append(f"root {a} not an integer combination of the base")
            elif not (all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)):
                out.append(f"root {a} has mixed signs over the base")
        for a in self.levi:
            cr = d.coroot(a)
            if any(cr[j] != 0 for j in self.a_coordinates):
                out.append(f"Levi root {a} does not pair to zero with a-coordinates")
        if self.base_rank < len(self.simple_base):
            out.append(f"simple_base of {len(self.simple_base)} vectors has rank "
                       f"{self.base_rank}: it is linearly dependent")
        return out


def _split(d: RootDatum, simple_base, levi_simples, a_coordinates) -> LeviSelection:
    """Decompose each root of d over the base, once, and sort it into
    the Levi or the nilradical."""
    elim = _eliminator(simple_base, d.rank)
    coefficients = tuple(_decompose(a, simple_base, elim) for a in d.roots)
    levi, nilradical = [], []
    for a, coeffs in zip(d.roots, coefficients):
        if coeffs is None:
            continue
        if all(c == 0 for k, c in enumerate(coeffs) if k not in levi_simples):
            levi.append(a)
        elif all(c >= 0 for c in coeffs):
            nilradical.append(a)
    return LeviSelection(simple_base, levi_simples, a_coordinates, coefficients,
                         tuple(sorted(levi)), tuple(sorted(nilradical)), len(elim[0]))


def _eliminator(base: tuple[IntVec, ...], rank: int):
    """Gauss-Jordan elimination of the rank x len(base) matrix whose
    columns are the base vectors, done once, over the integers: a row
    is cleared by cross-multiplying with the pivot row and divided by
    the gcd of its entries.  Returns the pivot columns, the row
    operations as a rank x rank integer matrix E and a common
    denominator den >= 1: E times the matrix is den times its reduced
    row echelon form."""
    nb = len(base)
    rows = [[base[k][i] for k in range(nb)] + [int(i == j) for j in range(rank)]
            for i in range(rank)]
    pivots = []
    r = 0
    for c in range(nb):
        piv = next((i for i in range(r, rank) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        p = pr[c]
        for i in range(rank):
            f = rows[i][c]
            if i != r and f:
                # E stays invertible, so the row is never all zero
                row = [p * x - f * y for x, y in zip(rows[i], pr)]
                g = gcd(*row)
                rows[i] = [x // g for x in row]
        pivots.append(c)
        r += 1
    den = lcm(*[rows[i][c] for i, c in enumerate(pivots)])
    ops = [[x * (den // rows[i][c]) for x in rows[i][nb:]]
           for i, c in enumerate(pivots)]
    return pivots, ops + [row[nb:] for row in rows[r:]], den


def _decompose(alpha: IntVec, base: tuple[IntVec, ...], elim):
    """Integer coefficients of alpha over the base vectors, or None.
    elim is `_eliminator(base, rank)`; E alpha holds den times the
    coefficients at the pivot rows and must vanish below them.  Then
    alpha lies in the span of the base, and the coefficients (0 off the
    pivot columns) solve for it exactly, so den must divide each."""
    if not base:
        return None if any(alpha) else ()
    pivots, ops, den = elim
    y = [sum(map(mul, row, alpha)) for row in ops]
    if any(y[len(pivots):]):
        return None
    coeffs = [0] * len(base)
    for i, c in enumerate(pivots):
        k, rem = divmod(y[i], den)
        if rem:
            return None
        coeffs[c] = k
    return tuple(coeffs)


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
    """Parse a root-datum document and split its roots over the Levi
    selection's base.  Shapes, integer entries and index ranges are
    checked (ValueError naming the field); the root-system axioms are
    left to `RootDatum.validate` and `LeviSelection.validate`."""
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
        lv = _split(d, base,
                    _indices(l["levi_simples"], "levi_simples", len(base)),
                    _indices(l["a_coordinates"], "a_coordinates", rank))
    return d, lv


def load_rootdatum(path: str) -> tuple[RootDatum, LeviSelection | None]:
    with open(path, encoding="utf-8") as fh:
        return rootdatum_from_json(json.load(fh))
