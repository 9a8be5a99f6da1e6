"""Root data with coroots and a Cartan involution theta, the
Levi/nilradical split of a Levi selection, and Weyl group enumeration,
the brute-force reference for the root tests of `genericity`: the group
generated by the reflections of all roots, enumerated by
`coxeter.reflection_group`.

The split is computed once, when `rootdatum_from_json` reads a file: it
eliminates the selection's `simple_base` once, over the integers, then
decomposes each root over the base by integer dot products and
divisibility tests, and stores the coefficients, the Levi roots and the
nilradical roots on the `LeviSelection`, which every later check reads.
The command line runs `RootDatum.validate` and `LeviSelection.validate`
on every root datum it loads.  `RootDatum.validate` reads each root once
as an integer code, and checks theta and each reflection on every root
at once: one big-int product packs the images, and one set test reads
them (the lemma is in its docstring)."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd, lcm
from operator import lshift, mul

from .coxeter import reflection_group
from .gaussian import GVec, mat_apply

__all__ = [
    "RootDatum", "LeviSelection", "weyl_enumerate", "weyl_subgroup",
    "weyl_stabilizer", "reflection_matrix", "rootdatum_from_json",
]

DEFAULT_WEYL_CAP = 10080

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]


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

    def validate(self) -> list[str]:
        """Structural checks, as a list of human-readable violations: the
        roots are distinct and closed under negation, <coroot(a), a> = 2,
        theta^2 = 1, and theta and s_a, for each root a with a coroot,
        permute the roots.

        A vector v is read as its code E(v) = sum_i v_i 2^(w i).  Let top,
        ctop and ttop be the largest absolute entries of the roots, their
        coroots and theta.  Each vector x the checks compare (a root, its
        negative, s_a(b) = b - <coroot(a), b> a, theta(b), a column of
        theta^2 or of the identity) has |x_i| <= max(1, top + rank ctop
        top^2, rank ttop max(top, ttop)) < 2^(w-1), so its entries are
        balanced base-2^w digits: E is injective on these vectors, and x
        is a root exactly when E(x) is a root's code.  With B =
        sum_i 2^(w-1) 2^(w i), E(x) + B has the unsigned w-bit digits
        x_i + 2^(w-1), so it is below 2^W for W = 8 size > w rank, and
        the W-bit lanes of sum_j (E(x_j) + B) 2^(W j), its size-byte
        chunks, are these biased codes.  Digit i of each lane of the
        packed roots, less 2^(w-1), gives cols_i = sum_j b_ji 2^(W j).  E
        is linear, so sum_j (E(s_a b_j) + B) 2^(W j) is the packed roots
        minus E(a) sum_i coroot(a)_i cols_i, and sum_j E(theta b_j)
        2^(W j) = sum_k E(theta e_k) cols_k: one product packs a map's
        image of every root, and one set test of its chunks checks it.
        Roots with the same reflection, such as a and -a, share one
        test."""
        out = []
        roots, rank, n = self.roots, self.rank, len(self.roots)
        coroots = [self.coroots.get(a) for a in roots]
        tcols = list(zip(*self.theta))
        top, ctop, ttop = (max(map(abs, chain.from_iterable(vs)), default=0)
                           for vs in (roots, filter(None, coroots), tcols))
        w = max(1, top + rank * ctop * top * top,
                rank * ttop * max(top, ttop)).bit_length() + 1
        digits = range(0, w * rank, w)
        codes = [sum(map(lshift, a, digits)) for a in roots]
        rs = set(codes)
        if len(rs) != n:
            out.append("duplicate roots")
        for a, e, cr in zip(roots, codes, coroots):
            if -e not in rs:
                out.append(f"roots not closed under negation at {a}")
            if cr is None:
                out.append(f"missing coroot for {a}")
            elif sum(map(mul, cr, a)) != 2:
                out.append(f"<coroot,root> != 2 at {a}")
        theta_codes = [sum(map(lshift, c, digits)) for c in tcols]
        if [sum(map(mul, c, theta_codes)) for c in tcols] != [1 << k for k in digits]:
            out.append("theta^2 != identity")
        size = w * rank // 8 + 1
        bias = sum(1 << k for k in digits) << (w - 1)
        biased = [(e + bias).to_bytes(size, "little") for e in codes]
        keys = set(biased)
        chunks = [slice(k, k + size) for k in range(0, size * n, size)]
        packed = int.from_bytes(b"".join(biased), "little")
        lanes = int.from_bytes((b"\1" + bytes(size - 1)) * n, "little")
        cols = [((packed >> k) & ((1 << w) - 1) * lanes) - (lanes << (w - 1))
                for k in digits]

        def images(x: int):
            """The chunks of x, one per root."""
            return map(x.to_bytes(size * n, "little").__getitem__, chunks)

        moved = images(sum(map(mul, theta_codes, cols)) + bias * lanes)
        out.extend(f"theta does not permute roots at {a}"
                   for a, k in zip(roots, moved) if k not in keys)
        permutes: dict[int, bool] = {}
        for a, e, cr in zip(roots, codes, coroots):
            if cr is None:
                continue
            x = packed - e * sum(map(mul, cr, cols))
            if x not in permutes:
                permutes[x] = keys.issuperset(images(x))
            if not permutes[x]:
                out.append(f"reflection in {a} does not permute roots")
        return out


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
        """Checks against the datum the selection was loaded with.  A
        Levi root without a coroot is `RootDatum.validate`'s to report."""
        out = []
        for a, coeffs in zip(d.roots, self.coefficients, strict=True):
            if coeffs is None:
                out.append(f"root {a} not an integer combination of the base")
            elif coeffs and min(coeffs) < 0 < max(coeffs):
                out.append(f"root {a} has mixed signs over the base")
        for a in self.levi:
            cr = d.coroots.get(a)
            if cr is not None and any(cr[j] != 0 for j in self.a_coordinates):
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
    outside = [k for k in range(len(simple_base)) if k not in levi_simples]
    levi, nilradical = [], []
    for a, coeffs in zip(d.roots, coefficients):
        if coeffs is None:
            continue
        if not any(map(coeffs.__getitem__, outside)):
            levi.append(a)
        elif min(coeffs) >= 0:
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


def weyl_enumerate(d: RootDatum, cap: int = DEFAULT_WEYL_CAP) -> list[IntMat]:
    """All Weyl group elements as lattice matrices, in breadth-first
    order over the reflections of all roots, which generate the group
    (CoxeterCapExceeded past cap elements)."""
    gens = list(dict.fromkeys(reflection_matrix(d, a) for a in d.roots))
    return reflection_group(gens, d.rank, cap)[0]


def weyl_subgroup(d: RootDatum, simples, cap: int = DEFAULT_WEYL_CAP) -> list[IntMat]:
    """Subgroup generated by the reflections in the given roots, sorted."""
    gens = [reflection_matrix(d, a) for a in simples]
    return sorted(reflection_group(gens, d.rank, cap)[0])


def weyl_stabilizer(d: RootDatum, xi: GVec, cap: int = DEFAULT_WEYL_CAP) -> list[IntMat]:
    return [w for w in weyl_enumerate(d, cap) if mat_apply(w, xi) == xi]


# ---------------------------------------------------------------------------
# JSON file format

def _ints(values, field: str, length: int | None = None) -> IntVec:
    """A JSON list of integers, of the given length if one is given;
    ValueError names the field."""
    if not isinstance(values, list) or not set(map(type, values)) <= {int} \
            or length not in (None, len(values)):
        what = "a list of" if length is None else f"lists of {length}"
        raise ValueError(f"{field} must be {what} integers")
    return tuple(values)


def _vectors(rows, field: str, rank: int) -> tuple[IntVec, ...]:
    if not isinstance(rows, list):
        raise ValueError(f"{field} must be a list of vectors")
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {rank}
            and set(map(type, chain.from_iterable(rows))) <= {int}):
        raise ValueError(f"{field} must be lists of {rank} integers")
    return tuple(map(tuple, rows))


def _indices(values, field: str, bound: int) -> IntVec:
    out = _ints(values, field)
    if any(not 0 <= i < bound for i in out):
        raise ValueError(f"{field} has an index outside 0..{bound - 1}")
    if len(set(out)) != len(out):
        raise ValueError(f"{field} repeats an index")
    return out


def rootdatum_from_json(doc: dict) -> tuple[RootDatum, LeviSelection | None]:
    """Parse a root-datum document and split its roots over the Levi
    selection's base.  Shapes, integer entries and index ranges are
    checked (ValueError naming the field); the root-system axioms are
    left to `RootDatum.validate` and `LeviSelection.validate`."""
    rank = doc["rank"]
    if type(rank) is not int or rank < 0:
        raise ValueError("rank must be a nonnegative integer")
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
