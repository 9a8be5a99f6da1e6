"""Block partition, order relation, duality map with R-polynomials,
self-dual basis with P-polynomials, and the multiplicity matrices.

The duality map D is bar-semilinear, determined by its values on basis
parameters.  It is computed one length at a time: complex descents and
type-I parity descents give direct recursions, and the parameters whose
descents are all type-II real parity solve one integer linear system
per length, pinned by intertwining with T_s + 1, D^2 = Id and the u = 1
specialization.  Its solution is asserted unique and integral, so blocks
with several type-II factors are solved as well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .blockdata import BlockData, SimpleStatus
from .hecke import ModuleElement, apply_T, basis, linear_combination
from .laurent import ONE, U_INV, ZERO, LaurentPoly

__all__ = [
    "RMatrix", "PMatrix", "MultMatrices",
    "DualityError", "PSolveError", "MultiplicityError",
    "partition_blocks", "compute_order", "compute_duality",
    "verify_duality", "compute_P", "multiplicities", "apply_D", "duality_map",
]


class DualityError(ValueError):
    pass


class PSolveError(ValueError):
    pass


class MultiplicityError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Block partition

class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def partition_blocks(b: BlockData) -> list[list[str]]:
    """Equivalence classes generated by noncompact-imaginary Cayley links
    and complex cross-actions.  Classes are sorted lists."""
    uf = _UnionFind(b.params)
    for label, p in b.params.items():
        for s in range(len(b.simples)):
            st = p.status[s]
            if st in (SimpleStatus.COMPLEX_ASCENT, SimpleStatus.COMPLEX_DESCENT):
                uf.union(label, p.cross[s])
            elif st in (SimpleStatus.NCI1, SimpleStatus.NCI2):
                for t in p.cayley[s]:
                    uf.union(label, t)
    classes: dict[str, list[str]] = {}
    for label in b.params:
        classes.setdefault(uf.find(label), []).append(label)
    return sorted(sorted(c) for c in classes.values())


# ---------------------------------------------------------------------------
# Order relation (safe over-approximation via T_s-support closure)

def _sort_key(b: BlockData):
    return lambda label: (b.params[label].length, label)


def _descent_targets(b: BlockData, label: str, s: int) -> list[str]:
    """Labels one length below gamma reached through the descent s."""
    p = b.param(label)
    st = p.status[s]
    if st is SimpleStatus.COMPLEX_DESCENT:
        return [p.cross[s]]
    if st in (SimpleStatus.RP1, SimpleStatus.RP2):
        return sorted(p.cayley[s])
    return []


def compute_order(b: BlockData, block: list[str]) -> dict[str, frozenset[str]]:
    """Down-set of each label: a set guaranteed to contain every element
    below it in the representation-theoretic order (and the label itself)."""
    members = set(block)
    down: dict[str, frozenset[str]] = {}
    for label in sorted(block, key=_sort_key(b)):
        p = b.param(label)
        dset = {label}
        for s in range(len(b.simples)):
            targets = _descent_targets(b, label, s)
            if not targets:
                continue
            acc: set[str] = set()
            for t in targets:
                acc |= down[t]
            clo = set(acc)
            for psi in acc:
                clo |= apply_T(b, s, psi).support()
            for phi in clo:
                if phi in members and b.params[phi].length < p.length:
                    dset.add(phi)
                    dset |= down[phi]
        down[label] = frozenset(dset)
    return down


# ---------------------------------------------------------------------------
# Duality

@dataclass(frozen=True)
class RMatrix:
    order: tuple[str, ...]
    entries: dict[tuple[str, str], LaurentPoly]
    down: dict[str, frozenset[str]]

    def entry(self, phi: str, gamma: str) -> LaurentPoly:
        return self.entries.get((phi, gamma), ZERO)


@dataclass(frozen=True)
class PMatrix:
    order: tuple[str, ...]
    entries: dict[tuple[str, str], LaurentPoly]

    def entry(self, phi: str, gamma: str) -> LaurentPoly:
        if phi == gamma:
            return ONE
        return self.entries.get((phi, gamma), ZERO)


@dataclass(frozen=True)
class MultMatrices:
    order: tuple[str, ...]
    M: tuple[tuple[int, ...], ...]
    m: tuple[tuple[int, ...], ...]


def apply_D(dual: dict[str, ModuleElement], m: ModuleElement) -> ModuleElement:
    """Bar-semilinear extension of the duality map to module elements."""
    return linear_combination(
        (dual[label], poly.bar()) for label, poly in m.coeffs.items())


def _ts_plus_one_over_u(b: BlockData, s: int, m: ModuleElement) -> ModuleElement:
    return (apply_T(b, s, m) + m).scale(U_INV)


def _solve_linear(equations, nvars):
    """Gaussian elimination over Fraction.  equations: list of
    (dict var->coeff, rhs).  Returns the unique solution vector;
    DualityError, with the unknown count and rank, if there is none."""
    rows = [({v: c for v, c in f.items() if c}, r) for f, r in equations]
    sol = [None] * nvars
    pivot_rows = []
    for var in range(nvars):
        piv = next(
            (i for i, (f, _) in enumerate(rows) if f.get(var)),
            None,
        )
        if piv is None:
            continue
        f, r = rows.pop(piv)
        inv = Fraction(1) / f[var]
        f = {v: c * inv for v, c in f.items()}
        r = r * inv
        pivot_rows.append((var, f, r))
        nrows = []
        for g, rr in rows:
            c = g.get(var)
            if c:
                g = {v: g.get(v, Fraction(0)) - c * f.get(v, Fraction(0))
                     for v in set(g) | set(f)}
                g = {v: x for v, x in g.items() if x}
                rr = rr - c * r
            nrows.append((g, rr))
        rows = nrows
    size = f"{nvars} unknowns, rank {len(pivot_rows)}"
    if any(not g and rr for g, rr in rows):
        raise DualityError(f"duality system inconsistent: {size}")
    if len(pivot_rows) < nvars:
        raise DualityError(f"duality system non-unique: {size}")
    # Back substitution; each pivot row holds only its own and later
    # variables.
    for var, f, r in reversed(pivot_rows):
        sol[var] = r - sum(c * sol[v] for v, c in f.items() if v != var)
    return sol


def _terms(m: ModuleElement) -> dict[tuple[str, int], int]:
    """The integer coefficient of each v^k * label in m."""
    return {(label, k): c for label, poly in m.coeffs.items()
            for k, c in poly.terms.items()}


def _solve_level(b, down, dual, hard: list[str]):
    """Determine D on the hard parameters of one length: those whose
    descents are all type-II real.  D is known below this length and on
    its other parameters.

    The unknowns are the integer coefficients of v^k phi in D(gamma), for
    each hard gamma, each phi below it and each even k from -2l(gamma) to
    -2l(phi); the v^(-2l) gamma term is fixed.  The rows are affine in
    them: D((T_s + 1)gamma) = u^(-1)(T_s + 1)D(gamma) at every descent s,
    D(D(gamma)) = gamma, and each D(gamma)_phi vanishes at u = 1.  The
    solution must be unique and integral."""
    l = b.params[hard[0]].length
    where = f"at length {l}, parameters {', '.join(map(repr, hard))}"
    top = {g: ModuleElement({g: LaurentPoly({-2 * l: 1})}) for g in hard}
    unknowns: list[tuple[str, str, int]] = []
    owned: dict[str, list[int]] = {g: [] for g in hard}
    equations = []
    for g in hard:
        for phi in sorted(down[g] - {g}, key=_sort_key(b)):
            first = len(unknowns)
            for k in range(-2 * l, -2 * b.params[phi].length + 1, 2):
                owned[g].append(len(unknowns))
                unknowns.append((g, phi, k))
            equations.append(({j: 1 for j in range(first, len(unknowns))}, 0))

    def unit(j: int) -> ModuleElement:
        _, phi, k = unknowns[j]
        return ModuleElement({phi: LaurentPoly({k: 1})})

    def add_rows(const: ModuleElement, columns: dict[int, ModuleElement]):
        """The rows const + sum_j x_j columns[j] = 0, one per v^k label."""
        cols = {j: _terms(e) for j, e in columns.items()}
        rhs = _terms(const)
        for key in sorted(set(rhs).union(*cols.values())):
            equations.append(({j: col[key] for j, col in cols.items()
                               if key in col}, -rhs.get(key, 0)))

    u_to_l = LaurentPoly({2 * l: 1})
    for g in hard:
        # D((T_s + 1)g) - u^(-1)(T_s + 1)D(g) = 0 at each descent s.
        for s, st in enumerate(b.param(g).status):
            if st is not SimpleStatus.RP2:
                continue
            const = -_ts_plus_one_over_u(b, s, top[g])
            columns = {j: -_ts_plus_one_over_u(b, s, unit(j)) for j in owned[g]}
            for lab, poly in (apply_T(b, s, g) + basis(g)).coeffs.items():
                c = poly.bar()
                if lab not in owned:
                    const = const + dual[lab].scale(c)
                    continue
                const = const + top[lab].scale(c)
                for j in owned[lab]:
                    columns[j] = columns.get(j, ModuleElement()) + unit(j).scale(c)
            add_rows(const, columns)
        # D(D(g)) - g = 0; u^l D(top) = g, so only the unknowns remain.
        add_rows(ModuleElement(), {
            j: unit(j).scale(u_to_l)
            + dual[unknowns[j][1]].scale(LaurentPoly({-unknowns[j][2]: 1}))
            for j in owned[g]})

    try:
        sol = _solve_linear(equations, len(unknowns))
    except DualityError as exc:
        raise DualityError(f"{exc} {where}") from None
    if any(x.denominator != 1 for x in sol):
        raise DualityError(
            f"duality system non-integral: {len(unknowns)} unknowns, "
            f"rank {len(unknowns)} {where}")
    dual.update(top)
    for (g, phi, k), x in zip(unknowns, sol):
        dual[g] = dual[g] + ModuleElement({phi: LaurentPoly({k: int(x)})})


def compute_duality(b: BlockData, block: list[str]) -> RMatrix:
    """R-polynomials of one block, by induction on length.  At each
    length the direct recursions come first; one system then solves the
    parameters whose descents are all type-II real."""
    down = compute_order(b, block)
    order = tuple(sorted(block, key=_sort_key(b)))
    dual: dict[str, ModuleElement] = {}
    for _, level in itertools.groupby(order, key=lambda g: b.params[g].length):
        hard = []
        for gamma in level:
            p = b.param(gamma)
            lowest = {st: s for s, st in reversed(list(enumerate(p.status)))}
            cd = lowest.get(SimpleStatus.COMPLEX_DESCENT)
            rp1 = lowest.get(SimpleStatus.RP1)
            if cd is not None:
                g2 = p.cross[cd]
                dual[gamma] = _ts_plus_one_over_u(b, cd, dual[g2]) - dual[g2]
            elif rp1 is not None:
                lo1, lo2 = sorted(p.cayley[rp1])
                dual[gamma] = (_ts_plus_one_over_u(b, rp1, dual[lo1])
                               - dual[lo1] - dual[lo2])
            elif SimpleStatus.RP2 in lowest:
                hard.append(gamma)
            else:
                dual[gamma] = basis(gamma).scale(LaurentPoly({-2 * p.length: 1}))
        if hard:
            _solve_level(b, down, dual, hard)

    entries: dict[tuple[str, str], LaurentPoly] = {}
    for gamma in order:
        lg = b.params[gamma].length
        for phi, poly in dual[gamma].coeffs.items():
            if phi not in down[gamma]:
                raise DualityError(
                    "duality system inconsistent or non-unique: "
                    f"D({gamma!r}) has a term at {phi!r} outside its down-set")
            sign = -1 if (lg - b.params[phi].length) % 2 else 1
            entries[(phi, gamma)] = poly.shifted(2 * lg) * sign
    return RMatrix(order=order, entries=entries, down=down)


def duality_map(b: BlockData, r: RMatrix) -> dict[str, ModuleElement]:
    """Reconstruct D on basis elements from the R-matrix."""
    coeffs: dict[str, dict] = {gamma: {} for gamma in r.order}
    for (phi, gamma), poly in r.entries.items():
        if gamma not in coeffs:
            continue
        lg = b.params[gamma].length
        sign = -1 if (lg - b.params[phi].length) % 2 else 1
        coeffs[gamma][phi] = (poly * sign).shifted(-2 * lg)
    return {gamma: ModuleElement(c) for gamma, c in coeffs.items()}


def verify_duality(b: BlockData, block: list[str], r: RMatrix) -> bool:
    """Independent certification of the computed duality map."""
    dual = duality_map(b, r)
    for gamma in r.order:
        lg = b.params[gamma].length
        # diagonal normalization and degree bounds
        if r.entry(gamma, gamma) != ONE:
            return False
        for phi in r.down[gamma]:
            e = r.entry(phi, gamma)
            if e and not e.is_u_polynomial():
                return False
            if e and e.degree_in_u() > lg - b.params[phi].length:
                return False
        # involution and u = 1 specialization
        if apply_D(dual, dual[gamma]) != basis(gamma):
            return False
        for phi, poly in dual[gamma].coeffs.items():
            if poly.eval_at_one() != (1 if phi == gamma else 0):
                return False
    # intertwining with every T_s + 1
    for s in range(len(b.simples)):
        for gamma in r.order:
            lhs = apply_D(dual, apply_T(b, s, basis(gamma)) + basis(gamma))
            rhs = _ts_plus_one_over_u(b, s, dual[gamma])
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# Self-dual basis and multiplicities

def compute_P(b: BlockData, block: list[str], r: RMatrix) -> PMatrix:
    """Solve the self-duality identity for the P-polynomials, column by
    column, under the strict degree bound.

    In column gamma, f(phi) = sum over psi of
    (-1)^(l psi - l phi) bar(P(psi, gamma)) v^(2(l gamma - l psi)) R(phi, psi)
    must equal P(phi, gamma) - bar(P(phi, gamma)) v^(2(l gamma - l phi)).
    Each solved P(psi, gamma) is cached in that signed, barred, shifted
    form, and f is summed on integer tables over the nonzero R(phi, psi)."""
    dual = duality_map(b, r)
    lens = {x: b.params[x].length for x in r.order}
    # phi -> [(psi, terms of R(phi, psi))] over psi != phi above phi.
    r_rows: dict[str, list] = {x: [] for x in r.order}
    for (phi, psi), poly in r.entries.items():
        if phi != psi and psi in r.down and phi in r.down[psi]:
            r_rows[phi].append((psi, poly.terms))
    entries: dict[tuple[str, str], LaurentPoly] = {}

    for gamma in r.order:
        lg = lens[gamma]
        below = sorted(
            (x for x in r.down[gamma] if x != gamma),
            key=lambda x: (-lens[x], x),
        )
        # psi -> (-1)^(l psi) bar(P(psi, gamma)) v^(2(l gamma - l psi))
        cached = {gamma: {0: -1 if lg % 2 else 1}}
        for phi in below:
            lp = lens[phi]
            n = lg - lp
            acc: dict[int, int] = {}
            for psi, rt in r_rows[phi]:
                pt = cached.get(psi)
                if pt is None:
                    continue
                for k1, c1 in pt.items():
                    for k2, c2 in rt.items():
                        k = k1 + k2
                        acc[k] = acc.get(k, 0) + c1 * c2
            sign = -1 if lp % 2 else 1
            f = LaurentPoly({k: sign * c for k, c in acc.items()})
            sol = LaurentPoly({k: c for k, c in f.terms.items() if k <= n - 1})
            if sol - sol.bar().shifted(2 * n) != f:
                raise PSolveError(
                    f"no solution under degree bound at P({phi!r}, {gamma!r})")
            if sol:
                entries[(phi, gamma)] = sol
                cached[phi] = {2 * n - k: sign * c for k, c in sol.terms.items()}
        # safety net: the assembled column really is self-dual
        col = ModuleElement({gamma: ONE, **{
            phi: entries.get((phi, gamma), ZERO) for phi in below}})
        if apply_D(dual, col) != col.scale(LaurentPoly({-2 * lg: 1})):
            raise PSolveError(f"column {gamma!r} of P is not self-dual")
    return PMatrix(order=r.order, entries=entries)


def multiplicities(b: BlockData, p: PMatrix) -> MultMatrices:
    order = p.order
    n = len(order)
    index = {x: i for i, x in enumerate(order)}
    big = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for (phi, gamma), poly in p.entries.items():
        i, j = index.get(phi), index.get(gamma)
        if i is None or j is None or i == j:
            continue
        val = poly.eval_at_one()
        if (b.params[gamma].length - b.params[phi].length) % 2:
            val = -val
        big[i][j] = val
    for i in range(n):
        for j in range(i + 1):
            if big[i][j] != (1 if i == j else 0):
                raise MultiplicityError(
                    f"M not unitriangular at {(order[i], order[j])!r}")
    # m = M^(-1) by back-substitution over the nonzero entries of each
    # row of M: row i of m is e_i - sum over k > i of M[i][k] row k of m.
    inv: list[dict[int, int]] = [{} for _ in range(n)]
    for i in range(n - 1, -1, -1):
        acc = {i: 1}
        for k in range(i + 1, n):
            c = big[i][k]
            if c:
                for j, x in inv[k].items():
                    acc[j] = acc.get(j, 0) - c * x
        inv[i] = {j: x for j, x in acc.items() if x}
    return MultMatrices(
        order=order,
        M=tuple(tuple(row) for row in big),
        m=tuple(tuple(row.get(j, 0) for j in range(n)) for row in inv),
    )
