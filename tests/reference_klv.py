"""Slow references for klvkit's Hecke action, duality map, P-solve and
multiplicity inverse, kept only for the tests.

They are written in `ModuleElement`, a sparse element label ->
LaurentPoly of the block module.  These are the straightforward
versions: `partition_blocks` joins labels by status in a union-find,
`compute_order` picks its descent targets by status, `T_basis` builds
T_s of a basis label afresh on every call,
`apply_T` and `apply_D` fold `out = out + term` over the input's
support, `check_quadratic`, `check_braid`, `compute_order` and
`compute_duality` run on whole module elements, `verify_duality` and
`compute_P` apply D to whole module elements and sum one `LaurentPoly`
product per pair, `verify_duality` checks D^2 = Id at every parameter,
`net` checks a column of P for self-duality on module elements, as
`klv.compute_P` did for a recursed column under check before it
replayed the recursion, `solve_linear` solves the level systems of
the duality by dense `Fraction` elimination, one unknown at a time,
and the inverse of M is a dense back-substitution in `multiplicities`
and a sparse one, over the nonzero entries of each row, in
`back_substitution`, the inverse that `klv.multiplicities` took on
every class before it read m off M on self-dual classes.  The
library's versions must agree with them exactly.
"""

import itertools
from fractions import Fraction

from klvkit.blockdata import SimpleStatus
from klvkit.klv import (DualityError, MultMatrices, PMatrix, PSolveError,
                        RMatrix, _sort_key)
from klvkit.laurent import ONE, U, ZERO, LaurentPoly

U_INV = LaurentPoly({-2: 1})


def by_column(entries):
    """The store of `RMatrix` and `PMatrix`, gamma -> {phi: value}, of a
    dict of entries keyed (phi, gamma), in the order of the dict."""
    cols = {}
    for (phi, gamma), v in entries.items():
        cols.setdefault(gamma, {})[phi] = v
    return cols


def rows(mat):
    """M or m as a tuple of tuples of ints, whatever its rows are."""
    return tuple(map(tuple, mat))


class ModuleElement:
    """Sparse element of the block module: label -> LaurentPoly."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict[str, LaurentPoly] | None = None):
        c = {}
        if coeffs:
            for k, p in coeffs.items():
                if p:
                    c[k] = p
        self._c = c

    @property
    def coeffs(self) -> dict[str, LaurentPoly]:
        return dict(self._c)

    def coeff(self, label: str) -> LaurentPoly:
        return self._c.get(label, ZERO)

    def support(self) -> set[str]:
        return set(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def __eq__(self, other) -> bool:
        return isinstance(other, ModuleElement) and self._c == other._c

    def __hash__(self):
        return hash(tuple(sorted(self._c.items())))

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        c = dict(self._c)
        for k, p in other._c.items():
            c[k] = c.get(k, ZERO) + p
        return ModuleElement(c)

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        c = dict(self._c)
        for k, p in other._c.items():
            c[k] = c.get(k, ZERO) - p
        return ModuleElement(c)

    def __neg__(self) -> "ModuleElement":
        return ModuleElement({k: -p for k, p in self._c.items()})

    def scale(self, poly: LaurentPoly) -> "ModuleElement":
        return ModuleElement({k: p * poly for k, p in self._c.items()})

    def __str__(self) -> str:
        if not self._c:
            return "0"
        return " + ".join(f"({self._c[k]})*{k}" for k in sorted(self._c))

    __repr__ = __str__


def basis(label: str) -> ModuleElement:
    return ModuleElement({label: ONE})


def T_basis(b, s, label):
    p = b.param(label)
    if not 0 <= s < len(b.simples):
        raise ValueError(f"unknown simple index: {s}")
    st, cross = p.status[s], p.cross[s]
    if st is SimpleStatus.COMPLEX_ASCENT:
        return basis(cross)
    if st is SimpleStatus.COMPLEX_DESCENT:
        return ModuleElement({cross: U, label: U - ONE})
    if st is SimpleStatus.COMPACT_IMAGINARY:
        return ModuleElement({label: U})
    if st is SimpleStatus.REAL_NONPARITY:
        return ModuleElement({label: -ONE})
    if st is SimpleStatus.NCI1:
        (up,) = p.cayley[s]
        return ModuleElement({cross: ONE, up: ONE})
    if st is SimpleStatus.NCI2:
        up1, up2 = sorted(p.cayley[s])
        return ModuleElement({label: ONE, up1: ONE, up2: ONE})
    if st is SimpleStatus.RP1:
        lo1, lo2 = sorted(p.cayley[s])
        return ModuleElement({label: U - 2, lo1: U - ONE, lo2: U - ONE})
    (lo,) = p.cayley[s]
    out = {label: U - ONE, lo: U - ONE}
    out[cross] = out.get(cross, ZERO) - ONE
    return ModuleElement(out)


def apply_T(b, s, m):
    out = ModuleElement()
    for label, poly in m.coeffs.items():
        out = out + T_basis(b, s, label).scale(poly)
    return out


def check_quadratic(b):
    for s in range(len(b.simples)):
        for label in b.sorted_labels():
            te = apply_T(b, s, basis(label))
            lhs = apply_T(b, s, te) - te.scale(U - ONE) - basis(label).scale(U)
            if not lhs.is_zero():
                return False, (s, label)
    return True, None


def check_braid(b, s, t):
    """The braid relation on whole module elements: the alternating
    products T_s T_t ... and T_t T_s ... of length m(s, t) agree on every
    basis label."""
    if s == t:
        return True
    m = b.braid_order(s, t)
    for label in b.sorted_labels():
        lhs, rhs = basis(label), basis(label)
        for i in range(m):
            lhs = apply_T(b, (s, t)[i % 2], lhs)
            rhs = apply_T(b, (t, s)[i % 2], rhs)
        if lhs != rhs:
            return False
    return True


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


def partition_blocks(b):
    """Classes generated by noncompact-imaginary Cayley links and complex
    cross-actions, joined in a union-find by status."""
    uf = _UnionFind(b.params)
    for label, p in b.params.items():
        for s in range(len(b.simples)):
            st = p.status[s]
            if st in (SimpleStatus.COMPLEX_ASCENT, SimpleStatus.COMPLEX_DESCENT):
                uf.union(label, p.cross[s])
            elif st in (SimpleStatus.NCI1, SimpleStatus.NCI2):
                for t in p.cayley[s]:
                    uf.union(label, t)
    classes = {}
    for label in b.params:
        classes.setdefault(uf.find(label), []).append(label)
    return sorted(sorted(c) for c in classes.values())


def _descent_targets(b, label, s):
    """Labels one length below gamma reached through the descent s."""
    p = b.param(label)
    st = p.status[s]
    if st is SimpleStatus.COMPLEX_DESCENT:
        return [p.cross[s]]
    if st in (SimpleStatus.RP1, SimpleStatus.RP2):
        return sorted(p.cayley[s])
    return []


def compute_order(b, block):
    members = set(block)
    down = {}
    for label in sorted(block, key=_sort_key(b)):
        p = b.param(label)
        dset = {label}
        for s in range(len(b.simples)):
            targets = _descent_targets(b, label, s)
            if not targets:
                continue
            acc = set()
            for t in targets:
                acc |= down[t]
            clo = set(acc)
            for psi in acc:
                clo |= T_basis(b, s, psi).support()
            for phi in clo:
                if phi in members and b.params[phi].length < p.length:
                    dset.add(phi)
                    dset |= down[phi]
        down[label] = frozenset(dset)
    return down


def ts_plus_one_over_u(b, s, m):
    return (apply_T(b, s, m) + m).scale(U_INV)


def _terms(m):
    return {(label, k): c for label, poly in m.coeffs.items()
            for k, c in poly.terms.items()}


def solve_linear(equations, nvars):
    """Gaussian elimination over Fraction.  equations: list of
    (dict var->coeff, rhs).  Returns the unique solution vector;
    DualityError, with the unknown count and rank, if there is none."""
    rows = [({v: c for v, c in f.items() if c}, r) for f, r in equations]
    sol = [None] * nvars
    pivot_rows = []
    for var in range(nvars):
        piv = next((i for i, (f, _) in enumerate(rows) if f.get(var)), None)
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
    # Back substitution: a pivot row holds its own and later variables.
    for var, f, r in reversed(pivot_rows):
        sol[var] = r - sum(c * sol[v] for v, c in f.items() if v != var)
    return sol


def _solve_level(b, down, dual, hard):
    """D on the parameters of one length whose descents are all type-II
    real, as one linear system over module elements."""
    l = b.params[hard[0]].length
    where = f"at length {l}, parameters {', '.join(map(repr, hard))}"
    top = {g: ModuleElement({g: LaurentPoly({-2 * l: 1})}) for g in hard}
    unknowns = []
    owned = {g: [] for g in hard}
    equations = []
    for g in hard:
        for phi in sorted(down[g] - {g}, key=_sort_key(b)):
            first = len(unknowns)
            for k in range(-2 * l, -2 * b.params[phi].length + 1, 2):
                owned[g].append(len(unknowns))
                unknowns.append((g, phi, k))
            equations.append(({j: 1 for j in range(first, len(unknowns))}, 0))

    def unit(j):
        _, phi, k = unknowns[j]
        return ModuleElement({phi: LaurentPoly({k: 1})})

    def add_rows(const, columns):
        cols = {j: _terms(e) for j, e in columns.items()}
        rhs = _terms(const)
        for key in sorted(set(rhs).union(*cols.values())):
            equations.append(({j: col[key] for j, col in cols.items()
                               if key in col}, -rhs.get(key, 0)))

    u_to_l = LaurentPoly({2 * l: 1})
    for g in hard:
        for s, st in enumerate(b.param(g).status):
            if st is not SimpleStatus.RP2:
                continue
            const = -ts_plus_one_over_u(b, s, top[g])
            columns = {j: -ts_plus_one_over_u(b, s, unit(j)) for j in owned[g]}
            for lab, poly in (apply_T(b, s, basis(g)) + basis(g)).coeffs.items():
                c = poly.bar()
                if lab not in owned:
                    const = const + dual[lab].scale(c)
                    continue
                const = const + top[lab].scale(c)
                for j in owned[lab]:
                    columns[j] = columns.get(j, ModuleElement()) + unit(j).scale(c)
            add_rows(const, columns)
        add_rows(ModuleElement(), {
            j: unit(j).scale(u_to_l)
            + dual[unknowns[j][1]].scale(LaurentPoly({-unknowns[j][2]: 1}))
            for j in owned[g]})

    try:
        sol = solve_linear(equations, len(unknowns))
    except DualityError as exc:
        raise DualityError(f"{exc} {where}") from None
    if any(x.denominator != 1 for x in sol):
        raise DualityError(
            f"duality system non-integral: {len(unknowns)} unknowns, "
            f"rank {len(unknowns)} {where}")
    dual.update(top)
    for (g, phi, k), x in zip(unknowns, sol):
        dual[g] = dual[g] + ModuleElement({phi: LaurentPoly({k: int(x)})})


def compute_duality(b, block):
    down = compute_order(b, block)
    order = tuple(sorted(block, key=_sort_key(b)))
    dual = {}
    for _, level in itertools.groupby(order, key=lambda g: b.params[g].length):
        hard = []
        for gamma in level:
            p = b.param(gamma)
            lowest = {st: s for s, st in reversed(list(enumerate(p.status)))}
            cd = lowest.get(SimpleStatus.COMPLEX_DESCENT)
            rp1 = lowest.get(SimpleStatus.RP1)
            if cd is not None:
                g2 = p.cross[cd]
                dual[gamma] = ts_plus_one_over_u(b, cd, dual[g2]) - dual[g2]
            elif rp1 is not None:
                lo1, lo2 = sorted(p.cayley[rp1])
                dual[gamma] = (ts_plus_one_over_u(b, rp1, dual[lo1])
                               - dual[lo1] - dual[lo2])
            elif SimpleStatus.RP2 in lowest:
                hard.append(gamma)
            else:
                dual[gamma] = basis(gamma).scale(LaurentPoly({-2 * p.length: 1}))
        if hard:
            _solve_level(b, down, dual, hard)

    entries = {}
    for gamma in order:
        lg = b.params[gamma].length
        for phi, poly in dual[gamma].coeffs.items():
            if phi not in down[gamma]:
                raise DualityError(
                    "duality system inconsistent or non-unique: "
                    f"D({gamma!r}) has a term at {phi!r} outside its down-set")
            sign = -1 if (lg - b.params[phi].length) % 2 else 1
            entries[(phi, gamma)] = poly.shifted(2 * lg) * sign
    return RMatrix(order=order, cols=by_column(entries), down=down)


def apply_D(dual, m):
    out = ModuleElement()
    for label, poly in m.coeffs.items():
        out = out + dual[label].scale(poly.bar())
    return out


def duality_map(b, r):
    """D on the basis of r's class, rebuilt from the R-matrix."""
    coeffs = {gamma: {} for gamma in r.order}
    for (phi, gamma), poly in r.entries.items():
        if gamma not in coeffs:
            continue
        lg = b.params[gamma].length
        sign = -1 if (lg - b.params[phi].length) % 2 else 1
        coeffs[gamma][phi] = (poly * sign).shifted(-2 * lg)
    return {gamma: ModuleElement(c) for gamma, c in coeffs.items()}


def generators(b, order):
    """The generators of a class, in its order, by ranking T rows: the
    labels gamma that are not derived.  gamma is derived when some T_s x
    with l(x) < l(gamma) has gamma in its support and every other label
    of it shorter than gamma.  On a valid block these are the labels with
    no complex or RP1 descent (see `klv.verify_duality`)."""
    params = b.params
    derived = set()
    for s in range(len(b.simples)):
        for x in order:
            ranked = sorted((params[mu].length, mu) for mu in T_basis(b, s, x).coeffs)
            (l_top, top), rest = ranked[-1], ranked[:-1]
            if l_top > params[x].length and (not rest or rest[-1][0] < l_top):
                derived.add(top)
    return [x for x in order if x not in derived]


def verify_duality(b, r):
    """The certificate on whole module elements.  An entry outside its
    column's down-set is not rejected as such."""
    dual = duality_map(b, r)
    for gamma in r.order:
        lg = b.params[gamma].length
        if r.entry(gamma, gamma) != ONE:
            return False
        for phi in r.down[gamma]:
            e = r.entry(phi, gamma)
            if e and not e.is_u_polynomial():
                return False
            if e and e.degree_in_u() > lg - b.params[phi].length:
                return False
        if apply_D(dual, dual[gamma]) != basis(gamma):
            return False
        for phi, poly in dual[gamma].coeffs.items():
            if poly.eval_at_one() != (1 if phi == gamma else 0):
                return False
    for s in range(len(b.simples)):
        for gamma in r.order:
            lhs = apply_D(dual, apply_T(b, s, basis(gamma)) + basis(gamma))
            if lhs != ts_plus_one_over_u(b, s, dual[gamma]):
                return False
    return True


def compute_P(b, r):
    dual = duality_map(b, r)
    entries = {}

    def pval(phi, gamma):
        if phi == gamma:
            return ONE
        return entries.get((phi, gamma), ZERO)

    for gamma in r.order:
        lg = b.params[gamma].length
        below = sorted((x for x in r.down[gamma] if x != gamma),
                       key=lambda x: (-b.params[x].length, x))
        for phi in below:
            lp = b.params[phi].length
            n = lg - lp
            f = ZERO
            for psi in r.down[gamma]:
                if psi == phi or phi not in r.down[psi]:
                    continue
                lpsi = b.params[psi].length
                sign = -1 if (lpsi - lp) % 2 else 1
                f = f + (pval(psi, gamma).bar().shifted(2 * (lg - lpsi))
                         * sign * r.entry(phi, psi))
            sol = LaurentPoly({k: c for k, c in f.terms.items() if k <= n - 1})
            if sol - sol.bar().shifted(2 * n) != f:
                raise PSolveError(
                    f"no solution under degree bound at P({phi!r}, {gamma!r})")
            if sol:
                entries[(phi, gamma)] = sol
        col = ModuleElement({phi: pval(phi, gamma) for phi in r.down[gamma]})
        if apply_D(dual, col) != col.scale(LaurentPoly({-2 * lg: 1})):
            raise PSolveError(f"column {gamma!r} of P is not self-dual")
    return PMatrix(order=r.order, cols=by_column(entries))


def net(b, r, dual, gamma, col):
    """PSolveError unless col, column gamma of P as phi -> terms, meets the
    degree bound that `klv._recursed` enforces (phi in the down-set of
    gamma, a u-polynomial of degree below n/2, n = l gamma - l phi) and
    passes the self-duality net on module elements, with dual the
    `duality_map` of r: D applied to C_gamma is v^(-2 l gamma) C_gamma."""
    lens = {x: b.params[x].length for x in r.order}
    for phi, q in col.items():
        p = LaurentPoly(q)
        if (phi == gamma or phi not in r.down[gamma] or not p.is_u_polynomial()
                or 2 * p.degree_in_u() >= lens[gamma] - lens[phi]):
            raise PSolveError(f"no solution under degree bound at P({phi!r}, {gamma!r})")
    c = ModuleElement({gamma: ONE, **{phi: LaurentPoly(q) for phi, q in col.items()}})
    if apply_D(dual, c) != c.scale(LaurentPoly({-2 * lens[gamma]: 1})):
        raise PSolveError(f"column {gamma!r} of P is not self-dual")


def multiplicities(b, p):
    order = p.order
    n = len(order)
    lens = [b.params[x].length for x in order]
    big = [[0] * n for _ in range(n)]
    for i, phi in enumerate(order):
        for j, gamma in enumerate(order):
            val = p.entry(phi, gamma).eval_at_one()
            if val:
                big[i][j] = (-1 if (lens[j] - lens[i]) % 2 else 1) * val
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j - 1, -1, -1):
            inv[i][j] = -sum(big[i][k] * inv[k][j] for k in range(i + 1, j + 1))
    return MultMatrices(order=order, M=tuple(map(tuple, big)),
                        m=tuple(map(tuple, inv)))


def back_substitution(b, p):
    """M and m = M^(-1) by back-substitution over dicts, row i of m
    being e_i - sum over k > i of M[i][k] row k of m: the inverse of
    `klv.multiplicities` on every class, as it was before the inversion
    formula."""
    order = p.order
    n = len(order)
    index = {x: i for i, x in enumerate(order)}
    rows = [{} for _ in range(n)]
    for (phi, gamma), poly in p.entries.items():
        i, j = index.get(phi), index.get(gamma)
        if i is None or j is None or i == j:
            continue
        val = poly.eval_at_one()
        if val:
            if (b.params[gamma].length - b.params[phi].length) % 2:
                val = -val
            rows[i][j] = val
    inv = [{} for _ in range(n)]
    for i in range(n - 1, -1, -1):
        acc = {i: 1}
        for k, c in rows[i].items():
            for j, x in inv[k].items():
                acc[j] = acc.get(j, 0) - c * x
        inv[i] = {j: x for j, x in acc.items() if x}
    for i, row in enumerate(rows):
        row[i] = 1

    def dense(row):
        return tuple(row.get(j, 0) for j in range(n))

    return MultMatrices(order=order, M=tuple(map(dense, rows)),
                        m=tuple(map(dense, inv)))
