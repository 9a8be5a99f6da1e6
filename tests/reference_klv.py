"""Slow references for klvkit's Hecke action, duality map, P-solve and
multiplicity inverse, kept only for the tests.

These are the straightforward versions: `T_basis` builds T_s of a basis
label afresh on every call, `apply_T` and `apply_D` fold
`out = out + term` over the input's support, `verify_duality` and
`compute_P` apply D to whole module elements and sum one `LaurentPoly`
product per pair, and the inverse of M is a dense back-substitution.
The library's versions must agree with them exactly.
"""

from klvkit.blockdata import SimpleStatus
from klvkit.hecke import ModuleElement, basis
from klvkit.klv import MultMatrices, PMatrix, PSolveError
from klvkit.laurent import ONE, U, ZERO, LaurentPoly


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


def ts_plus_one_over_u(b, s, m):
    return (apply_T(b, s, m) + m).scale(LaurentPoly({-2: 1}))


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
    return PMatrix(order=r.order, entries=entries)


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
