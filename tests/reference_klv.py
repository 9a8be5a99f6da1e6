"""Slow references for klvkit's module arithmetic, P-solve and
multiplicity inverse, kept only for the tests.

These are the straightforward versions: `apply_T` and `apply_D` fold
`out = out + term` over the input's support, `compute_P` sums one
`LaurentPoly` product per (phi, psi) pair, and the inverse of M is a
dense back-substitution.  The library's versions must agree with them
exactly.
"""

from klvkit.hecke import ModuleElement, _apply_T_basis
from klvkit.klv import MultMatrices, PMatrix, duality_map
from klvkit.laurent import ONE, ZERO, LaurentPoly


def apply_T(b, s, m):
    out = ModuleElement()
    for label, poly in m.coeffs.items():
        out = out + _apply_T_basis(b, s, label).scale(poly)
    return out


def apply_D(dual, m):
    out = ModuleElement()
    for label, poly in m.coeffs.items():
        out = out + dual[label].scale(poly.bar())
    return out


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
            assert sol - sol.bar().shifted(2 * n) == f, (phi, gamma)
            if sol:
                entries[(phi, gamma)] = sol
        col = ModuleElement({phi: pval(phi, gamma) for phi in r.down[gamma]})
        assert apply_D(dual, col) == col.scale(LaurentPoly({-2 * lg: 1})), gamma
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

