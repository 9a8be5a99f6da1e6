"""Reference values computed apart from klvkit, for checking its outputs.

Nothing here imports klvkit.  Polynomials are dicts {exponent: coeff}:
`QPoly` dicts are in q (= u), and `VPoly` dicts are in v = u^(1/2), the
variable klvkit prints.  The classical Kazhdan-Lusztig values come from
a Coxeter group built as the orbit of rho under the simple reflections
of a crystallographic Cartan matrix, and from the KL recursions on left
descents.
"""

from __future__ import annotations

from fractions import Fraction

# <alpha_i, alpha_j^vee> and <alpha_j, alpha_i^vee> for each braid order.
_CARTAN = {2: (0, 0), 3: (-1, -1), 4: (-1, -2), 6: (-1, -3)}


# ---------------------------------------------------------------------------
# Laurent polynomials as plain dicts

def poly_mul(a: dict, b: dict) -> dict:
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: c for k, c in out.items() if c}


def poly_add(a: dict, b: dict, scale: int = 1, shift: int = 0) -> dict:
    """a + scale * q^shift * b."""
    out = dict(a)
    for k, c in b.items():
        out[k + shift] = out.get(k + shift, 0) + scale * c
    return {k: c for k, c in out.items() if c}


def q_to_v(p: dict) -> dict:
    return {2 * k: c for k, c in p.items()}


def parse_vpoly(text: str) -> dict:
    """Parse klvkit's rendering, e.g. "-1 + 2*v^2 - 1*v^-3", into a VPoly."""
    out: dict[int, int] = {}
    for term in text.strip().replace(" - ", " + -").split(" + "):
        coeff, star, power = term.partition("*v")
        if star:
            exp = int(power[1:]) if power.startswith("^") else 1
            if power and not power.startswith("^"):
                raise ValueError(f"bad term {term!r} in {text!r}")
        else:
            exp = 0
        out[exp] = out.get(exp, 0) + int(coeff)
    return {k: c for k, c in out.items() if c}


# ---------------------------------------------------------------------------
# Classical Kazhdan-Lusztig oracle

class ClassicalKL:
    """R- and P-polynomials of a finite Weyl group given by braid orders.

    Elements are the orbit points w(rho) in fundamental-weight
    coordinates; s_i w < w exactly when coordinate i of w(rho) is
    negative.  Labels are lex-least reduced words, "e" for the identity.
    """

    def __init__(self, names, braid):
        n = len(names)
        k = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                k[i][j], k[j][i] = _CARTAN[braid[i][j]]
        self.n = n
        self._k = k
        rho = (1,) * n
        self.length = {rho: 0}
        frontier = [rho]
        while frontier:
            nxt = []
            for lam in frontier:
                for i in range(n):
                    mu = self.reflect(i, lam)
                    if mu not in self.length:
                        self.length[mu] = self.length[lam] + 1
                        nxt.append(mu)
            frontier = nxt
        self.elements = sorted(self.length, key=lambda w: (self.length[w], w))
        self.identity = rho
        self.label = {}
        for w in self.elements:
            word, lam = [], w
            while lam != rho:
                i = self.descent(lam)
                word.append(names[i])
                lam = self.reflect(i, lam)
            self.label[w] = "".join(word) or "e"

    def reflect(self, i: int, lam: tuple) -> tuple:
        li = lam[i]
        return tuple(x - li * self._k[i][j] for j, x in enumerate(lam))

    def is_descent(self, i: int, lam: tuple) -> bool:
        return lam[i] < 0

    def descent(self, lam: tuple) -> int:
        return next(i for i in range(self.n) if lam[i] < 0)

    def r_polys(self) -> dict:
        """{(x, w): R_{x,w}} as QPolys, nonzero entries only."""
        col = {self.identity: {self.identity: {0: 1}}}
        for w in self.elements[1:]:
            s = self.descent(w)
            v = self.reflect(s, w)
            prev = col[v]
            cand = set(prev) | {self.reflect(s, x) for x in prev}
            out = {}
            for x in cand:
                sx = self.reflect(s, x)
                if self.is_descent(s, x):
                    r = prev.get(sx, {})
                else:
                    r = poly_add(poly_add({}, prev.get(x, {}), 1, 1),
                                 prev.get(x, {}), -1)
                    r = poly_add(r, prev.get(sx, {}), 1, 1)
                if r:
                    out[x] = r
            col[w] = out
        return {(x, w): p for w, c in col.items() for x, p in c.items()}

    def p_polys(self) -> dict:
        """{(x, w): P_{x,w}} as QPolys, nonzero entries only (KL 1979,
        (2.2.c): the recursion through s w < w with mu-corrections)."""
        col = {self.identity: {self.identity: {0: 1}}}
        mus: dict[tuple, list] = {self.identity: []}
        ln = self.length
        for w in self.elements[1:]:
            s = self.descent(w)
            v = self.reflect(s, w)
            prev = col[v]
            cand = set(prev) | {self.reflect(s, x) for x in prev}
            corr = [(z, mu) for z, mu in mus[v] if self.is_descent(s, z)]
            out = {}
            for x in cand:
                c = 1 if self.is_descent(s, x) else 0
                p = poly_add({}, prev.get(self.reflect(s, x), {}), 1, 1 - c)
                p = poly_add(p, prev.get(x, {}), 1, c)
                for z, mu in corr:
                    pz = col[z].get(x)
                    if pz:
                        p = poly_add(p, pz, -mu, (ln[w] - ln[z]) // 2)
                if p:
                    out[x] = p
            col[w] = out
            mus[w] = [
                (z, p.get((ln[w] - ln[z] - 1) // 2, 0))
                for z, p in out.items()
                if (ln[w] - ln[z]) % 2 and p.get((ln[w] - ln[z] - 1) // 2, 0)
            ]
        return {(x, w): p for w, c in col.items() for x, p in c.items()}

    def labelled(self, table: dict) -> dict:
        return {(self.label[x], self.label[w]): p for (x, w), p in table.items()}

    def lengths(self) -> dict:
        return {self.label[w]: l for w, l in self.length.items()}


def signed_values_at_one(p_table: dict, lengths: dict) -> dict:
    """M[x, w] = (-1)^(l(w) - l(x)) * P_{x,w}(1), nonzero entries only."""
    out = {}
    for (x, w), p in p_table.items():
        val = sum(p.values()) * (-1 if (lengths[w] - lengths[x]) % 2 else 1)
        if val:
            out[(x, w)] = val
    return out


def unitriangular_inverse(mat: dict, order: list) -> dict:
    """Inverse of a unitriangular matrix {(row, col): int} whose rows
    and columns are listed in a triangular `order`."""
    rows: dict = {}
    for (i, j), val in mat.items():
        if i != j:
            rows.setdefault(i, {})[j] = val
    inv: dict = {}
    for pos, j in enumerate(order):
        col = {j: 1}
        for i in reversed(order[:pos]):
            acc = -sum(val * col.get(k, 0) for k, val in rows.get(i, {}).items())
            if acc:
                col[i] = acc
        inv.update({(i, j): val for i, val in col.items()})
    return inv


# ---------------------------------------------------------------------------
# The two built-in rank-one blocks, in closed form.  In both, R is u - 1
# and P is 1 from each length-0 parameter to each length-1 parameter it
# links to; M carries -1 there and m carries +1.

SL2R = {
    "labels": ["D+", "D-", "P"],
    "length": {"D+": 0, "D-": 0, "P": 1},
    "below": [("D+", "P"), ("D-", "P")],
}
NCI2 = {
    "labels": ["D", "P1", "P2"],
    "length": {"D": 0, "P1": 1, "P2": 1},
    "below": [("D", "P1"), ("D", "P2")],
}


def rank_one_tables(block: dict) -> dict:
    diag = [(x, x) for x in block["labels"]]
    return {
        "R": {**{k: {0: 1} for k in diag}, **{k: {0: -1, 2: 1} for k in block["below"]}},
        "P": {**{k: {0: 1} for k in diag}, **{k: {0: 1} for k in block["below"]}},
        "M": {**{k: 1 for k in diag}, **{k: -1 for k in block["below"]}},
        "m": {**{k: 1 for k in diag}, **{k: 1 for k in block["below"]}},
    }


def complex_tables(names, braid) -> dict:
    kl = ClassicalKL(names, braid)
    lengths = kl.lengths()
    p = kl.labelled(kl.p_polys())
    big_m = signed_values_at_one(p, lengths)
    order = sorted(lengths, key=lambda x: (lengths[x], x))
    return {
        "R": {k: q_to_v(v) for k, v in kl.labelled(kl.r_polys()).items()},
        "P": {k: q_to_v(v) for k, v in p.items()},
        "M": big_m,
        "m": unitriangular_inverse(big_m, order),
    }


def kronecker(tables: list[dict], key: str, mul) -> dict:
    """Entries of the product block's matrix: labels pair up as
    "(a,b)" left to right, values multiply."""
    out = dict(tables[0][key])
    for t in tables[1:]:
        out = {
            (f"({a0},{b0})", f"({a1},{b1})"): mul(x, y)
            for (a0, a1), x in out.items()
            for (b0, b1), y in t[key].items()
        }
    return out


# ---------------------------------------------------------------------------
# Root tests for the genericity hypotheses

def pairing(coroot, x) -> tuple[Fraction, Fraction]:
    """<coroot, x> for x a list of (real, imag) Fraction pairs."""
    return (sum(c * re for c, (re, _) in zip(coroot, x)),
            sum(c * im for c, (_, im) in zip(coroot, x)))


def solve_over_base(base, alpha):
    """Coefficients of alpha over a basis of Q^n (square, invertible)."""
    n = len(base)
    rows = [[Fraction(base[k][i]) for k in range(n)] + [Fraction(alpha[i])]
            for i in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if rows[i][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return [rows[i][n] for i in range(n)]


def hypotheses(doc: dict, xi_m, nu) -> dict:
    """Flags of hypotheses A-D and the verdict, by root tests only.

    C and D use Steinberg's theorem: the stabiliser of xi in W is
    generated by the reflections it contains, i.e. by the roots singular
    on xi.  So Stab(xi) fixes xi_m iff every root singular on xi is
    singular on xi_m, and Stab(xi) lies in W_L iff every root singular
    on xi is a Levi root.
    """
    roots = [tuple(r) for r in doc["roots"]]
    coroot = {r: c for r, c in zip(roots, doc["coroots"])}
    base = doc["levi"]["simple_base"]
    levi_idx = set(doc["levi"]["levi_simples"])
    levi, nil = set(), set()
    for a in roots:
        coeffs = solve_over_base(base, a)
        if all(c == 0 for k, c in enumerate(coeffs) if k not in levi_idx):
            levi.add(a)
        elif all(c >= 0 for c in coeffs):
            nil.add(a)
    xi = [(a[0] + b[0], a[1] + b[1]) for a, b in zip(xi_m, nu)]
    zero = (Fraction(0), Fraction(0))
    sing = {a for a in roots if pairing(coroot[a], xi) == zero}

    def integral(p):
        return p[1] == 0 and p[0].denominator == 1

    hyp_a = not (sing & levi)
    hyp_b = not any(integral(pairing(coroot[a], xi)) for a in nil)
    hyp_c = (all(pairing(coroot[a], xi_m) == zero for a in sing)
             and all(pairing(coroot[a], nu) != zero for a in nil))
    hyp_d = sing <= levi
    if hyp_a and hyp_b:
        tag = "Main1"
    elif hyp_b and (hyp_c or hyp_d):
        tag = "Main2"
    else:
        tag = "NoConclusion"
    return {"hypA": hyp_a, "hypB": hyp_b, "hypC": hyp_c, "hypD": hyp_d,
            "verdict": tag}
