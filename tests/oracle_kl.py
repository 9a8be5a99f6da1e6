"""Independent classical Kazhdan-Lusztig oracle.

Shares only the Coxeter enumeration with the package; Bruhat order, the
R-polynomial recursion, and the P-polynomial solve are implemented here
from scratch so the block-side pipeline cannot self-confirm.  Elements
are handled by their index in `elements`, which lists them in length
order, and polynomials in u by their coefficients of u^0, u^1, ...
"""

from __future__ import annotations

from klvkit.coxeter import CoxeterGroup
from klvkit.laurent import ONE, LaurentPoly


class ClassicalKL:
    def __init__(self, names, braid):
        self.w = CoxeterGroup(tuple(names), tuple(tuple(r) for r in braid))
        self._bruhat = {}
        self._r = {}
        self.elements = list(self.w.elements)
        self.ident = self.elements[0]
        self._index = {x: i for i, x in enumerate(self.elements)}
        self._len = [self.w.length[x] for x in self.elements]
        assert self._len == sorted(self._len), "elements not in length order"
        # _mul[s][i]: the index of s_s times element i
        self._mul = [[self._index[self.w.left_mul_gen(s, x)] for x in self.elements]
                     for s in range(len(self.w.names))]

    def _left_descent(self, x):
        for s, mul in enumerate(self._mul):
            if self._len[mul[x]] < self._len[x]:
                return s
        return None

    def bruhat_leq(self, x, w) -> bool:
        return self._leq(self._index[x], self._index[w])

    def _leq(self, x, w) -> bool:
        if x == w:
            return True
        if self._len[x] >= self._len[w]:
            return False
        key = (x, w)
        if key in self._bruhat:
            return self._bruhat[key]
        mul = self._mul[self._left_descent(w)]
        sw, sx = mul[w], mul[x]
        lower = sx if self._len[sx] < self._len[x] else x
        res = self._leq(lower, sw)
        self._bruhat[key] = res
        return res

    def _r_poly(self, x, w) -> tuple[int, ...]:
        """R_{x,w} in u; () when x is not below w."""
        if not self._leq(x, w):
            return ()
        if x == w:
            return (1,)
        key = (x, w)
        if key in self._r:
            return self._r[key]
        mul = self._mul[self._left_descent(w)]
        sw, sx = mul[w], mul[x]
        if self._len[sx] < self._len[x]:
            res = self._r_poly(sx, sw)
        else:
            # (u - 1) R_{x,sw} + u R_{sx,sw}
            a, b = self._r_poly(x, sw), self._r_poly(sx, sw)
            out = [0] * (max(len(a), len(b)) + 1)
            for i, c in enumerate(a):
                out[i] -= c
                out[i + 1] += c
            for i, c in enumerate(b):
                out[i + 1] += c
            res = tuple(out)
        self._r[key] = res
        return res

    def p_matrix(self) -> dict[tuple[str, str], LaurentPoly]:
        """All P_{x,w} keyed by labels, computed from the identity
        u^(l(w)-l(x)) * bar(P_{x,w}) = sum over x <= y <= w of R_{x,y} P_{y,w}.
        The sum runs over the Bruhat interval [x, w] alone."""
        n_el, length = len(self.elements), self._len
        # up[x]: every y >= x, each with R_{x,y}
        up = [{y: self._r_poly(x, y) for y in range(x, n_el) if self._leq(x, y)}
              for x in range(n_el)]
        out: dict[tuple[int, int], LaurentPoly] = {}
        for w in range(n_el):
            out[(w, w)] = ONE
            col = {w: (1,)}  # y -> P_{y,w}, for y <= w
            # [e, w] by decreasing length: every y > x comes before x
            for x in sorted((y for y in range(w) if w in up[y]), key=lambda y: -length[y]):
                n = length[w] - length[x]
                # f = the sum over x < y <= w
                f = [0] * (n + 1)
                rx = up[x]
                for y in rx.keys() & col.keys():
                    r = rx[y]
                    for j, c2 in enumerate(col[y]):
                        if c2:
                            for i, c1 in enumerate(r, j):
                                f[i] += c1 * c2
                # u^n * bar(P) - P = f, with deg(P) < n/2
                p = [-c for c in f[:(n + 1) // 2]]
                lhs = [0] * (n + 1)
                for i, c in enumerate(p):
                    lhs[n - i] += c
                    lhs[i] -= c
                assert lhs == f, "oracle identity failed"
                out[(x, w)] = LaurentPoly({2 * i: c for i, c in enumerate(p)})
                col[x] = tuple(p)
        return {
            (self.w.label(self.elements[x]), self.w.label(self.elements[w])): p
            for (x, w), p in out.items()
        }
