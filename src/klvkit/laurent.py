"""Exact arithmetic in the ring Z[u^(1/2), u^(-1/2)].

Polynomials are kept in the variable v = u^(1/2): the key k in the term
table stands for v^k = u^(k/2), so only an integer is stored per
exponent.  Coefficients are Python ints and never overflow.

The term table never stores a zero coefficient: the public constructor
drops them, and every ring operation (`+`, `-`, `*`, `shifted`, `bar`)
drops the zeros it creates before wrapping its table with
`LaurentPoly._trusted`, which neither copies nor checks.  Equality
compares the tables, so it relies on this invariant.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["LaurentPoly", "ZERO", "ONE", "U", "MINUS_INF"]

MINUS_INF = float("-inf")


class LaurentPoly:
    """Immutable sparse Laurent polynomial in v = u^(1/2)."""

    __slots__ = ("_t",)

    def __init__(self, terms: dict[int, int] | None = None):
        t = {}
        if terms:
            for k, c in terms.items():
                if not isinstance(k, int) or not isinstance(c, int):
                    raise TypeError("exponents and coefficients must be ints")
                if c != 0:
                    t[k] = c
        self._t = t

    @classmethod
    def _trusted(cls, t: dict[int, int]) -> "LaurentPoly":
        """Wrap t, a table of int keys and nonzero int values, as is."""
        p = object.__new__(cls)
        p._t = t
        return p

    @property
    def terms(self) -> dict[int, int]:
        return dict(self._t)

    def coeff(self, half_exp: int) -> int:
        return self._t.get(half_exp, 0)

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self) -> bool:
        return bool(self._t)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._t == other._t

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._t.items())))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        t = dict(self._t)
        for k, c in other._t.items():
            c += t.get(k, 0)
            if c:
                t[k] = c
            else:
                del t[k]
        return LaurentPoly._trusted(t)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted({k: -c for k, c in self._t.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other if isinstance(other, LaurentPoly) else -LaurentPoly({0: other}))

    def __rsub__(self, other: int) -> "LaurentPoly":
        return LaurentPoly({0: other}) - self

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if not other:
                return ZERO
            return LaurentPoly._trusted({k: c * other for k, c in self._t.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        t: dict[int, int] = {}
        for k1, c1 in self._t.items():
            for k2, c2 in other._t.items():
                k = k1 + k2
                t[k] = t.get(k, 0) + c1 * c2
        return LaurentPoly._trusted({k: c for k, c in t.items() if c})

    __rmul__ = __mul__

    def shifted(self, half_exp: int) -> "LaurentPoly":
        """Multiply by v^half_exp."""
        return LaurentPoly._trusted({k + half_exp: c for k, c in self._t.items()})

    def bar(self) -> "LaurentPoly":
        """The involution u^(1/2) -> u^(-1/2) (negate every exponent)."""
        return LaurentPoly._trusted({-k: c for k, c in self._t.items()})

    def eval_at_one(self) -> int:
        """Value at u = 1 (sum of all coefficients)."""
        return sum(self._t.values())

    def degree_in_u(self):
        """Maximal exponent as a power of u; MINUS_INF for zero."""
        if not self._t:
            return MINUS_INF
        return Fraction(max(self._t), 2)

    def is_u_polynomial(self) -> bool:
        """True if all exponents are nonnegative integer powers of u."""
        return all(k >= 0 and k % 2 == 0 for k in self._t)

    def __str__(self) -> str:
        if not self._t:
            return "0"
        parts = []
        for k in sorted(self._t):
            c = self._t[k]
            if k == 0:
                body = str(abs(c))
            elif k == 1:
                body = f"{abs(c)}*v"
            else:
                body = f"{abs(c)}*v^{k}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self._t!r})"


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
U = LaurentPoly({2: 1})
