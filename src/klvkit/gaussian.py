"""Gaussian rationals: exact complex numbers with rational real and
imaginary parts, used for all infinitesimal-character coordinates."""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

__all__ = ["GaussRat", "GVec", "ScaledVec", "gvec", "vec_add", "mat_apply"]

# The imaginary term must carry an explicit sign when a real part is
# present, so that "1/10*i" cannot split as real 1/1 plus imaginary 0.
_GR = re.compile(
    r"""^\s*(?P<re>[+-]?\d+(?:/\d+)?)?\s*
         (?:(?P<im>(?(re)[+-]|[+-]?)\d+(?:/\d+)?)\s*\*?\s*i)?\s*$""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class GaussRat:
    real: Fraction = Fraction(0)
    imag: Fraction = Fraction(0)

    @classmethod
    def of(cls, value) -> "GaussRat":
        if isinstance(value, GaussRat):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(Fraction(value))
        if isinstance(value, str):
            return cls.parse(value)
        raise TypeError(f"cannot coerce {value!r} to GaussRat")

    @classmethod
    def parse(cls, text: str) -> "GaussRat":
        """Parse "a/b", "a/b+c/d*i" or "c/d*i" (integers allowed)."""
        m = _GR.match(text)
        if m is None or (m.group("re") is None and m.group("im") is None):
            raise ValueError(f"cannot parse Gaussian rational: {text!r}")
        try:
            real = Fraction(m.group("re")) if m.group("re") else Fraction(0)
            imag = Fraction(m.group("im")) if m.group("im") else Fraction(0)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in Gaussian rational: {text!r}") from None
        return cls(real, imag)

    def __add__(self, other: "GaussRat") -> "GaussRat":
        other = GaussRat.of(other)
        return GaussRat(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __sub__(self, other: "GaussRat") -> "GaussRat":
        other = GaussRat.of(other)
        return GaussRat(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other) -> "GaussRat":
        return GaussRat.of(other) - self

    def __neg__(self) -> "GaussRat":
        return GaussRat(-self.real, -self.imag)

    def __mul__(self, other) -> "GaussRat":
        other = GaussRat.of(other)
        return GaussRat(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.real == 0 and self.imag == 0

    def is_integer(self) -> bool:
        return self.imag == 0 and self.real.denominator == 1

    def is_positive_integer(self) -> bool:
        return self.is_integer() and self.real > 0

    def __str__(self) -> str:
        if self.imag == 0:
            return str(self.real)
        im = f"{abs(self.imag)}*i"
        sign = "-" if self.imag < 0 else "+"
        if self.real == 0:
            return f"{'-' if self.imag < 0 else ''}{im}"
        return f"{self.real}{sign}{im}"


GZERO = GaussRat()

GVec = tuple[GaussRat, ...]


class ScaledVec:
    """A Gaussian-rational vector written once over the integers:
    x_i = (re_i + i*im_i)/q, where q >= 1 is the lcm of every
    denominator of the real and imaginary parts.  An integer functional
    c pairs with x to (a + i*b)/q with a = c.re and b = c.im, so each
    test of a pairing is at most two integer dot products.  `coords`
    keeps x itself."""

    __slots__ = ("coords", "q", "re", "im")

    def __init__(self, x: GVec):
        self.coords = x
        q = self.q = lcm(*[v.real.denominator for v in x],
                         *[v.imag.denominator for v in x])
        self.re = tuple([v.real.numerator * (q // v.real.denominator) for v in x])
        self.im = tuple([v.imag.numerator * (q // v.imag.denominator) for v in x])

    def value(self, c) -> GaussRat:
        """The pairing of c with x, (a + i*b)/q."""
        return GaussRat(Fraction(sum(map(mul, c, self.re)), self.q),
                        Fraction(sum(map(mul, c, self.im)), self.q))

    def is_zero(self, c) -> bool:
        return not sum(map(mul, c, self.re)) and not sum(map(mul, c, self.im))

    def is_integer(self, c) -> bool:
        return (not sum(map(mul, c, self.im))
                and not sum(map(mul, c, self.re)) % self.q)

    def is_positive_integer(self, c) -> bool:
        if sum(map(mul, c, self.im)):
            return False
        a = sum(map(mul, c, self.re))
        return a > 0 and not a % self.q


def gvec(values) -> GVec:
    return tuple(GaussRat.of(v) for v in values)


def vec_add(a: GVec, b: GVec) -> GVec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def mat_apply(mat, vec: GVec) -> GVec:
    """Apply an integer matrix (rows) to a Gaussian-rational vector."""
    return tuple(
        sum((GaussRat.of(mij) * vec[j] for j, mij in enumerate(row)), GZERO)
        for row in mat
    )
