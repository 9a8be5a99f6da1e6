"""Action of the Hecke algebra generators T_s on the free module with
basis a block, plus the quadratic- and braid-relation validators.

T_s of a basis label is one integer row, label -> {v-exponent:
coefficient}, built on first use by `_T_row` and kept in the block's
`derived` table, so every caller shares one row per (s, label): the
validators, `apply_T` (and so `hecke-apply`), and the classes, order
and duality steps of `klv`.  The rows share one term table per case.
`klv` also shares the packing of `check_braid`: `_width`, the codec
`_pack` and `_unpack`, and `_times`, which applies packed rows."""

from __future__ import annotations

from .blockdata import BlockData, SimpleStatus
from .laurent import LaurentPoly

__all__ = ["apply_T", "check_quadratic", "check_braid"]

# Statuses at which `check_braid` skips a label: it lies in the span of
# T_s applied to shorter labels.
_DERIVED = frozenset({SimpleStatus.COMPLEX_DESCENT, SimpleStatus.RP1})

# The term tables of the T rows, 1, u, -1, u - 1 and u - 2, one each,
# shared by every row: read them, never change them.
_ONE, _U, _NEG, _U1, _U2 = {0: 1}, {2: 1}, {0: -1}, {2: 1, 0: -1}, {2: 1, 0: -2}


def _T_row(b: BlockData, s: int, label: str) -> dict[str, dict[int, int]]:
    """T_s label as label -> {v-exponent: coefficient}, with no zero
    coefficient and no empty label.  A label named twice in one case
    keeps its last value.  The term tables are the shared ones above."""
    p = b.param(label)
    if not 0 <= s < len(b.simples):
        raise ValueError(f"unknown simple index: {s}")
    st = p.status[s]
    cross = p.cross[s]
    if st is SimpleStatus.COMPLEX_ASCENT:
        return {cross: _ONE}
    if st is SimpleStatus.COMPLEX_DESCENT:
        return {cross: _U, label: _U1}
    if st is SimpleStatus.COMPACT_IMAGINARY:
        return {label: _U}
    if st is SimpleStatus.REAL_NONPARITY:
        return {label: _NEG}
    if st is SimpleStatus.NCI1:
        (up,) = p.cayley[s]
        return {cross: _ONE, up: _ONE}
    if st is SimpleStatus.NCI2:
        up1, up2 = sorted(p.cayley[s])
        return {label: _ONE, up1: _ONE, up2: _ONE}
    if st is SimpleStatus.RP1:
        lo1, lo2 = sorted(p.cayley[s])
        return {label: _U2, lo1: _U1, lo2: _U1}
    # RealParityII: (u - 1)(label + lo) - cross
    (lo,) = p.cayley[s]
    out = {label: _U1, lo: _U1}
    out[cross] = _U2 if cross in out else _NEG
    return out


class _Rows(dict):
    """label -> T_s label as {label: {exponent: coefficient}}, built on
    first use.  The rows are shared: read them, never change them."""

    def __init__(self, b: BlockData, s: int):
        super().__init__()
        self.b, self.s = b, s

    def __missing__(self, label: str) -> dict[str, dict[int, int]]:
        rows = self[label] = _T_row(self.b, self.s, label)
        return rows


def _T_rows(b: BlockData, s: int) -> _Rows:
    """The integer rows of T_s on b, one table per simple kept with the
    block."""
    tables = b.derived.setdefault("T rows", {})
    if s not in tables:
        tables[s] = _Rows(b, s)
    return tables[s]


def apply_T(b: BlockData, s: int, label: str) -> dict[str, LaurentPoly]:
    """T_s of a basis label, as label -> coefficient.  The coefficients
    wrap the shared rows: read them, never change them."""
    return {mu: LaurentPoly._trusted(t) for mu, t in _T_rows(b, s)[label].items()}


def check_quadratic(b: BlockData):
    """(T_s - u)(T_s + 1) must kill every basis element.

    Returns (True, None) or (False, (simple, label)), the first failure
    with the simple outermost and labels in `sorted_labels` order."""
    for s in range(len(b.simples)):
        rows = _T_rows(b, s)
        for label in b.sorted_labels():
            # T_s(T_s label) - (u - 1) T_s label - u label, keyed (label, k)
            acc: dict[tuple[str, int], int] = {(label, 2): -1}
            get = acc.get
            for mu, p in rows[label].items():
                for nu, q in rows[mu].items():
                    for k2, c2 in q.items():
                        for k1, c1 in p.items():
                            key = (nu, k1 + k2)
                            acc[key] = get(key, 0) + c1 * c2
                for k, c in p.items():
                    acc[(mu, k + 2)] = get((mu, k + 2), 0) - c
                    acc[(mu, k)] = get((mu, k), 0) + c
            if any(acc.values()):
                return False, (s, label)
    return True, None


def _width(bound: int) -> int:
    """The least digit width w with bound < 2^(w-1).  Integers c with
    |c| <= bound are then balanced base-2^w digits: a packing of such
    coefficients decodes uniquely, and it is zero only if they all are."""
    return bound.bit_length() + 1


def _pack(terms: dict[int, int], w: int, lo: int = 0) -> int:
    """The sum of c * 2^(w (k - lo)/2) over the terms c v^k, every k - lo
    even and nonnegative: digit i holds the coefficient of v^(lo + 2i)."""
    x = 0
    for k, c in terms.items():
        x += c << w * ((k - lo) >> 1)
    return x


def _unpack(x: int, w: int, lo: int = 0) -> dict[int, int]:
    """The terms that `_pack(terms, w, lo)` packs into x, with no zero
    coefficient, for coefficients c with |c| < 2^(w-1): the balanced
    base-2^w digits of x, lowest first."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    out = {}
    while x:
        c = ((x + half) & mask) - half
        if c:
            out[lo] = c
        x = (x - c) >> w
        lo += 2
    return out


def _times(rows: dict[str, list[tuple[str, int]]], x: dict[str, int]) -> dict[str, int]:
    """T x for an element x and T given as packed rows label -> [(mu, c)]."""
    out: dict[str, int] = {}
    get = out.get
    for lam, a in x.items():
        for mu, c in rows[lam]:
            out[mu] = get(mu, 0) + a * c
    return out


def _braid_width(b: BlockData, s: int, t: int) -> int:
    """The digit width w of `check_braid(b, s, t)`: the least with
    L^m < 2^(w-1), L the largest L1 norm of a row of T_s or T_t and m
    the braid order of s and t."""
    rows = [_T_rows(b, x) for x in (s, t)]
    top = max((sum(abs(c) for p in r[lab].values() for c in p.values())
               for r in rows for lab in b.params), default=0)
    return _width(top ** b.braid_order(s, t))


def check_braid(b: BlockData, s: int, t: int) -> bool:
    """Alternating products T_s T_t ... of length m(s,t) agree on every
    basis label.  Precondition: the quadratic relation holds at s and t.
    `klv --check` checks it first, and on a block that `validate_block`
    accepts it holds (see its lemma).

    Only the <T_s, T_t>-generators are tried: every label with a complex
    or RP1 descent at s or at t is skipped.  Let X and Y be the products
    that start with T_s and with T_t.  From T_s^2 = (u - 1)T_s + u:
    for m even, T_s Y = X T_s and T_s X = (u - 1)(X - Y) + Y T_s, so
    (X - Y)T_s = (u - 1)(X - Y) - T_s(X - Y); for m odd, T_t X = Y T_s
    and X T_s - T_t Y = (u - 1)(X - Y), so
    (X - Y)T_s = (u - 1)(X - Y) - T_t(X - Y).  Either way, and with s
    and t exchanged, ker(X - Y) is a submodule stable under T_s and T_t.
    A skipped label lies in the span of that algebra applied to shorter
    labels: gamma = T_s x at a complex descent, x its cross target, and
    gamma = T_s x - x' at an RP1 descent, x and x' its Cayley targets.
    By induction on length, the kernel holds every label once it holds
    the labels tried.

    The products run on the integer T rows with each coefficient packed
    as one Python int in powers of u: c_0 + c_1 u + ... becomes
    c_0 + c_1 2^w + ....  Applying T_s multiplies the L1 norm of an
    element (the sum of |c| over its labels and terms) by at most L, the
    largest L1 norm of a row of T_s or T_t, so no coefficient of a
    product of m factors applied to a label exceeds L^m.  With
    L^m < 2^(w-1) each coefficient is one balanced base-2^w digit, so two
    packed products are equal exactly when their coefficients are."""
    if s == t:
        return True
    m = b.braid_order(s, t)
    labels = b.sorted_labels()
    rows = {x: _T_rows(b, x) for x in (s, t)}
    w = _braid_width(b, s, t)
    packed = {x: {lab: [(mu, _pack(p, w)) for mu, p in rows[x][lab].items()]
                  for lab in labels}
              for x in (s, t)}
    for label in labels:
        status = b.params[label].status
        if status[s] in _DERIVED or status[t] in _DERIVED:
            continue
        lhs = rhs = {label: 1}
        for i in range(m):
            lhs = _times(packed[(s, t)[i % 2]], lhs)
            rhs = _times(packed[(t, s)[i % 2]], rhs)
        if {mu: c for mu, c in lhs.items() if c} != {mu: c for mu, c in rhs.items() if c}:
            return False
    return True
