"""Action of the Hecke algebra generators T_s on the free module with
basis a block, plus the quadratic- and braid-relation validators.

T_s of each basis label is built on first use and kept in the block's
`derived` table, so every caller shares one element per (s, label).
`_T_rows` reads that table as plain integer rows, for the validators and
the duality recursion of `klv`."""

from __future__ import annotations

from .blockdata import BlockData, SimpleStatus
from .laurent import ONE, U, ZERO, LaurentPoly

__all__ = [
    "ModuleElement", "basis", "apply_T", "linear_combination",
    "check_quadratic", "check_braid",
]

_U_MINUS_1 = U - ONE
_U_MINUS_2 = U - LaurentPoly({0: 2})


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


def _apply_T_basis(b: BlockData, s: int, label: str) -> ModuleElement:
    """T_s of one basis label.  Each block keeps a table of these, filled
    on first use, so every caller shares one element per (s, label) and
    must not change it."""
    table = b.derived.get("T")
    if table is None:
        table = b.derived["T"] = {}
    e = table.get((s, label))
    if e is None:
        e = table[(s, label)] = _T_basis(b, s, label)
    return e


class _Rows(dict):
    """label -> T_s label as {label: {exponent: coefficient}}, read from
    the shared T table on first use.  The inner tables are those of the
    shared elements: read them, never change them."""

    def __init__(self, b: BlockData, s: int):
        super().__init__()
        self.b, self.s = b, s

    def __missing__(self, label: str) -> dict[str, dict[int, int]]:
        e = _apply_T_basis(self.b, self.s, label)
        rows = self[label] = {mu: p._t for mu, p in e._c.items()}
        return rows


def _T_rows(b: BlockData, s: int) -> _Rows:
    """The integer rows of T_s on b, one table per simple kept with the
    block."""
    tables = b.derived.setdefault("T rows", {})
    if s not in tables:
        tables[s] = _Rows(b, s)
    return tables[s]


def _T_basis(b: BlockData, s: int, label: str) -> ModuleElement:
    p = b.param(label)
    if not 0 <= s < len(b.simples):
        raise ValueError(f"unknown simple index: {s}")
    st = p.status[s]
    cross = p.cross[s]
    if st is SimpleStatus.COMPLEX_ASCENT:
        return basis(cross)
    if st is SimpleStatus.COMPLEX_DESCENT:
        return ModuleElement({cross: U, label: _U_MINUS_1})
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
        return ModuleElement({label: _U_MINUS_2, lo1: _U_MINUS_1, lo2: _U_MINUS_1})
    # RealParityII
    (lo,) = p.cayley[s]
    out = {label: _U_MINUS_1, lo: _U_MINUS_1}
    out[cross] = out.get(cross, ZERO) - ONE
    return ModuleElement(out)


def linear_combination(pairs) -> ModuleElement:
    """The sum of e * p over the (ModuleElement e, LaurentPoly p) pairs,
    accumulated in one label -> {exponent: coefficient} table."""
    acc: dict[str, dict[int, int]] = {}
    for e, p in pairs:
        pt = p._t.items()
        for label, q in e._c.items():
            row = acc.get(label)
            if row is None:
                row = acc[label] = {}
            get = row.get
            qt = q._t.items()
            for k2, c2 in pt:
                for k1, c1 in qt:
                    k = k1 + k2
                    row[k] = get(k, 0) + c1 * c2
    return ModuleElement({
        label: LaurentPoly._trusted({k: c for k, c in row.items() if c})
        for label, row in acc.items()})


def apply_T(b: BlockData, s: int, m: ModuleElement | str) -> ModuleElement:
    """T_s applied to a module element (or a basis label)."""
    if isinstance(m, str):
        return _apply_T_basis(b, s, m)
    return linear_combination(
        (_apply_T_basis(b, s, label), poly) for label, poly in m._c.items())


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


def _times(rows: dict[str, list[tuple[str, int]]], x: dict[str, int]) -> dict[str, int]:
    """T x for an element x and T given as packed rows label -> [(mu, c)]."""
    out: dict[str, int] = {}
    get = out.get
    for lam, a in x.items():
        for mu, c in rows[lam]:
            out[mu] = get(mu, 0) + a * c
    return out


def check_braid(b: BlockData, s: int, t: int) -> bool:
    """Alternating products T_s T_t ... of length m(s,t) agree on every
    basis label.

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
    top = max((sum(abs(c) for p in rows[x][lab].values() for c in p.values())
               for x in (s, t) for lab in labels), default=0)
    w = (top ** m).bit_length() + 1
    packed = {x: {lab: [(mu, sum(c << w * (k // 2) for k, c in p.items()))
                        for mu, p in rows[x][lab].items()] for lab in labels}
              for x in (s, t)}
    for label in labels:
        lhs = rhs = {label: 1}
        for i in range(m):
            lhs = _times(packed[(s, t)[i % 2]], lhs)
            rhs = _times(packed[(t, s)[i % 2]], rhs)
        if {mu: c for mu, c in lhs.items() if c} != {mu: c for mu, c in rhs.items() if c}:
            return False
    return True
