"""Block partition, order relation, duality map with R-polynomials,
self-dual basis with P-polynomials, and the multiplicity matrices.

The duality map D is bar-semilinear, determined by its values on basis
parameters.  It is computed one length at a time: complex descents and
type-I parity descents give direct recursions, and the parameters whose
descents are all type-II real parity solve one integer linear system
per length, pinned by intertwining with T_s + 1, D^2 = Id and the u = 1
specialization.  Its solution is asserted unique and integral, so blocks
with several type-II factors are solved as well, by sparse exact
elimination (`_solve_linear`).

The block's T rows (`hecke._T_rows`) are the only table derived from
it: the classes are the components of their supports, the order reads
its descents off them, and the recursions apply the step
E_s = u^(-1)(T_s + 1) - 1 straight from them, through `_tp1`, the one
table of T_s plus a multiple of the identity.  Each entry D(gamma)_phi
is one Python int during the recursion, its polynomial packed by
Kronecker substitution (see `compute_duality`); `LaurentPoly` objects
are made only for the entries of the `RMatrix` and the `PMatrix`, one
per distinct value in a class: the entries with that value share it.
Few of them are distinct (2 values for the 15,543 entries of P on
sl2r x nci2 x A3 x A1).  Both keep them by column, cols[gamma] =
{phi: entry}; `entries` is a read-only view over (phi, gamma) keys.
M and m are tuples of `array` rows (see `multiplicities`).

`compute_P` finds most columns of P by the descent recursion of
Kazhdan-Lusztig on the same T rows, with no R, and solves the few
columns that have no complex or RP1 descent from the term tables of R
(see its docstring).  `verify_duality` packs D from R again
(`_PackedDuality`), so a sum over psi of products of entries is a sum
of integer products, and each check bounds its sums before it compares
them.  It checks D^2 = Id only at the generators of a class, the labels
with no complex or RP1 descent, and the intertwining with T_s + 1 only
at the T_s-generators (see its docstring).  `multiplicities` reads m
off M on a class isomorphic to its Vogan dual, by the inversion
formula, and inverts M by back-substitution on the others (see its
docstring).  `solve_block` runs the chain for one class and returns a
`BlockKLV`.  Under check,
`compute_P` replays the descent identity on each recursed column: with
the intertwining certified and by induction along the order, the column
is self-dual, so it is C_gamma.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from .blockdata import BlockData, Parameter, SimpleStatus
from .hecke import _T_rows, _pack, _times, _unpack, _width
from .laurent import ONE, ZERO, LaurentPoly

__all__ = [
    "RMatrix", "PMatrix", "MultMatrices", "BlockKLV",
    "DualityError", "PSolveError", "MultiplicityError",
    "partition_blocks", "compute_order", "compute_duality",
    "verify_duality", "compute_P", "multiplicities", "solve_block",
]


class DualityError(ValueError):
    pass


class PSolveError(ValueError):
    pass


class MultiplicityError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Block partition

def partition_blocks(b: BlockData) -> list[list[str]]:
    """Equivalence classes generated by noncompact-imaginary Cayley links
    and complex cross-actions, as sorted lists: the components of the
    graph joining each label to the support of its T rows.  Each row holds
    the link of its case, and any other label in it is already in the
    class.  That holds on a valid block: validate first, as every caller
    does."""
    rows = [_T_rows(b, s) for s in range(len(b.simples))]
    seen, classes = set(), []
    for label in b.params:
        if label not in seen:
            seen.add(label)
            cls = [label]
            for x in cls:
                new = {mu for r in rows for mu in r[x]} - seen
                seen |= new
                cls.extend(new)
            classes.append(sorted(cls))
    return sorted(classes)


# ---------------------------------------------------------------------------
# Order relation (safe over-approximation via T_s-support closure)

def _sort_key(b: BlockData):
    return lambda label: (b.params[label].length, label)


def compute_order(b: BlockData, block: list[str]) -> dict[str, frozenset[str]]:
    """Down-set of each label: a set guaranteed to contain every element
    below it in the representation-theoretic order (and the label itself).

    The descent targets of gamma at s (the labels of T_s gamma one length
    below it) and the support of T_s psi are read from the block's T
    rows.  A label already in the down-set is skipped: every down-set
    holds the down-sets of its members, so it would add nothing."""
    members = set(block)
    down: dict[str, frozenset[str]] = {}
    for label in sorted(block, key=_sort_key(b)):
        l = b.params[label].length
        dset = {label}
        for s in range(len(b.simples)):
            rows = _T_rows(b, s)
            targets = [t for t in rows[label] if b.params[t].length == l - 1]
            if not targets:
                continue
            acc = set().union(*[down[t] for t in targets])
            for phi in acc.union(*[rows[psi] for psi in acc]) - dset:
                if (phi not in dset and phi in members
                        and b.params[phi].length < l):
                    dset.add(phi)
                    dset |= down[phi]
        down[label] = frozenset(dset)
    return down


# ---------------------------------------------------------------------------
# Duality

class _Entries(Mapping):
    """The read-only view (phi, gamma) -> cols[gamma][phi]: no dict."""

    def __init__(self, cols: dict[str, dict[str, LaurentPoly]]):
        self._cols = cols

    def __getitem__(self, key):
        if type(key) is tuple and len(key) == 2 and key[0] in self._cols.get(key[1], ()):
            return self._cols[key[1]][key[0]]
        raise KeyError(key)

    def __iter__(self):
        return ((phi, gamma) for gamma, col in self._cols.items() for phi in col)

    def __len__(self) -> int:
        return sum(map(len, self._cols.values()))


@dataclass(frozen=True)
class RMatrix:
    """R of one class by column, cols[gamma] = {phi: R(phi, gamma)}."""
    order: tuple[str, ...]
    cols: dict[str, dict[str, LaurentPoly]]
    down: dict[str, frozenset[str]]
    entries = property(lambda self: _Entries(self.cols))

    def entry(self, phi: str, gamma: str) -> LaurentPoly:
        return self.cols.get(gamma, {}).get(phi, ZERO)


@dataclass(frozen=True)
class PMatrix:
    """P as `RMatrix`, with no diagonal (it is 1) and no empty column."""
    order: tuple[str, ...]
    cols: dict[str, dict[str, LaurentPoly]]
    entries = property(lambda self: _Entries(self.cols))

    def entry(self, phi: str, gamma: str) -> LaurentPoly:
        return ONE if phi == gamma else self.cols.get(gamma, {}).get(phi, ZERO)


@dataclass(frozen=True)
class MultMatrices:
    """M and m of one class: rows of `_zeros`, frozen."""
    order: tuple[str, ...]
    M: tuple[array | tuple[int, ...], ...]
    m: tuple[array | tuple[int, ...], ...]


_UNIT = {0: 1}


def _tp1(b: BlockData, s: int, x: str, a: dict[int, int] = _UNIT) -> dict[str, dict[int, int]]:
    """(T_s + a) x as a table, a the identity's coefficient (T_s + 1 by
    default), with no zero coefficient and no empty label.  Its tables may
    be the T row's own, or a: read them only.  The other labels keep the
    T row's order and x comes last: the order in which D(gamma) meets its
    labels, which R's entries keep."""
    out = dict(_T_rows(b, s)[x])
    own = out.pop(x, None)
    if own is not None:
        own = dict(own)
        for k, c in a.items():
            own[k] = own.get(k, 0) + c
        a = {k: c for k, c in own.items() if c}
    if a:
        out[x] = a
    return out


def _add(y: dict[str, dict[int, int]], a: dict[int, int], column) -> None:
    """y += a times each entry of column, an iterable of (label, terms)."""
    a = a.items()
    for phi, p in column:
        row = y.get(phi)
        if row is None:
            row = y[phi] = {}
        get = row.get
        for k2, c2 in p.items():
            for k1, c1 in a:
                row[k1 + k2] = get(k1 + k2, 0) + c1 * c2


def _quotient(x, c):
    """x / c, an int when c divides x."""
    q, m = divmod(x, c)
    return Fraction(x) / c if m else q


def _solve_linear(equations, nvars):
    """The unique solution of a linear system over Q, as a list of ints
    and Fractions; equations is a list of (dict var -> coeff, rhs).

    Sparse Gaussian elimination: the rows go sparsest first, which keeps
    the fill-in small, and each is reduced by the pivot rows found so
    far, one per leading (least) unknown, and becomes one if anything is
    left of it.  A pivot row is divided by its leading coefficient with
    `_quotient`, so the integer systems of the duality levels stay in
    ints.  Once the rank is full the rows left are not reduced: each is
    checked against the solution instead.  DualityError, with the
    unknown count and the rank, if there is no solution or more than
    one."""
    pivots: dict[int, tuple[dict, object]] = {}  # var -> later terms, rhs
    rows = sorted(equations, key=lambda row: len(row[0]))
    consistent, left = True, []
    for i, (f, r) in enumerate(rows):
        if len(pivots) == nvars:
            left = rows[i:]
            break
        g = {v: c for v, c in f.items() if c}
        while g:
            var = min(g)
            c = g.pop(var)
            pivot = pivots.get(var)
            if pivot is None:
                pivots[var] = ({v: _quotient(x, c) for v, x in g.items()}, _quotient(r, c))
                break
            rest, pr = pivot
            for v, x in rest.items():
                if y := g.get(v, 0) - c * x:
                    g[v] = y
                else:
                    del g[v]
            r -= c * pr
        else:
            consistent = consistent and not r
    size = f"{nvars} unknowns, rank {len(pivots)}"
    if consistent and len(pivots) < nvars:
        raise DualityError(f"duality system non-unique: {size}")
    sol = [0] * nvars
    for var in sorted(pivots, reverse=True):
        rest, r = pivots[var]
        sol[var] = r - sum(c * sol[v] for v, c in rest.items())
    if not consistent or any(sum(c * sol[v] for v, c in f.items()) != r for f, r in left):
        raise DualityError(f"duality system inconsistent: {size}")
    return sol


def _solve_level(b, down, dual, hard: list[str]) -> dict[str, dict[str, dict[int, int]]]:
    """D on the hard parameters of one length, those whose descents are
    all type-II real, as label -> table: gamma -> {v-exponent: coefficient}.
    D is known below this length and on its other parameters, and dual
    gives its tables there (`_Tables`).

    The unknowns are the integer coefficients of v^k phi in D(gamma), for
    each hard gamma, each phi below it and each even k from -2l(gamma) to
    -2l(phi); the v^(-2l) gamma term is fixed.  The rows are affine in
    them: D((T_s + 1)gamma) = (E_s + 1)D(gamma) at every descent s,
    D(D(gamma)) = gamma, and each D(gamma)_phi vanishes at u = 1.  The
    solution must be unique and integral."""
    l = b.params[hard[0]].length
    where = f"at length {l}, parameters {', '.join(map(repr, hard))}"
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

    def lowered(s: int, lam: str, k: int) -> dict:
        """-(E_s + 1) v^k lam = -v^(k-2) (T_s + 1) lam as a table."""
        into = {}
        for mu, t in _tp1(b, s, lam).items():
            into[mu] = row = {}
            for e, c in t.items():
                row[k - 2 + e] = -c
        return into

    def unit(j: int) -> dict[str, dict[int, int]]:
        _, phi, k = unknowns[j]
        return {phi: {k: 1}}

    def add_rows(const: dict, columns: dict[int, dict]):
        """The rows const + sum_j x_j columns[j] = 0, for label -> {k: c}
        tables, one per (label, k)."""
        rows: dict[tuple[str, int], dict[int, int]] = {
            (lab, k): {} for lab, row in const.items() for k in row}
        for j, col in columns.items():
            for lab, row in col.items():
                for k, c in row.items():
                    if c:
                        rows.setdefault((lab, k), {})[j] = c
        for key in sorted(rows):
            f = rows[key]
            rhs = -const.get(key[0], {}).get(key[1], 0)
            if f or rhs:
                equations.append((f, rhs))

    top = {g: {g: {-2 * l: 1}} for g in hard}
    for g in hard:
        # D((T_s + 1)g) - (E_s + 1)D(g) = 0 at each descent s.
        for s, st in enumerate(b.param(g).status):
            if st is not SimpleStatus.RP2:
                continue
            const = lowered(s, g, -2 * l)
            columns = {j: lowered(s, *unknowns[j][1:]) for j in owned[g]}
            for lab, t in _tp1(b, s, g).items():
                c = {-k: x for k, x in t.items()}
                if lab not in owned:
                    _add(const, c, dual[lab].items())
                    continue
                _add(const, c, top[lab].items())
                for j in owned[lab]:
                    _add(columns.setdefault(j, {}), c, unit(j).items())
            add_rows(const, columns)
        # D(D(g)) - g = 0; u^l D(top) = g, so only the unknowns remain.
        columns = {}
        for j in owned[g]:
            _, phi, k = unknowns[j]
            columns[j] = {phi: {k + 2 * l: 1}}
            _add(columns[j], {-k: 1}, dual[phi].items())
        add_rows({}, columns)

    try:
        sol = _solve_linear(equations, len(unknowns))
    except DualityError as exc:
        raise DualityError(f"{exc} {where}") from None
    if any(x.denominator != 1 for x in sol):
        raise DualityError(
            f"duality system non-integral: {len(unknowns)} unknowns, "
            f"rank {len(unknowns)} {where}")
    for (g, phi, k), x in zip(unknowns, sol):
        if x:
            top[g].setdefault(phi, {})[k] = int(x)
    return top


def _descent(p: Parameter) -> tuple[int, str] | None:
    """The simple s and the label x one length below p that the direct
    recursions of D and of P start from: the lowest complex descent and
    its cross target, else the lowest RP1 descent and the smaller of its
    Cayley targets.  None if p has neither kind of descent."""
    if SimpleStatus.COMPLEX_DESCENT in p.status:
        s = p.status.index(SimpleStatus.COMPLEX_DESCENT)
        return s, p.cross[s]
    if SimpleStatus.RP1 in p.status:
        s = p.status.index(SimpleStatus.RP1)
        return s, sorted(p.cayley[s])[0]
    return None


class _Tables(dict):
    """label -> D(label) as a table phi -> {v-exponent: coefficient},
    decoded on first use from packed D at width w."""

    def __init__(self, packed: dict[str, dict[str, int]], w: int, b: BlockData):
        super().__init__()
        self.packed, self.w, self.params = packed, w, b.params

    def __missing__(self, x: str) -> dict[str, dict[int, int]]:
        lo, w = -2 * self.params[x].length, self.w
        t = self[x] = {phi: _unpack(y, w, lo) for phi, y in self.packed[x].items()}
        return t


def _widen(packed: dict[str, dict[str, int]], w: int, bound: int) -> int:
    """Repack every entry of packed D from width w to the least width
    whose digits hold bound, and return that width."""
    new = _width(bound)
    for col in packed.values():
        for phi, y in col.items():
            col[phi] = _pack(_unpack(y, w), new)
    return new


def _packed_dual(b: BlockData, order: tuple[str, ...], down: dict[str, frozenset[str]]):
    """D of one class, packed, by induction on length (see
    `compute_duality`): (packed, w, bound), with packed[gamma] the table
    phi -> packed D(gamma)_phi of the nonzero entries, w the width of
    them all and bound[gamma] the bound B(gamma) on the L1 norm of
    D(gamma).  A step applies packed rows of T_s + 1 - u (`_tp1`) to D(x)."""
    params = b.params
    lens = {x: params[x].length for x in order}
    # rows of T_s + 1 - u: E_s = u^(-1)(T_s + 1 - u)
    steps = [{lam: _tp1(b, s, lam, {0: 1, 2: -1}) for lam in order}
             for s in range(len(b.simples))]
    norms = [max((sum(abs(c) for t in row.values() for c in t.values())
                  for row in rows.values()), default=0) for rows in steps]
    norm, top, w = max(norms, default=0), lens[order[-1]] if order else 0, 2
    packed_steps: list[tuple[int, dict]] = [(0, {})] * len(steps)
    packed: dict[str, dict[str, int]] = {}
    bound: dict[str, int] = {}
    for _, level in itertools.groupby(order, key=lens.__getitem__):
        hard = []
        for gamma in level:
            p = params[gamma]
            descent = _descent(p)
            if descent is None:
                if SimpleStatus.RP2 in p.status:
                    hard.append(gamma)
                else:
                    packed[gamma], bound[gamma] = {gamma: 1}, 1
                continue
            s, x = descent
            c2 = sorted(p.cayley[s])[1] if p.status[s] is SimpleStatus.RP1 else None
            bound[gamma] = norms[s] * bound[x] + (0 if c2 is None else bound[c2])
            if bound[gamma] >> (w - 1):
                # room for the labels above too: a bound grows at most
                # norm + 1 times per length
                w = _widen(packed, w, bound[gamma] * (norm + 1) ** (top - p.length))
            if packed_steps[s][0] != w:
                packed_steps[s] = (w, {lam: [(mu, _pack(t, w)) for mu, t in row.items()]
                                       for lam, row in steps[s].items()})
            # D(gamma) = E_s D(x), less D(c2) at RP1.  D(x) is packed from
            # v^(-2 l x) = u v^(-2 l gamma): the u^(-1) of E_s takes it to
            # the packing of D(gamma), from v^(-2 l gamma), with no shift.
            d = _times(packed_steps[s][1], packed[x])
            if c2 is not None:
                get = d.get
                for phi, y in packed[c2].items():
                    d[phi] = get(phi, 0) - (y << w)
            packed[gamma] = {mu: y for mu, y in d.items() if y}
        if hard:
            l = lens[hard[0]]
            for g, t in _solve_level(b, down, _Tables(packed, w, b), hard).items():
                bound[g] = sum(map(_l1, t.values()))
                if bound[g] >> (w - 1):
                    w = _widen(packed, w, bound[g] * (norm + 1) ** (top - l))
                packed[g] = {phi: _pack(q, w, -2 * l) for phi, q in t.items()}
    return packed, w, bound


def compute_duality(b: BlockData, block: list[str]) -> RMatrix:
    """R-polynomials of one block, by induction on length.  At each
    length the direct recursions come first; one system then solves the
    parameters whose descents are all type-II real (`_solve_level`).

    D runs on integers (`_packed_dual`): entry D(gamma)_phi, a sum of
    c_k v^k, is held as the sum of c_k 2^(w (k + 2 l gamma)/2), digits
    counting powers of u.  Every k is at least -2 l gamma: the base
    entry is v^(-2 l gamma) gamma, the level unknowns run from
    -2 l gamma, and E_s lowers the least exponent by 2 while the length
    rises by 1.  Then (-1)^(l gamma - l phi) times the packing is
    exactly R(phi, gamma) packed from exponent 0: R keys its store of
    distinct values by that int and decodes each once, into the one
    `LaurentPoly` that its entries share.

    Width.  B(gamma) bounds the L1 norm of D(gamma), the sum of |c| over
    all its entries and terms: 1 at a base parameter, the exact L1 norm
    of the solution at a type-II one, and k_s B(x), plus B(c2) at an RP1
    descent, for D(gamma) = E_s D(x) - D(c2), with k_s the largest L1
    norm of a row lam -> {mu: a0 + a2 u} of T_s + 1 - u: each entry of
    D(x) times one coefficient of such a row adds at most
    L1(entry) L1(coefficient) to D(gamma), and summing over the row and
    over the entries of D(x) gives at most k_s B(x).  No coefficient
    exceeds B(gamma), so with B(gamma) < 2^(w-1) each is one balanced
    base-2^w digit: the packing is exact, it decodes uniquely and it is
    0 only if the entry is.  Packing is a ring map from Z[u] to Z, so
    the sums and products on packed entries are those of the
    polynomials.  Packed D starts from 2-bit digits, which hold the
    bases.  Before a bound reaches 2^(w-1), every held entry is decoded
    and repacked (`_widen`) at the width of that bound times (k + 1)^n,
    k the largest k_s and n the lengths left above it, so that the
    labels over it fit too."""
    down = compute_order(b, block)
    order = tuple(sorted(block, key=_sort_key(b)))
    packed, w, _ = _packed_dual(b, order, down)
    odd = {x: b.params[x].length % 2 for x in order}
    cols: dict[str, dict[str, LaurentPoly]] = {}
    polys: dict[int, LaurentPoly] = {}  # packed R value -> the one object
    for gamma in order:
        dg, og = down[gamma], odd[gamma]
        cols[gamma] = col = {}
        for phi, x in packed.pop(gamma).items():
            if phi not in dg:
                raise DualityError(
                    "duality system inconsistent or non-unique: "
                    f"D({gamma!r}) has a term at {phi!r} outside its down-set")
            if odd[phi] != og:
                x = -x
            poly = polys.get(x)
            if poly is None:
                poly = polys[x] = LaurentPoly._trusted(_unpack(x, w))
            col[phi] = poly
    return RMatrix(order=order, cols=cols, down=down)


# ---------------------------------------------------------------------------
# D packed as integers (Kronecker substitution), for verify_duality

def _l1(terms: dict[int, int]) -> int:
    return sum(map(abs, terms.values()))


class _PackedDuality:
    """D of one class, each entry packed once as a Python int.

    The pass over R that builds it sets `sound`: each diagonal entry is
    1, and each nonzero entry is in its column's down-set, 0 at u = 1 off
    the diagonal and a u-polynomial of degree at most
    n = l psi - l phi: each of its terms c v^k has k even and
    0 <= k <= 2n.  `involutive` and `intertwines` take R to be sound.

    Entry D(psi)_phi = (-1)^n R(phi, psi) v^(-2 l psi) is packed with
    lo = -2 l psi and, barred, with lo = 2 l phi, in steps of 2: digits
    count powers of u.  Then every product added into one coefficient
    shares its offset, so a sum over psi of polynomial products is a sum
    of integer products.  No coefficient of such a sum exceeds the sum
    over psi of L1(a) L1(b), which is at most max L1(a) times the L1
    norm of a row of D.  Each check bounds its sums so before it
    compares them, and widens the digit width until the bound fits in
    w - 1 bits."""

    def __init__(self, b: BlockData, r: RMatrix):
        self.b, self.order = b, r.order
        lens = self.lens = {x: b.params[x].length for x in r.order}
        # psi -> [(phi, sign, terms of R(phi, psi), l psi - l phi)] over
        # the nonzero entries of column psi
        cols: dict[str, list] = {x: [] for x in r.order}
        row_l1: dict[str, int] = {}
        # id of a term table -> its L1 norm, its sum (the value at u = 1),
        # its least and greatest exponent and whether one is odd: once per
        # distinct value, as the entries of one value share its table
        facts: dict[int, tuple[int, int, int, int, bool]] = {}
        ones, sound, down = 0, True, r.down
        for psi, col in cols.items():
            l_psi = lens[psi]
            for phi, poly in r.cols.get(psi, {}).items():
                t = poly._t
                if not t:
                    continue
                l_phi = lens.get(phi)
                n = l_psi - (b.params[phi].length if l_phi is None else l_phi)
                f = facts.get(id(t))
                if f is None:
                    f = facts[id(t)] = (_l1(t), sum(t.values()), min(t), max(t),
                                        any(k % 2 for k in t))
                l1, total, lo, hi, odd = f
                diagonal = phi == psi
                ones += diagonal and total == 1 and lo == hi == 0
                if sound and (odd or lo < 0 or hi > 2 * n or total != diagonal
                              or phi not in down[psi]):
                    sound = False
                col.append((phi, -1 if n % 2 else 1, t, n))
                row_l1[phi] = row_l1.get(phi, 0) + l1
        self.max_entry = max((f[0] for f in facts.values()), default=0)
        self.cols = cols
        self.sound = sound and ones == len(r.order)
        self.max_row = max(row_l1.values(), default=0)
        self.width = _width(self.max_entry * self.max_row + 1)
        self._plain_rows: tuple[int, dict] | None = None

    def _fit(self, bound: int) -> int:
        """Widen the digit width, if need be, so that bound < 2^(w-1)."""
        if bound >> (self.width - 1):
            self.width = _width(bound)
        return self.width

    def _plain(self) -> dict[str, list[tuple[str, int]]]:
        """psi -> [(phi, packed D(psi)_phi)] at the current width, in the
        order of `cols`.  Each distinct term table is packed once."""
        w = self.width
        if self._plain_rows is None or self._plain_rows[0] != w:
            packed: dict[int, int] = {}  # id of a term table -> its packing
            rows = {}
            for psi, col in self.cols.items():
                rows[psi] = row = []
                for phi, sign, t, _ in col:
                    x = packed.get(id(t))
                    if x is None:
                        x = packed[id(t)] = _pack(t, w)
                    row.append((phi, x if sign > 0 else -x))
            self._plain_rows = (w, rows)
        return self._plain_rows[1]

    def involutive(self) -> bool:
        """D(D(gamma)) = gamma for every generator gamma of the class.
        With `intertwines` this gives D^2 = Id on the whole class (see
        `verify_duality`).  The coefficient at phi of D(D(gamma)) is the
        sum over psi of bar(D(gamma)_psi) D(psi)_phi; its packing has
        lo = 0."""
        w = self._fit(self.max_entry * self.max_row + 1)
        plain = self._plain()
        for gamma in _generators(self.b, self.order):
            acc = _times(plain, {psi: sign * _pack({2 * n - k: c for k, c in t.items()}, w)
                                 for psi, sign, t, n in self.cols[gamma]})
            if acc.pop(gamma, 0) != 1 or any(acc.values()):
                return False
        return True

    def intertwines(self) -> bool:
        """u D((T_s + 1) gamma) = (T_s + 1) D(gamma) for every simple s
        and every T_s-generator gamma (`_t_generator`), which is the
        intertwining of D with T_s + 1 and u^(-1)(T_s + 1) multiplied by
        u.  At the other labels it follows (see `verify_duality`)."""
        b, lens, params = self.b, self.lens, self.b.params
        # tp1[s][x]: label -> terms of the coefficient of (T_s + 1)x there
        tp1 = [{x: _tp1(b, s, x) for x in self.order} for s in range(len(b.simples))]
        w = self._intertwining_width(tp1)
        plain = self._plain()
        for s, rows in enumerate(tp1):
            # the coefficients of (T_s + 1)psi have exponents 0 to 2
            packed_t = {x: [(lab, _pack(t, w)) for lab, t in row.items()]
                        for x, row in rows.items()}
            for gamma in self.order:
                if not _t_generator(params[gamma], s):
                    continue
                lg, row = lens[gamma], rows[gamma]
                top = max([lg] + [lens[lab] for lab in row])
                # u D((T_s + 1) gamma) - (T_s + 1) D(gamma), both packed
                # with lo = -2 top; the bound fitted above is that of the
                # difference
                acc = _times(plain, {
                    lam: _pack({2 * (1 + top - lens[lam]) - k: c for k, c in t.items()}, w)
                    for lam, t in row.items()})
                get = acc.get
                shift = w * (top - lg)
                for psi, x in plain[gamma]:
                    x <<= shift
                    for phi, t in packed_t[psi]:
                        acc[phi] = get(phi, 0) - x * t
                if any(acc.values()):
                    return False
        return True

    def _intertwining_width(self, tp1: list[dict]) -> int:
        """Fit the width to `intertwines` on the tables tp1 of T_s + 1: the
        bound is max entry times (row L1 + column L1) of T_s + 1."""
        row_l1 = col_l1 = 0
        for rows in tp1:
            into: dict[str, int] = {}
            for t in rows.values():
                row_l1 = max(row_l1, sum(map(_l1, t.values())))
                for lab, terms in t.items():
                    into[lab] = into.get(lab, 0) + _l1(terms)
            col_l1 = max([col_l1, *into.values()])
        return self._fit(self.max_entry * (row_l1 + col_l1))


def _t_generator(p: Parameter, s: int) -> bool:
    """Whether p is a T_s-generator, one of the labels at which
    `intertwines` checks simple s: False when p has a complex or RP1
    descent at s, or an RP2 descent whose cross partner is the smaller
    label; such a label lies in the T_s-span of the others (see
    `verify_duality`)."""
    st = p.status[s]
    if st is SimpleStatus.COMPLEX_DESCENT or st is SimpleStatus.RP1:
        return False
    return st is not SimpleStatus.RP2 or not p.cross[s] < p.label


def _generators(b: BlockData, order: tuple[str, ...] | list[str]) -> list[str]:
    """The generators of a class, in its order: the labels with no complex
    or RP1 descent, for which `_descent` gives None.  Every other label
    is derived through the T_s x of its `_descent` (see `verify_duality`)."""
    params = b.params
    return [x for x in order if _descent(params[x]) is None]


def verify_duality(b: BlockData, block: list[str], r: RMatrix) -> bool:
    """Independent certification of the duality map that R defines.  One
    pass over the terms of R checks the diagonal one, every entry in its
    column's down-set, the degree bounds, the even exponents and the
    u = 1 specialization (`_PackedDuality.sound`).  Only R that passes is
    packed, and packed D is then checked for the involution D^2 = Id at
    the generators of the class (`_generators`) and for the intertwining
    u D((T_s + 1)gamma) = (T_s + 1)D(gamma) at every simple s and every
    T_s-generator gamma (`_t_generator`).

    On a valid block (validate first, as every caller does) that is the
    answer of checking D^2 = Id and the intertwining at every gamma, as
    `tests/reference_klv.verify_duality` does.

    Intertwining.  Let Phi_s(y) = u D((T_s + 1)y) - (T_s + 1)D(y).  It is
    additive and bar-semilinear, as D is and T_s is linear, so its kernel
    is a submodule.  The kernel is T_s-stable: the quadratic relation
    gives (T_s + 1)T_s = u(T_s + 1), so (T_s + 1)^2 = (u + 1)(T_s + 1),
    and if Phi_s(y) = 0, then D((T_s + 1)y) = u^(-1)(T_s + 1)D(y) and
    Phi_s((T_s + 1)y) = (1 + u)D((T_s + 1)y) - (T_s + 1)D((T_s + 1)y)
    = u^(-1)((1 + u)(T_s + 1) - (T_s + 1)^2)D(y) = 0.  Every label that
    `_t_generator` skips at s lies in the T_s-span of those it keeps: at a
    complex descent gamma = T_s x, x its cross target, an ascent; at an
    RP1 descent gamma = T_s x - x', x and x' its Cayley targets, both
    NCI1; and of an RP2 cross pair gamma, gamma' over the NCI2 label x,
    the larger is T_s x - x minus the smaller.  So Phi_s vanishes on the
    whole module once it vanishes at the kept labels.  This needs the
    quadratic relation at s and the orbit shapes of `validate_block`,
    whose lemma gives the first from the second.

    Involution.  D is bar-semilinear, so intertwining on the basis
    extends to the whole module, and D^2, which is linear, then commutes
    with every T_s.  Let gamma be no generator, with s and x from
    `_descent`.  At a complex descent x is the cross target, a complex
    ascent, and T_s x = gamma; at an RP1 descent x is the smaller Cayley
    target, and T_s x = x' + gamma, x' the other one, as long as x.  So
    gamma is the only label of T_s x longer than x, with coefficient 1.
    If D^2 fixes every label shorter than gamma, it fixes T_s x, and so
    gamma.  By induction on length, D^2 is the identity once it fixes
    every generator."""
    packed = _PackedDuality(b, r)
    return packed.sound and packed.involutive() and packed.intertwines()


# ---------------------------------------------------------------------------
# Self-dual basis and multiplicities

def _tp1_col(b: BlockData, s: int, x: str,
             cols: dict[str, dict[str, dict[int, int]]],
             tp1: dict[str, list]) -> dict[str, dict[int, int]]:
    """(T_s + 1) C_x as a table; tp1 caches (T_s + 1) phi for this s."""
    y: dict[str, dict[int, int]] = {}
    for phi, p in itertools.chain(((x, _UNIT),), cols[x].items()):
        row = tp1.get(phi)
        if row is None:
            row = tp1[phi] = list(_tp1(b, s, phi).items())
        _add(y, p, row)
    return y


def _recursed(b: BlockData, gamma: str, s: int, x: str, y: dict[str, dict[int, int]],
              earlier: tuple[str, ...], down: frozenset[str],
              cols: dict[str, dict[str, dict[int, int]]]) -> dict[str, dict[int, int]]:
    """Column gamma of P as phi -> terms, from y = (T_s + 1) C_x, which
    this consumes, reduced by the columns in `cols` of the labels
    `earlier` in the order (see `compute_P`)."""
    params = b.params
    lg = params[gamma].length
    top = {mu: q for mu, t in y.items() if params[mu].length >= lg
           and (q := {k: c for k, c in t.items() if c})}
    if top != {gamma: _UNIT}:
        raise PSolveError(
            f"descent recursion at {gamma!r} through simple {s}: (T_s + 1) of "
            f"column {x!r} has top {top!r}, not {gamma!r} with coefficient 1")
    for delta in reversed(earlier):
        q = y.get(delta)
        if not q:
            continue
        n = lg - params[delta].length
        a = {}
        for k, c in q.items():
            if c and k >= n:
                a[k] = a[2 * n - k] = -c
        if a:  # y -= a C_delta
            _add(y, a, itertools.chain(((delta, _UNIT),), cols[delta].items()))
    del y[gamma]
    col = {}
    for phi, q in y.items():
        if not q or 0 in q.values():
            q = {k: c for k, c in q.items() if c}
            if not q:
                continue
        # T rows and P, so y, have even exponents only
        if phi not in down or min(q) < 0 or max(q) >= lg - params[phi].length:
            raise PSolveError(
                f"no solution under degree bound at P({phi!r}, {gamma!r}): the "
                f"descent recursion through simple {s} leaves "
                f"{LaurentPoly._trusted(q)} there, down-set of {len(down)} labels")
        col[phi] = q
    return col


def _replay(b: BlockData, gamma: str, y: dict[str, dict[int, int]],
            col: dict[str, dict[int, int]], earlier: tuple[str, ...],
            down: frozenset[str], cols: dict[str, dict[str, dict[int, int]]]) -> None:
    """Certify col, column gamma of P found by the recursion from
    y = (T_s + 1) C_x, which this consumes, or PSolveError (see
    `compute_P`).  It must meet the degree bound, and y - C_gamma must
    reduce to 0 by a_delta C_delta over the earlier labels delta, in
    decreasing order, each a_delta the whole coefficient left at delta,
    with n = l gamma - l delta > 0 and a_k = a_(2n-k) in v-exponents."""
    params = b.params
    lg = params[gamma].length
    failed = PSolveError(f"column {gamma!r} of P is not self-dual")
    for phi, q in col.items():
        n = lg - params[phi].length
        if phi == gamma or phi not in down or any(k < 0 or k >= n or k % 2 for k in q):
            raise failed
    _add(y, {0: -1}, itertools.chain(((gamma, _UNIT),), col.items()))
    for delta in reversed(earlier):
        # a is -a_delta; the 1 of C_delta at delta goes with the pop
        a = {k: -c for k, c in y.pop(delta, {}).items() if c}
        if not a:
            continue
        n = lg - params[delta].length
        if n <= 0 or any(a.get(2 * n - k) != c for k, c in a.items()):
            raise failed
        _add(y, a, cols[delta].items())
    if any(c for t in y.values() for c in t.values()):
        raise failed


def _fallback(b: BlockData, gamma: str, down: frozenset[str],
              reads: dict[str, tuple[list, list]]) -> dict[str, dict[int, int]]:
    """Column gamma of P as phi -> terms, solved from R (see `compute_P`).
    reads[psi] holds the nonzero entries of column psi of R as
    (phi, (-1)^(l psi - l phi) terms): first the list of those the solve
    reads (phi in the down-set of psi, phi != psi), then the rest."""
    params = b.params
    lg = params[gamma].length
    # v^(2 l gamma) D(C_gamma) - C_gamma over the columns pushed so far:
    # f holds the sums f(phi) that the solve reads, rest all the others
    f: dict[str, dict[int, int]] = {}
    rest: dict[str, dict[int, int]] = {}

    def push(psi: str, sol: dict[int, int]) -> None:
        """Add bar(P(psi, gamma)) v^(2 l gamma) D(psi) - P(psi, gamma) psi,
        with D(psi) read off column psi of R."""
        a = {2 * (lg - params[psi].length) - k: c for k, c in sol.items()}
        read, other = reads[psi]
        _add(f, a, read)
        _add(rest, a, other)
        _add(rest, {0: -1}, ((psi, sol),))

    push(gamma, _UNIT)
    col: dict[str, dict[int, int]] = {}
    for phi in sorted(down - {gamma}, key=lambda x: (-params[x].length, x)):
        t = f.get(phi, {})
        n = lg - params[phi].length
        sol = {k: c for k, c in t.items() if c and k < n}
        if {k: c for k, c in t.items() if c and k >= n} != {
                2 * n - k: -c for k, c in sol.items()}:
            raise PSolveError(
                f"no solution under degree bound at P({phi!r}, {gamma!r})")
        if sol:
            col[phi] = sol
            push(phi, sol)
    _add(rest, _UNIT, f.items())
    if any(c for t in rest.values() for c in t.values()):
        raise PSolveError(f"column {gamma!r} of P is not self-dual")
    return col


def compute_P(b: BlockData, block: list[str], r: RMatrix,
              check: bool = False) -> PMatrix:
    """The P-polynomials of one class, one column at a time in its order.
    Column gamma stands for C_gamma = sum of P(phi, gamma) phi, the one
    element that is self-dual of weight l gamma,
    D(C_gamma) = v^(-2 l gamma) C_gamma, with coefficient 1 at gamma and,
    at every other label phi, a u-polynomial of degree below n/2,
    n = l gamma - l phi, with phi in the down-set of gamma.  It is one:
    at the longest label delta of the difference of two such, with
    coefficient c, D gives bar(c) v^(-2 l delta), as D(delta) is
    v^(-2 l delta) delta plus shorter labels; so bar(c) = v^(-2n) c, c is
    symmetric about degree n/2 and, below it, 0.

    Descent recursion (Kazhdan-Lusztig, Invent. Math. 53 (1979), (2.2.c);
    on block modules, Lusztig-Vogan, Invent. Math. 71 (1983)).  With s
    and x from `_descent`, y = (T_s + 1) C_x must have gamma as its only
    label of length l gamma, with coefficient 1.  Its other labels delta
    are taken in decreasing (length, label) order, and y loses
    a_delta C_delta, where a_delta, with a_k = a_(n-k), agrees with the
    coefficient q of y at delta in each u-degree k with 2k >= n: that
    leaves degree below n/2 at delta and changes only shorter labels.
    The mu of the classical recursion are these top coefficients of q;
    no table of them is kept.  At the end every coefficient must meet the
    degree bound at a label of the down-set, or PSolveError names gamma,
    s, the label and the size of the down-set.  The recursion reads no R.

    Why that is C_gamma: D intertwines T_s + 1 with u^(-1)(T_s + 1)
    (`verify_duality` certifies it), so D(y) = u^(-1)(T_s + 1)
    v^(-2 l x) C_x = v^(-2 l gamma) y.  Each a_delta C_delta is self-dual
    of weight l gamma too, as bar(a_delta) = v^(-2n) a_delta.  So the
    reduced y is self-dual of weight l gamma, with top gamma and under the
    degree bound: it is C_gamma, by induction along the order.  With
    check, `_replay` certifies each recursed column as it is found: it
    replays that identity on the emitted columns, from the product
    (T_s + 1) C_x that the recursion built, and derives each a_delta
    itself.  With the certified intertwining and induction along the
    order, the column is then self-dual, so it is C_gamma.

    Fallback.  A column with only RP2 descents, or none, is solved from
    the term tables of R (`_fallback`), read once for the columns of R in
    the down-sets of these columns (on a complex class, the minimal
    label).  With phi in decreasing (length, label) order,
    f(phi) = sum over psi of
    (-1)^(l psi - l phi) bar(P(psi, gamma)) v^(2(l gamma - l psi)) R(phi, psi),
    over the psi already solved with phi in their down-set, psi != phi,
    must equal P(phi, gamma) - bar(P(phi, gamma)) v^(2(l gamma - l phi)).
    Then the column must pass the self-duality net, on every nonzero entry
    of R in the columns it reads: D applied to it gives v^(-2 l gamma)
    times it."""
    order, down, params = r.order, r.down, b.params
    reads = {x: ([], []) for x in frozenset().union(*(down[g] for g in _generators(b, order)))}
    for psi, (read, rest) in reads.items():
        l_psi = params[psi].length
        for phi, poly in r.cols.get(psi, {}).items():
            if t := poly._t:
                if (l_psi - params[phi].length) % 2:
                    t = {k: -c for k, c in t.items()}
                (read if phi != psi and phi in down[psi] else rest).append((phi, t))
    cols: dict[str, dict[str, dict[int, int]]] = {}  # the term tables of pcols
    pcols: dict[str, dict[str, LaurentPoly]] = {}
    tp1: list[dict[str, list]] = [{} for _ in b.simples]
    polys: dict[tuple, LaurentPoly] = {}  # sorted terms -> the one object
    for i, gamma in enumerate(order):
        descent = _descent(params[gamma])
        if descent is None:
            col = _fallback(b, gamma, down[gamma], reads)
        else:
            s, x = descent
            y = _tp1_col(b, s, x, cols, tp1[s])
            col = _recursed(b, gamma, s, x, {phi: dict(t) for phi, t in y.items()}
                            if check else y, order[:i], down[gamma], cols)
            if check:
                _replay(b, gamma, y, col, order[:i], down[gamma], cols)
        cols[gamma] = col
        if col:
            pcols[gamma] = pcol = {}
        for phi, t in col.items():
            key = tuple(sorted(t.items()))
            poly = polys.get(key)
            if poly is None:
                poly = polys[key] = LaurentPoly._trusted(t)
            else:
                col[phi] = poly._t  # frees t: later columns read the shared table
            pcol[phi] = poly
    return PMatrix(order=order, cols=pcols)


def _dual_map(b: BlockData, order: tuple[str, ...]) -> dict[str, str] | None:
    """phi of `multiplicities`, label -> label, or None when the class does
    not qualify: a status that is not complex (the scan stops at the
    first), not exactly one label without a descent (g) or without an
    ascent (t), or a search from phi(g) = t along phi(s x) = s phi(x) that
    breaks one of its conditions."""
    params = b.params
    asc, desc = SimpleStatus.COMPLEX_ASCENT, SimpleStatus.COMPLEX_DESCENT
    bottom, top = [], []
    for x in order:
        status = params[x].status
        for st in status:
            if st is not asc and st is not desc:
                return None
        if desc not in status:
            bottom.append(x)
        if asc not in status:
            top.append(x)
    if len(bottom) != 1 or len(top) != 1:
        return None
    lens = [params[x].length for x in order]
    total = min(lens) + max(lens)
    members = set(order)
    phi = {bottom[0]: top[0]}
    queue = [bottom[0]]
    for x in queue:  # grows as it runs: breadth-first from g
        p, q = params[x], params[phi[x]]
        if p.length + q.length != total:
            return None
        for s, st in enumerate(p.status):
            if q.status[s] is st:
                return None
            y, z = p.cross[s], q.cross[s]
            known = phi.get(y)
            if known is None:
                if y not in members or z not in members:
                    return None
                phi[y] = z
                queue.append(y)
            elif known != z:
                return None
    if len(phi) != len(order) or len(set(phi.values())) != len(order):
        return None
    return phi


def _back_substitution(rows: list[dict[int, int]]) -> list[dict[int, int]]:
    """The rows of m = M^(-1), for the off-diagonal nonzero entries of
    each row of an upper unitriangular M: row i of m is e_i - sum over
    k > i of M[i][k] row k of m."""
    inv: list[dict[int, int]] = [{} for _ in rows]
    for i in range(len(rows) - 1, -1, -1):
        acc = {i: 1}
        for k, c in rows[i].items():
            for j, x in inv[k].items():
                acc[j] = acc.get(j, 0) - c * x
        inv[i] = {j: x for j, x in acc.items() if x}
    return inv


# the signed array typecodes, narrowest first, each with 2^(bits - 1)
_TYPECODES = [(tc, 1 << 8 * array(tc).itemsize - 1) for tc in "bhiq"]


def _typecode(lo: int, hi: int) -> str | None:
    """The narrowest that holds every int from lo to hi, if any."""
    return next((tc for tc, half in _TYPECODES if -half <= lo and hi < half), None)


def _zeros(n: int, lo: int, hi: int) -> list:
    """n rows of n zeros with 1 on the diagonal, as arrays of
    `_typecode(lo, hi)`, or as lists if there is none."""
    tc = _typecode(lo, hi)
    zero = array(tc, [0]) if tc else [0]
    rows = [zero * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _frozen(rows: list) -> tuple:
    return tuple(row if type(row) is array else tuple(row) for row in rows)


def multiplicities(b: BlockData, p: PMatrix) -> MultMatrices:
    """M, the P entries at u = 1 signed by the length difference, and
    its inverse m.  M must be upper unitriangular in the order of p, or
    MultiplicityError names its first entry below the diagonal.

    Inversion on self-dual classes.  Let every status of the class be
    complex, g its one label without a descent and t its one label
    without an ascent, and let phi (`_dual_map`) be found by breadth-first
    search from phi(g) = t along phi(s x) = s phi(x), s x the cross
    target.  When phi is a bijection with
    l(phi x) - l_min = l_max - l(x) that swaps ascent and descent at
    every label and simple, it is an isomorphism of the class onto its
    Vogan dual, the block with the same labels and cross action, the
    lengths reversed and every ascent and descent exchanged.  (phi o phi
    fixes g, since phi(t) is the one label with no descent, and commutes
    with the cross action, so it is the identity.)  The T_s rows of the
    dual are those of the class through phi, so it has the same R, P and
    M through phi, and Vogan's character-multiplicity duality (Duke
    Math. J. 49 (1982)), m[x][y] = (-1)^(l y - l x) M_dual[y][x], reads
    m off M:

        m[x][y] = (-1)^(l y - l x) M[phi y][phi x] = P(phi y, phi x)(1).

    On a Weyl group phi is w -> w w0 and this is the Kazhdan-Lusztig
    inversion formula (Invent. Math. 53 (1979), section 3).  A class
    that fails these conditions, every class with a real or imaginary
    status among them, is inverted by back-substitution
    (`_back_substitution`), which `tests/reference_klv.back_substitution`
    copies as the oracle of both routes.  M is filled from P's columns
    into arrays of the narrowest typecode (`_typecode`), widened when an
    entry does not fit, and m from the values it reads."""
    order = p.order
    n = len(order)
    index = {x: i for i, x in enumerate(order)}
    odd = [b.params[x].length % 2 for x in order]
    values: dict[int, int] = {}  # id of a polynomial -> its value at u = 1
    dual = _dual_map(b, order)
    # the sparse rows of M, for the back-substitution, when it is needed
    rows: list[dict[int, int]] = [{} for _ in range(n)] if dual is None else []
    lower = []
    M = _zeros(n, 0, 1)
    for j, gamma in enumerate(order):
        for phi, poly in p.cols.get(gamma, {}).items():
            i = index.get(phi)
            if i is None or i == j:
                continue
            val = values.get(id(poly))
            if val is None:
                val = values[id(poly)] = poly.eval_at_one()
            if not val:
                continue
            if odd[i] != odd[j]:
                val = -val
            if i > j:
                lower.append((i, j))
            if rows:
                rows[i][j] = val
            try:
                M[i][j] = val
            except OverflowError:  # widen M to the narrowest typecode for val too
                half = 1 << 8 * M[0].itemsize - 1
                tc = _typecode(min(val, -half), max(val, half - 1))
                M = [array(tc, row) if tc else list(row) for row in M]
                M[i][j] = val
    if lower:
        i, j = min(lower)
        raise MultiplicityError(
            f"M not unitriangular at {(order[i], order[j])!r}")
    if dual is None:
        inv = _back_substitution(rows)
        del rows
        m = _zeros(n, min(min(row.values()) for row in inv),
                   max(max(row.values()) for row in inv)) if n else []
        for row, r in zip(m, inv):
            for j, x in r.items():
                row[j] = x
        return MultMatrices(order=order, M=_frozen(M), m=_frozen(m))
    # m[x][y] = P(phi y, phi x)(1): row x of m is column phi(x) of P, each
    # entry at phi of it put at phi(phi); phi o phi is the identity
    f = [index[dual[x]] for x in order]
    m = _zeros(n, min(values.values(), default=1), max(values.values(), default=1))
    for i, x in enumerate(order):
        row = m[i]
        for phi, poly in p.cols.get(dual[x], {}).items():
            j = index.get(phi)
            if j is not None and f[j] != i:
                row[f[j]] = values[id(poly)]
    return MultMatrices(order=order, M=_frozen(M), m=_frozen(m))


# ---------------------------------------------------------------------------
# One solve per class

@dataclass(frozen=True)
class BlockKLV:
    """Everything the KLV pipeline derives for one class: its order, R
    (which holds the down-sets), P, and the multiplicity matrices M and
    m.  `verified` is `verify_duality`'s answer when the solve was
    checked, else None."""
    order: tuple[str, ...]
    r: RMatrix
    p: PMatrix
    M: tuple[array | tuple[int, ...], ...]
    m: tuple[array | tuple[int, ...], ...]
    verified: bool | None


def solve_block(b: BlockData, block: list[str], check: bool = False) -> BlockKLV:
    """R, P, M and m of one class.  With check, `verify_duality` also
    certifies R, on all of D packed, and `compute_P` replays the descent
    identity on every recursed column.  Replay, certified intertwining and
    induction along the order make each such column self-dual, so it is
    C_gamma (see `compute_P`)."""
    r = compute_duality(b, block)
    verified = verify_duality(b, block, r) if check else None
    p = compute_P(b, block, r, check)
    mm = multiplicities(b, p)
    return BlockKLV(order=r.order, r=r, p=p, M=mm.M, m=mm.m, verified=verified)
