"""Combinatorial block data: parameters with per-simple statuses,
cross-actions, Cayley links and lengths, plus validators and generators.

A block file is JSON with fields `simples` (names), `braid` (symmetric
matrix of pairwise orders, 1 on the diagonal), `infchar_tag`, and
`params` (records label / length / cartan_class / status / cross /
cayley).  All axioms are machine-checked by `validate_block`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .coxeter import CoxeterGroup

__all__ = [
    "SimpleStatus", "Parameter", "BlockData", "Violation",
    "validate_block", "validate_block_doc", "generate_complex_block",
    "builtin_sl2r_block", "builtin_nci2_block", "product_block",
    "is_minimal", "block_from_json", "block_to_json", "BlockFormatError",
]


class SimpleStatus(Enum):
    COMPLEX_ASCENT = "ComplexAscent"
    COMPLEX_DESCENT = "ComplexDescent"
    COMPACT_IMAGINARY = "CompactImaginary"
    NCI1 = "NoncompactImaginaryI"
    NCI2 = "NoncompactImaginaryII"
    RP1 = "RealParityI"
    RP2 = "RealParityII"
    REAL_NONPARITY = "RealNonparity"


# Statuses that carry a Cayley link.
_CAYLEY_STATUSES = {
    SimpleStatus.NCI1, SimpleStatus.NCI2, SimpleStatus.RP1, SimpleStatus.RP2,
}
# Statuses counting as "going down" at gamma.
DESCENT_STATUSES = {
    SimpleStatus.COMPLEX_DESCENT, SimpleStatus.RP1, SimpleStatus.RP2,
}


@dataclass(frozen=True)
class Parameter:
    label: str
    length: int
    cartan_class: str
    status: tuple[SimpleStatus, ...]
    cross: tuple[str, ...]
    cayley: tuple[frozenset | None, ...]


@dataclass(frozen=True)
class BlockData:
    simples: tuple[str, ...]
    braid: tuple[tuple[int, ...], ...]
    infchar_tag: str
    params: dict[str, Parameter]
    # Tables derived from the fields above, built on first use and kept
    # with the block (the T_s action of `hecke`); not part of its value.
    derived: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def param(self, label: str) -> Parameter:
        try:
            return self.params[label]
        except KeyError:
            raise ValueError(f"unknown label: {label}") from None

    def sorted_labels(self) -> list[str]:
        """Deterministic processing order: by (length, label)."""
        return sorted(self.params, key=lambda l: (self.params[l].length, l))

    def braid_order(self, s: int, t: int) -> int:
        return self.braid[s][t]


@dataclass(frozen=True)
class Violation:
    axiom: str
    label: str | None
    simple: int | None
    message: str

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "label": self.label,
            "simple": self.simple,
            "message": self.message,
        }


def _v(out: list, axiom: str, label, simple, message: str) -> None:
    out.append(Violation(axiom, label, simple, message))


def validate_block(b: BlockData) -> list[Violation]:
    """Check every block axiom; an empty list means the block is valid.

    Lemma: a valid block satisfies the quadratic relation
    (T_s - u)(T_s + 1) = 0 at every simple s, so `hecke.check_quadratic`
    cannot fail after it.  The checks of each status (the cross
    involution, the partner statuses, the Cayley set sizes and the links
    back) make each orbit of s, under cross and the Cayley links, one of
    five shapes, and T_s (`hecke._T_row`) keeps the span of each:
    - a complex pair x, y = s x, ascent and descent: T x = y,
      T y = u x + (u - 1) y;
    - a compact imaginary x, with T x = u x;
    - a real nonparity x, with T x = -x;
    - an NCI1 pair a, b = s a over its RP1 label c: T a = b + c,
      T b = a + c, T c = (u - 2) c + (u - 1)(a + b);
    - an NCI2 label d under its RP2 pair g, h = s g: T d = d + g + h,
      T g = (u - 1)(g + d) - h, T h = (u - 1)(h + d) - g.
    On each, T^2 = (u - 1) T + u by expanding T^2 once, e.g.
    T^2 a = T b + T c = u a + (u - 1)(b + c) and
    T^2 d = T d + T g + T h = (2u - 1) d + (u - 1)(g + h)."""
    out: list[Violation] = []
    n = len(b.simples)
    _check_braid_matrix(b.braid, n, out)

    for label, p in sorted(b.params.items()):
        if p.label != label:
            _v(out, "AX_STRUCTURE", label, None, "key does not match label")
        if p.length < 0:
            _v(out, "AX_STRUCTURE", label, None, "negative length")
        if not (len(p.status) == len(p.cross) == len(p.cayley) == n):
            _v(out, "AX_STRUCTURE", label, None,
               "status/cross/cayley arrays must match the simple count")
            return out

    # Label closure first: deeper checks assume all targets resolve.
    for label, p in sorted(b.params.items()):
        for s in range(n):
            if p.cross[s] not in b.params:
                _v(out, "AX_UNKNOWN_LABEL", label, s,
                   f"cross target {p.cross[s]!r} is not in the block")
            for t in p.cayley[s] or ():
                if t not in b.params:
                    _v(out, "AX_UNKNOWN_LABEL", label, s,
                       f"cayley target {t!r} is not in the block")
    if any(v.axiom == "AX_UNKNOWN_LABEL" for v in out):
        return out

    for label, p in sorted(b.params.items()):
        for s in range(n):
            _check_simple(b, p, s, out)
    return out


def _check_braid_matrix(braid, n: int, out: list) -> None:
    if len(braid) != n or any(len(row) != n for row in braid):
        _v(out, "AX_STRUCTURE", None, None, "braid matrix shape mismatch")
        return
    for i in range(n):
        if braid[i][i] != 1:
            _v(out, "AX_STRUCTURE", None, i, "braid diagonal must be 1")
        for j in range(i + 1, n):
            if braid[i][j] != braid[j][i]:
                _v(out, "AX_STRUCTURE", None, i, "braid matrix not symmetric")
            if braid[i][j] not in (2, 3, 4, 6):
                _v(out, "AX_STRUCTURE", None, i,
                   f"unsupported braid order {braid[i][j]}")


def _check_simple(b: BlockData, p: Parameter, s: int, out: list) -> None:
    st = p.status[s]
    xg = b.params[p.cross[s]]
    label = p.label

    if b.params[xg.cross[s]].label != label:
        _v(out, "AX_CROSS_INVOLUTION", label, s, "cross is not an involution")
        return

    if (p.cayley[s] is not None) != (st in _CAYLEY_STATUSES):
        _v(out, "AX_CAYLEY_DOMAIN", label, s,
           "cayley must be present exactly on parity-real and "
           "noncompact-imaginary simples")
        return

    if st is SimpleStatus.COMPLEX_ASCENT:
        if xg.label == label or xg.status[s] is not SimpleStatus.COMPLEX_DESCENT:
            _v(out, "AX_COMPLEX_PAIR", label, s,
               "complex ascent must cross to a distinct complex descent")
        elif xg.length != p.length + 1:
            _v(out, "AX_ARROW_LENGTH", label, s, "arrow length must drop by 1")
    elif st is SimpleStatus.COMPLEX_DESCENT:
        if xg.label == label or xg.status[s] is not SimpleStatus.COMPLEX_ASCENT:
            _v(out, "AX_COMPLEX_PAIR", label, s,
               "complex descent must cross to a distinct complex ascent")
        elif xg.length != p.length - 1:
            _v(out, "AX_ARROW_LENGTH", label, s, "arrow length must drop by 1")
    elif st in (SimpleStatus.COMPACT_IMAGINARY, SimpleStatus.REAL_NONPARITY):
        if xg.label != label:
            _v(out, "AX_FIXED_NO_CAYLEY", label, s,
               "compact-imaginary and nonparity simples must be cross-fixed")
    elif st is SimpleStatus.RP1:
        _check_rp1(b, p, s, out)
    elif st is SimpleStatus.RP2:
        _check_rp2(b, p, s, out)
    elif st is SimpleStatus.NCI1:
        _check_nci1(b, p, s, out)
    elif st is SimpleStatus.NCI2:
        _check_nci2(b, p, s, out)


def _check_rp1(b: BlockData, p: Parameter, s: int, out: list) -> None:
    label, cay = p.label, p.cayley[s]
    if p.cross[s] != label:
        _v(out, "AX_PARITY1", label, s, "type-I parity simple must be cross-fixed")
        return
    if len(cay) != 2:
        _v(out, "AX_PARITY1", label, s, "type-I Cayley set must have 2 elements")
        return
    lo1, lo2 = sorted(cay)
    if b.params[lo1].cross[s] != lo2:
        _v(out, "AX_PARITY1", label, s,
           "the two Cayley targets must be exchanged by cross")
    for t in (lo1, lo2):
        q = b.params[t]
        if q.status[s] is not SimpleStatus.NCI1 or q.cayley[s] != frozenset({label}):
            _v(out, "AX_PARITY1", label, s,
               f"Cayley target {t!r} must be type-I noncompact imaginary "
               "with a singleton link back")
        elif q.length != p.length - 1:
            _v(out, "AX_ARROW_LENGTH", label, s, "arrow length must drop by 1")


def _check_rp2(b: BlockData, p: Parameter, s: int, out: list) -> None:
    label, cay, xg = p.label, p.cayley[s], b.params[p.cross[s]]
    if xg.label == label:
        _v(out, "AX_PARITY2", label, s, "type-II parity simple must not be cross-fixed")
        return
    if len(cay) != 1:
        _v(out, "AX_PARITY2", label, s, "type-II Cayley set must be a singleton")
        return
    if xg.status[s] is not SimpleStatus.RP2 or xg.cayley[s] != cay:
        _v(out, "AX_PARITY2", label, s,
           "cross partner must be type-II parity with the same Cayley target")
        return
    (lo,) = cay
    q = b.params[lo]
    if q.status[s] is not SimpleStatus.NCI2 or q.cayley[s] != frozenset({label, xg.label}):
        _v(out, "AX_PARITY2", label, s,
           f"Cayley target {lo!r} must be type-II noncompact imaginary "
           "linking back to the cross pair")
    elif q.length != p.length - 1:
        _v(out, "AX_ARROW_LENGTH", label, s, "arrow length must drop by 1")


def _check_nci1(b: BlockData, p: Parameter, s: int, out: list) -> None:
    label, cay, xg = p.label, p.cayley[s], b.params[p.cross[s]]
    if len(cay) != 1:
        _v(out, "AX_NCI1", label, s, "type-I imaginary Cayley set must be a singleton")
        return
    (up,) = cay
    q = b.params[up]
    if q.status[s] is not SimpleStatus.RP1 or q.cayley[s] != frozenset({label, xg.label}) \
            or xg.label == label:
        _v(out, "AX_NCI1", label, s,
           f"Cayley target {up!r} must be type-I parity-real over the cross pair")
    elif q.length != p.length + 1:
        _v(out, "AX_ARROW_LENGTH", label, s, "arrow length must drop by 1")


def _check_nci2(b: BlockData, p: Parameter, s: int, out: list) -> None:
    label, cay = p.label, p.cayley[s]
    if p.cross[s] != label:
        _v(out, "AX_NCI2", label, s, "type-II imaginary simple must be cross-fixed")
        return
    if len(cay) != 2:
        _v(out, "AX_NCI2", label, s, "type-II imaginary Cayley set must have 2 elements")
        return
    up1, up2 = sorted(cay)
    if b.params[up1].cross[s] != up2:
        _v(out, "AX_NCI2", label, s,
           "the two Cayley targets must be exchanged by cross")
    for t in (up1, up2):
        q = b.params[t]
        if q.status[s] is not SimpleStatus.RP2 or q.cayley[s] != frozenset({label}):
            _v(out, "AX_NCI2", label, s,
               f"Cayley target {t!r} must be type-II parity-real linking back")
        elif q.length != p.length + 1:
            _v(out, "AX_ARROW_LENGTH", label, s, "arrow length must drop by 1")


def is_minimal(b: BlockData, label: str) -> bool:
    """No way down at this parameter: std and irr coincide exactly here."""
    p = b.param(label)
    return all(st not in DESCENT_STATUSES for st in p.status)


# ---------------------------------------------------------------------------
# Generators

def generate_complex_block(names, braid) -> BlockData:
    """Block of a complex group: parameters are the Weyl elements, every
    simple is complex, cross is left multiplication.  A label is the
    reduced word of its element, its simples' names joined, and `e` the
    identity, so the names must be nonempty, none may be `e` and none a
    prefix of another (or equal to it): else two elements could share a
    label, and ValueError names the offending simples."""
    names = tuple(names)
    bad = {x for x in names if x in ("", "e")}
    for i, x in enumerate(names):
        for j, y in enumerate(names):
            if x and i != j and y.startswith(x):
                bad |= {x, y}
    if bad:
        raise ValueError(
            "simple names must be nonempty, not 'e' and none a prefix of "
            f"another: {', '.join(map(repr, sorted(bad)))}")
    braid = tuple(tuple(row) for row in braid)
    w = CoxeterGroup(names, braid)
    labels = {g: w.label(g) for g in w.elements}
    params = {}
    for g in w.elements:
        status, cross = [], []
        for i in range(len(names)):
            sg = w.left_mul_gen(i, g)
            up = w.length[sg] > w.length[g]
            status.append(SimpleStatus.COMPLEX_ASCENT if up
                          else SimpleStatus.COMPLEX_DESCENT)
            cross.append(labels[sg])
        params[labels[g]] = Parameter(
            label=labels[g],
            length=w.length[g],
            cartan_class="complex",
            status=tuple(status),
            cross=tuple(cross),
            cayley=(None,) * len(names),
        )
    tag = "complex:" + "x".join(names)
    return BlockData(names, braid, tag, params)


def builtin_sl2r_block() -> BlockData:
    """Three-element block {D+, D-, P}: two discrete-series parameters
    below one principal-series parameter with a type-I parity link."""
    params = {
        "D+": Parameter("D+", 0, "compact", (SimpleStatus.NCI1,),
                        ("D-",), (frozenset({"P"}),)),
        "D-": Parameter("D-", 0, "compact", (SimpleStatus.NCI1,),
                        ("D+",), (frozenset({"P"}),)),
        "P": Parameter("P", 1, "split", (SimpleStatus.RP1,),
                       ("P",), (frozenset({"D+", "D-"}),)),
    }
    return BlockData(("s",), ((1,),), "sl2r", params)


def builtin_nci2_block() -> BlockData:
    """Three-element block {D, P1, P2} exercising the type-II statuses:
    one parameter below a cross-swapped pair of parity-real parameters."""
    params = {
        "D": Parameter("D", 0, "fund", (SimpleStatus.NCI2,),
                       ("D",), (frozenset({"P1", "P2"}),)),
        "P1": Parameter("P1", 1, "split", (SimpleStatus.RP2,),
                        ("P2",), (frozenset({"D"}),)),
        "P2": Parameter("P2", 1, "split", (SimpleStatus.RP2,),
                        ("P1",), (frozenset({"D"}),)),
    }
    return BlockData(("s",), ((1,),), "nci2", params)


def product_block(a: BlockData, b: BlockData) -> BlockData:
    """Componentwise product: parameters are pairs, lengths add."""
    if set(a.simples) & set(b.simples):
        raise ValueError("simple-set collision")
    na, nb = len(a.simples), len(b.simples)
    simples = a.simples + b.simples
    braid = tuple(
        tuple(row) + (2,) * nb for row in a.braid
    ) + tuple(
        (2,) * na + tuple(row) for row in b.braid
    )

    def pair_label(la: str, lb: str) -> str:
        return f"({la},{lb})"

    params = {}
    for la, pa in a.params.items():
        for lb, pb in b.params.items():
            cross = tuple(pair_label(x, lb) for x in pa.cross) + \
                    tuple(pair_label(la, y) for y in pb.cross)
            cayley = tuple(
                frozenset(pair_label(x, lb) for x in c) if c is not None else None
                for c in pa.cayley
            ) + tuple(
                frozenset(pair_label(la, y) for y in c) if c is not None else None
                for c in pb.cayley
            )
            lab = pair_label(la, lb)
            params[lab] = Parameter(
                label=lab,
                length=pa.length + pb.length,
                cartan_class=f"({pa.cartan_class},{pb.cartan_class})",
                status=pa.status + pb.status,
                cross=cross,
                cayley=cayley,
            )
    tag = f"({a.infchar_tag})x({b.infchar_tag})"
    return BlockData(simples, braid, tag, params)


# ---------------------------------------------------------------------------
# JSON file format

_STATUS_BY_NAME = {st.value: st for st in SimpleStatus}


class BlockFormatError(ValueError):
    pass


def _list(x, what: str) -> list:
    if type(x) is not list:
        raise BlockFormatError(f"{what} is not a list")
    return x


def _str(x, what: str) -> str:
    if type(x) is not str:
        raise BlockFormatError(f"{what} is not a string: {x!r}")
    return x


def block_from_json(doc: dict) -> BlockData:
    try:
        simples = tuple(_str(s, f"simples entry {i}")
                        for i, s in enumerate(_list(doc["simples"], "simples")))
        braid = tuple(tuple(row) for row in doc["braid"])
        for i, row in enumerate(braid):
            for j, x in enumerate(row):
                if type(x) is not int:
                    raise BlockFormatError(
                        f"braid entry at row {i}, column {j} is not an integer")
        tag = str(doc.get("infchar_tag", ""))
        params = {}
        for rec in _list(doc["params"], "params"):
            label = _str(rec["label"], "label")
            if "|" in label:  # the klv report keys R and P entries as x|y
                raise BlockFormatError(f"label {label!r} contains '|'")
            if label in params:
                raise BlockFormatError(f"duplicate label {label!r}")
            if type(rec["length"]) is not int:
                raise BlockFormatError(f"length of {label!r} is not an integer")
            status, cross, cayley = (_list(rec[key], f"{key} of {label!r}")
                                     for key in ("status", "cross", "cayley"))
            params[label] = Parameter(
                label=label,
                length=rec["length"],
                cartan_class=str(rec.get("cartan_class", "")),
                status=tuple(_STATUS_BY_NAME[s] for s in status),
                cross=tuple(_str(x, f"cross entry {s} of {label!r}")
                            for s, x in enumerate(cross)),
                cayley=tuple(
                    None if c is None else frozenset(
                        _str(x, f"cayley target in entry {s} of {label!r}")
                        for x in _list(c, f"cayley entry {s} of {label!r}"))
                    for s, c in enumerate(cayley)),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise BlockFormatError(f"malformed block file: {exc}") from exc
    return BlockData(simples, braid, tag, params)


def block_to_json(b: BlockData) -> dict:
    return {
        "simples": list(b.simples),
        "braid": [list(row) for row in b.braid],
        "infchar_tag": b.infchar_tag,
        "params": [
            {
                "label": p.label,
                "length": p.length,
                "cartan_class": p.cartan_class,
                "status": [st.value for st in p.status],
                "cross": list(p.cross),
                "cayley": [sorted(c) if c is not None else None for c in p.cayley],
            }
            for _, p in sorted(b.params.items())
        ],
    }


def validate_block_doc(doc: dict) -> list[Violation]:
    """Validate a raw JSON document; format problems become AX_STRUCTURE."""
    try:
        b = block_from_json(doc)
    except BlockFormatError as exc:
        return [Violation("AX_STRUCTURE", None, None, str(exc))]
    return validate_block(b)
