"""Verification of a supplied label map between two block files and the
resulting irreducibility verdict for induced parameters.

The map is given explicitly (pairs of labels plus a constant length
shift); the tool verifies that it preserves every piece of data the
multiplicity computation depends on, that its image is closed under
block equivalence, and that two independent multiplicity computations
agree through it.  Only then is "Irreducible" reported.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blockdata import BlockData
from .klv import partition_blocks, solve_block
# Not called here: bench/tracer.py wraps these names in this module.
from .klv import compute_P, compute_duality, multiplicities  # noqa: F401

__all__ = [
    "Correspondence", "check_correspondence", "check_image_union_of_blocks",
    "compare_multiplicities", "induced_verdict", "mult_by_block",
    "correspondence_from_json",
]


@dataclass(frozen=True)
class Correspondence:
    pairs: dict[str, str]
    length_shift: int


def _label_map(raw, what: str) -> dict[str, str]:
    """raw, a JSON list of [source, target] pairs of strings with no
    repeated source, as a dict; a ValueError names the field, what."""
    if type(raw) is not list or not all(
            type(p) is list and len(p) == 2 and all(type(x) is str for x in p)
            for p in raw):
        raise ValueError(f"{what} must be a list of [source, target] label lists")
    pairs = dict(raw)
    if len(pairs) != len(raw):
        raise ValueError(f"duplicate source labels in {what}")
    return pairs


def correspondence_from_json(doc: dict) -> Correspondence:
    """The map of a JSON document; a ValueError names a malformed field."""
    raw, shift = doc["pairs"], doc["length_shift"]
    pairs = _label_map(raw, "pairs")
    if type(shift) is not int:
        raise ValueError("length_shift is not an integer")
    return Correspondence(pairs=pairs, length_shift=shift)


def check_correspondence(L: BlockData, G: BlockData, c: Correspondence) -> list[str]:
    """All conditions for the map to transport multiplicity data; an
    empty list means it qualifies."""
    out: list[str] = []
    if L.simples != G.simples or L.braid != G.braid:
        out.append("simple sets or braid orders differ")
        return out
    if set(c.pairs) != set(L.params):
        missing = sorted(set(L.params) - set(c.pairs))
        extra = sorted(set(c.pairs) - set(L.params))
        if missing:
            out.append(f"map not total: missing {missing}")
        if extra:
            out.append(f"map domain has unknown labels {extra}")
        return out
    if len(set(c.pairs.values())) != len(c.pairs):
        out.append("map not injective")
    for src, tgt in sorted(c.pairs.items()):
        if tgt not in G.params:
            out.append(f"image label {tgt!r} not in target block data")
    if out:
        return out

    for src, tgt in sorted(c.pairs.items()):
        pl, pg = L.params[src], G.params[tgt]
        if pg.length != pl.length + c.length_shift:
            out.append(f"length shift not constant at {src!r}")
        for s in range(len(L.simples)):
            if pl.status[s] is not pg.status[s]:
                out.append(f"status mismatch at {src!r}, simple {s}")
                continue
            if c.pairs[pl.cross[s]] != pg.cross[s]:
                out.append(f"cross-action not intertwined at {src!r}, simple {s}")
            cl, cg = pl.cayley[s], pg.cayley[s]
            if (cl is None) != (cg is None):
                out.append(f"cayley domain mismatch at {src!r}, simple {s}")
            elif cl is not None and {c.pairs[x] for x in cl} != set(cg):
                out.append(f"cayley links not intertwined at {src!r}, simple {s}")
    return out


def check_image_union_of_blocks(G: BlockData, c: Correspondence):
    """The image must be a union of classes of the target partition.
    Returns (True, None) or (False, straddling class)."""
    image = set(c.pairs.values())
    for cls in partition_blocks(G):
        inside = [x for x in cls if x in image]
        if inside and len(inside) != len(cls):
            return False, cls
    return True, None


def mult_by_block(b: BlockData) -> dict:
    """Label -> (BlockKLV of its class, label -> index in its order),
    one KLV solve per class."""
    out = {}
    for cls in partition_blocks(b):
        res = solve_block(b, cls)
        index = {lab: i for i, lab in enumerate(res.order)}
        for lab in cls:
            out[lab] = (res, index)
    return out


def _entry(solved, row: str, col: str) -> int:
    mm, index = solved
    i, j = index.get(row), index.get(col)
    if i is None or j is None:
        return 0  # different blocks: multiplicity vanishes
    return mm.M[i][j]


def compare_multiplicities(ml: dict, mg: dict, c: Correspondence) -> bool:
    """The source and target multiplicities (as from `mult_by_block`)
    must agree through the map on every pair of source labels."""
    labels = sorted(c.pairs)
    for a in labels:
        for b_ in labels:
            if _entry(ml[a], a, b_) != _entry(mg[c.pairs[a]], c.pairs[a], c.pairs[b_]):
                return False
    return True


def _M_column(solved, col: str) -> dict:
    mm, index = solved
    j = index[col]
    return {mm.order[i]: mm.M[i][j] for i in range(len(mm.order)) if mm.M[i][j]}


def induced_verdict(L: BlockData, G: BlockData, c: Correspondence,
                    deltas: list[str]) -> list[dict]:
    """Verdict records for the induced modules of the irreducibles at
    each delta.  The map is checked and each block solved once."""
    for delta in deltas:
        if delta not in L.params:
            raise ValueError(f"unknown label: {delta}")
    if not deltas:
        return []
    shared: dict = {"correspondence_violations": check_correspondence(L, G, c)}
    ml = mg = None
    if not shared["correspondence_violations"]:
        closed, witness = check_image_union_of_blocks(G, c)
        shared["image_union_of_blocks"] = closed
        if witness is not None:
            shared["straddled_class"] = sorted(witness)
        if closed:
            ml, mg = mult_by_block(L), mult_by_block(G)
            shared["multiplicities_agree"] = compare_multiplicities(ml, mg, c)
    records = []
    for delta in deltas:
        report = {"delta": delta, **shared}
        if shared.get("multiplicities_agree"):
            report["verdict"] = "Irreducible"
            report["image"] = c.pairs[delta]
            report["source_M_column"] = _M_column(ml[delta], delta)
            report["target_M_column"] = _M_column(mg[c.pairs[delta]], c.pairs[delta])
        else:
            report["verdict"] = "NoConclusion"
            report["reason"] = "preconditions not established"
        records.append(report)
    return records
