"""Inputs of the four workloads, built with klvkit's own generators.

Each workload function takes a seeded `random.Random` and a directory,
writes the input files there and returns the operations of one round.
The seed changes names, labels, length shifts, grid values and file
order, never the size of the work, so every seed costs about the same.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction

from klvkit import blockdata, rootdata


@dataclass
class Op:
    name: str
    argv: list[str]
    meta: dict = field(default_factory=dict)


def _braid_a(n):
    return [[1 if i == j else 3 if abs(i - j) == 1 else 2 for j in range(n)]
            for i in range(n)]


def _braid_b(n):
    braid = _braid_a(n)
    braid[n - 2][n - 1] = braid[n - 1][n - 2] = 4
    return braid


_BRAID_D4 = [[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]]
_LETTERS = "abcdfghjkmnpqrtwxyz"


def _names(letter: str, n: int) -> list[str]:
    return [f"{letter}{i}" for i in range(1, n + 1)]


def _write(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _write_block(rng, workdir: str, name: str, b) -> str:
    if blockdata.validate_block(b):
        raise RuntimeError(f"generated block {name} is not valid")
    doc = blockdata.block_to_json(b)
    if rng is not None:
        rng.shuffle(doc["params"])
    return _write(workdir, name, doc)


def _rank_one(kind: str, simple: str):
    base = (blockdata.builtin_sl2r_block() if kind == "sl2r"
            else blockdata.builtin_nci2_block())
    return blockdata.block_from_json({**blockdata.block_to_json(base),
                                      "simples": [simple]})


# ---------------------------------------------------------------------------

# The operation in the middle of a round by time runs several times, so
# that op_p50_s is a median of several samples in every run rather than
# one or two.  The copies alternate with the other operations: the host
# drifts in speed over seconds, and samples spread over the whole round
# follow that drift as wall_s does, where back-to-back copies would see
# one stretch of it.
MIDDLE_REPEATS = 5


def _spread(middle: Op, others: list[Op], repeats: int = MIDDLE_REPEATS) -> list[Op]:
    """`repeats` copies of `middle`, the first len(others) of them each
    followed by one of `others` (there are fewer others than copies)."""
    ops = []
    for i in range(repeats):
        ops += [middle] + others[i:i + 1]
    return ops


def klv_ladder(rng, workdir):
    """klv --check on the complex blocks A3, B3, A4 (five times), D4."""
    ops = {}
    for kind, braid in (("A3", _braid_a(3)), ("B3", _braid_b(3)),
                        ("A4", _braid_a(4)), ("D4", _BRAID_D4)):
        names = _names(rng.choice(_LETTERS), len(braid))
        b = blockdata.generate_complex_block(names, braid)
        path = _write_block(rng, workdir, f"{kind}.json", b)
        ops[kind] = Op(kind, ["klv", path, "--check"], {"names": names, "braid": braid})
    return _spread(ops["A4"], [ops["A3"], ops["B3"], ops["D4"]])


def _factor_block(spec):
    if spec[0] == "complex":
        return blockdata.generate_complex_block(spec[1], spec[2])
    return _rank_one(spec[0], spec[1])


# Products that duality cannot handle today (two type-II factors); their
# simple names are fixed so that these inputs do not depend on the seed.
_FIXED_FAILING = {
    "nci2xnci2": [("nci2", "n"), ("nci2", "t")],
    "nci2xsl2rxnci2": [("nci2", "n"), ("sl2r", "s"), ("nci2", "t")],
}


def mixed_products(rng, workdir):
    """klv on wide products of sl2r, nci2 and small complex blocks;
    sl2r x nci2 x A3 runs five times."""
    def plan(*kinds):
        letters = rng.sample(_LETTERS, len(kinds))
        return [(k, f"{c}1") if k in ("sl2r", "nci2")
                else ("complex", _names(c, len(k)), k)
                for k, c in zip(kinds, letters)]

    plans = {
        "nci2xsl2r4": plan("nci2", "sl2r", "sl2r", "sl2r", "sl2r"),
        "sl2rxnci2xA3": plan("sl2r", "nci2", _braid_a(3)),
        "sl2rxnci2xA3xA1": plan("sl2r", "nci2", _braid_a(3), _braid_a(1)),
    }
    ops = {}
    for name, factors in list(plans.items()) + list(_FIXED_FAILING.items()):
        b = _factor_block(factors[0])
        for spec in factors[1:]:
            b = blockdata.product_block(b, _factor_block(spec))
        path = _write_block(None if name in _FIXED_FAILING else rng,
                            workdir, f"{name}.json", b)
        ops[name] = Op(name, ["klv", path], {"factors": factors})
    return _spread(ops["sl2rxnci2xA3"],
                   [ops[n] for n in ("nci2xnci2", "sl2rxnci2xA3xA1",
                                     "nci2xsl2r4", "nci2xsl2rxnci2")])


def _relabel(doc: dict, new: dict, shift: int) -> dict:
    out = json.loads(json.dumps(doc))
    for rec in out["params"]:
        rec["label"] = new[rec["label"]]
        rec["length"] += shift
        rec["cross"] = [new[x] for x in rec["cross"]]
        rec["cayley"] = [None if c is None else sorted(new[x] for x in c)
                         for c in rec["cayley"]]
    return out


def _fresh_labels(rng, labels, prefix: str) -> dict:
    nums = list(range(len(labels)))
    rng.shuffle(nums)
    return {lab: f"{prefix}{n:03d}" for lab, n in zip(sorted(labels), nums)}


def induce_all(rng, workdir):
    """induce over every source label, through relabelling maps that
    shift lengths, plus one control map that breaks the cross-action;
    nci2 x B2 runs four times."""
    ops = []
    letters = rng.sample(_LETTERS, 3)
    names = _names(letters[0], 3)
    a3 = blockdata.generate_complex_block(names, _braid_a(3))
    a3_doc = blockdata.block_to_json(a3)
    shift, shift2 = rng.randint(1, 3), rng.randint(0, 3)
    new = _fresh_labels(rng, a3.params, "x")
    target = _relabel(a3_doc, new, shift)
    second = _relabel(a3_doc, _fresh_labels(rng, a3.params, "y"), shift2)
    target["params"] += second["params"]
    rng.shuffle(target["params"])
    if blockdata.validate_block_doc(target):
        raise RuntimeError("generated induce target is not valid")
    src = _write_block(rng, workdir, "a3_source.json", a3)
    tgt = _write(workdir, "a3_target.json", target)
    pairs = sorted(new.items())
    mp = _write(workdir, "a3_map.json", {"pairs": pairs, "length_shift": shift})
    ops.append(Op("A3->A3+A3", ["induce", src, tgt, mp], {"map": new}))

    # Control: swap the images of two labels with equal length and equal
    # statuses but different cross-actions.
    same = [(x, y) for x in sorted(a3.params) for y in sorted(a3.params)
            if x < y and a3.params[x].length == a3.params[y].length
            and a3.params[x].status == a3.params[y].status]
    x, y = rng.choice(same)
    bad = dict(new)
    bad[x], bad[y] = new[y], new[x]
    mp = _write(workdir, "a3_control.json",
                {"pairs": sorted(bad.items()), "length_shift": shift})
    ops.append(Op("A3-control", ["induce", src, tgt, mp],
                  {"map": bad, "control": True}))

    nb = blockdata.product_block(
        _rank_one("nci2", f"{letters[1]}1"),
        blockdata.generate_complex_block(_names(letters[2], 2), _braid_b(2)))
    shift = rng.randint(0, 3)
    new = _fresh_labels(rng, nb.params, "z")
    target = _relabel(blockdata.block_to_json(nb), new, shift)
    rng.shuffle(target["params"])
    src = _write_block(rng, workdir, "nb_source.json", nb)
    tgt = _write(workdir, "nb_target.json", target)
    mp = _write(workdir, "nb_map.json",
                {"pairs": sorted(new.items()), "length_shift": shift})
    # four, not MIDDLE_REPEATS, so that two rounds fit in 25 seconds
    return _spread(Op("nci2xB2->copy", ["induce", src, tgt, mp], {"map": new}),
                   ops, repeats=4)


# ---------------------------------------------------------------------------
# Genericity grid

def _unit(n, i, sign=1):
    return [sign if j == i else 0 for j in range(n)]


def _type_b_or_d(n: int, kind: str, levi_simples, a_coords) -> dict:
    roots, coroots = [], []
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    r = [0] * n
                    r[i], r[j] = si, sj
                    roots.append(r)
                    coroots.append(list(r))
        if kind == "B":
            for s in (1, -1):
                roots.append(_unit(n, i, s))
                coroots.append(_unit(n, i, 2 * s))
    base = [[1 if k == i else -1 if k == i + 1 else 0 for k in range(n)]
            for i in range(n - 1)]
    if kind == "B":
        base.append(_unit(n, n - 1))
    else:
        base.append([1 if k >= n - 2 else 0 for k in range(n)])
    return {
        "rank": n, "roots": roots, "coroots": coroots,
        "theta": [_unit(n, i, -1) for i in range(n)],
        "levi": {"simple_base": base, "levi_simples": list(levi_simples),
                 "a_coordinates": list(a_coords)},
    }


# (name, datum, Levi coordinates, a-coordinates); the Levis are B2, D3
# and B2, so the a-part has dimension 1, 1 and 2.
_DATA = (
    ("B3", _type_b_or_d(3, "B", [1, 2], [0]), [1, 2], [0]),
    ("D4", _type_b_or_d(4, "D", [1, 2, 3], [0]), [1, 2, 3], [0]),
    ("B4", _type_b_or_d(4, "B", [2, 3], [0, 1]), [2, 3], [0, 1]),
)
_PRIMES = (5, 7, 11, 13)


def _generic_value(rng, q: int) -> Fraction:
    """A rational with denominator exactly q (an odd prime)."""
    p = rng.choice([k for k in range(-3 * q, 3 * q + 1) if k % q])
    return Fraction(p, q)


def _levi_part(rng, levi, regular: bool) -> list[Fraction]:
    """Half-integral Levi coordinates with distinct nonzero absolute
    values (regular for B2 and D3), or with a repeated absolute value."""
    mags = rng.sample(range(1, 10), len(levi))
    vals = [Fraction(m * rng.choice((1, -1)), 2) for m in mags]
    if not regular:
        i, j = rng.sample(range(len(vals)), 2)
        vals[j] = vals[i] * rng.choice((1, -1))
    return vals


def _gauss(x) -> str:
    re, im = x
    if not im:
        return str(re)
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}*i"


def genericity(rng, workdir):
    """generic verdicts on B3, D4, B4 data: four points designed for
    each of Main1, Main2 and NoConclusion per datum, the three data taken
    in turn so that the D4 points, where op_p50_s falls, span the round."""
    per_datum = []
    for name, doc, levi, acoords in _DATA:
        ops = []
        per_datum.append(ops)
        d, lv = rootdata.rootdatum_from_json(doc)
        if d.validate() or lv.validate(d):
            raise RuntimeError(f"generated root datum {name} is not valid")
        path = _write(workdir, f"{name}.json", doc)
        n = doc["rank"]
        for intended in ("Main1", "Main2", "NoConclusion"):
            for k in range(4):
                xi_m = [(Fraction(0), Fraction(0))] * n
                lpart = _levi_part(rng, levi, intended == "Main1" or k % 2 == 0
                                   and intended == "NoConclusion")
                for i, v in zip(levi, lpart):
                    xi_m[i] = (v, Fraction(0))
                qs = rng.sample(_PRIMES, len(acoords))
                nu = [(Fraction(0), Fraction(0))] * n
                for i, q in zip(acoords, qs):
                    im = _generic_value(rng, rng.choice(_PRIMES)) if k == 3 else 0
                    nu[i] = (_generic_value(rng, q), Fraction(im))
                if intended == "NoConclusion":
                    # an integral pairing with a nilradical root
                    shift = Fraction(rng.randint(-2, 2))
                    a0 = acoords[0]
                    if len(acoords) > 1 and k % 2:
                        nu[acoords[1]] = (nu[a0][0] + shift, Fraction(0))
                        nu[a0] = (nu[a0][0], Fraction(0))
                    else:
                        nu[a0] = (xi_m[levi[0]][0] + shift, Fraction(0))
                argv = ["generic", path,
                        "--xi-m=" + ",".join(_gauss(x) for x in xi_m),
                        "--nu=" + ",".join(_gauss(x) for x in nu)]
                ops.append(Op(f"{name}/{intended}/{k}", argv,
                              {"datum": doc, "xi_m": xi_m, "nu": nu,
                               "intended": intended}))
    return [op for trio in zip(*per_datum) for op in trio]


WORKLOADS = {
    "klv_ladder": klv_ladder,
    "mixed_products": mixed_products,
    "induce_all": induce_all,
    "genericity": genericity,
}
