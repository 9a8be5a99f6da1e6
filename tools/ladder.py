"""Stage times of the KLV pipeline on one large block, in this process.

    python tools/ladder.py --block F4 [--check] [--src DIR]

builds the block inline (F4 over the simples a-d and B5 over a1-a5
from their Coxeter matrices with `generate_complex_block`, sl2rxB4 as
the builtin sl2r block times B4 over b1-b4, nci2xN as the product of N
copies of the builtin nci2 block), runs the stages of `klv solve_block`
on each class
and prints one JSON line.  --check runs them as `klv --check` does: it
adds a `verify` stage (`verify_duality`, which must pass) and runs
`compute_P` with check=True.  The line holds the time of each stage
summed over the classes, the peak RSS after each stage and at the end,
and a sha256 of R (its entries in order, with their terms) that two
checkouts can compare.  Run it once per measurement, so that each
figure comes from a fresh process.  --src imports klvkit from DIR
(default: the src/ next to this script), to time another checkout with
the same script.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import sys
import time

_F4 = ((1, 3, 2, 2), (3, 1, 4, 2), (2, 4, 1, 3), (2, 2, 3, 1))
_B4 = ((1, 3, 2, 2), (3, 1, 3, 2), (2, 3, 1, 4), (2, 2, 4, 1))
_B5 = ((1, 3, 2, 2, 2), (3, 1, 3, 2, 2), (2, 3, 1, 3, 2), (2, 2, 3, 1, 4),
       (2, 2, 2, 4, 1))
BLOCKS = ("F4", "B5", "sl2rxB4", "nci2x3", "nci2x4")


def _build(blockdata, name: str):
    if name == "F4":
        return blockdata.generate_complex_block(("a", "b", "c", "d"), _F4)
    if name == "B5":
        return blockdata.generate_complex_block(("a1", "a2", "a3", "a4", "a5"), _B5)
    if name == "sl2rxB4":
        return blockdata.product_block(
            blockdata.builtin_sl2r_block(),
            blockdata.generate_complex_block(("b1", "b2", "b3", "b4"), _B4))
    n = int(name.removeprefix("nci2x"))
    factors = [blockdata.block_from_json({
        **blockdata.block_to_json(blockdata.builtin_nci2_block()), "simples": [f"n{i}"]})
        for i in range(n)]
    return functools.reduce(blockdata.product_block, factors)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--block", required=True, choices=BLOCKS)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--src", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from klvkit import blockdata, klv

    b = _build(blockdata, args.block)
    times: dict[str, float] = {}
    rss: dict[str, float] = {}
    digest = hashlib.sha256()

    def stage(name, fn, *fn_args):
        t0 = time.perf_counter()
        out = fn(*fn_args)
        times[name] = times.get(name, 0.0) + time.perf_counter() - t0
        rss[name] = _rss_mb()
        return out

    for cls in stage("partition", klv.partition_blocks, b):
        r = stage("duality", klv.compute_duality, b, cls)
        for key, poly in r.entries.items():
            digest.update(repr((key, tuple(poly.terms.items()))).encode())
        if args.check and not stage("verify", klv.verify_duality, b, cls, r):
            sys.exit(f"verify_duality failed on the class of {cls[0]!r}")
        p = stage("P", klv.compute_P, b, cls, r, args.check)
        stage("mult", klv.multiplicities, b, p)
        del r, p
    print(json.dumps({
        "block": args.block, "check": args.check, "params": len(b.params),
        "python": platform.python_version(),
        "stages_s": {k: round(v, 4) for k, v in times.items()},
        "rss_mb_after": {k: round(v, 1) for k, v in rss.items()},
        "peak_rss_mb": round(_rss_mb(), 1), "r_sha256": digest.hexdigest(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
