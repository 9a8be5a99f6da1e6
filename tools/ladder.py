"""Stage times of the KLV pipeline on one large block, in this process.

    python tools/ladder.py --block F4 [--check] [--src DIR] [--mode cli]

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

--mode cli runs the whole `klv` command instead, end to end: it writes
the block to block.json in a temporary directory, runs
`klvkit.cli.run(["klv", "block.json"])` there (with --check if given)
into a sink that counts and hashes the report, and prints the exit
code, the report's bytes and sha256, the wall time of the run and the
peak RSS of the process.  The path is relative and fixed, so two
checkouts that write the same report print the same sha256.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import platform
import resource
import sys
import tempfile
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


class _Sink:
    """A stdout that keeps the byte count and the sha256 of the text."""

    def __init__(self):
        self.bytes, self.sha256 = 0, hashlib.sha256()

    def write(self, text: str) -> int:
        data = text.encode()
        self.bytes += len(data)
        self.sha256.update(data)
        return len(text)

    def flush(self) -> None:
        pass


def _run_cli(cli, blockdata, b, check: bool) -> dict:
    """`klv` on b, written to block.json in a temporary directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("block.json", "w", encoding="utf-8") as fh:
                json.dump(blockdata.block_to_json(b), fh)
            sink = _Sink()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink):
                code = cli.run(["klv", "block.json"] + ["--check"] * check)
            wall = time.perf_counter() - t0
        finally:
            os.chdir(cwd)
    return {"exit": code, "bytes": sink.bytes, "sha256": sink.sha256.hexdigest(),
            "wall_s": round(wall, 4)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--block", required=True, choices=BLOCKS)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--src", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    ap.add_argument("--mode", choices=("stages", "cli"), default="stages")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from klvkit import blockdata, cli, klv

    b = _build(blockdata, args.block)
    if args.mode == "cli":
        out = _run_cli(cli, blockdata, b, args.check)
        print(json.dumps({
            "block": args.block, "mode": "cli", "check": args.check,
            "params": len(b.params), "python": platform.python_version(),
            **out, "peak_rss_mb": round(_rss_mb(), 1)}))
        return 0
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
