"""Times of loading and validating one root datum, in this process.

    python tools/rootload.py --datum B4 [--src DIR] [--repeat N]

builds the datum inline (B3, D4 and B4 as the `genericity` workload of
bench/inputs.py builds them, with Levis B2, D3 and B2; A1x14 as the
roots +-2e_i of rank 14, its Levi on the first seven coordinates) and
prints one JSON line: the least of N timings (default 200), in
microseconds, of `rootdatum_from_json` on the parsed document,
`RootDatum.validate`, `LeviSelection.validate`, and one `generic` run
through `cli.run` on the datum written to a temporary file, which reads
the file, loads and validates the datum and renders the verdict.
--src imports klvkit from DIR (default: the src/ next to this script),
to time another checkout with the same script.  Alternate runs on two
checkouts to compare them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import sys
import tempfile
import time

DATA = ("B3", "D4", "B4", "A1x14")


def _unit(n: int, i: int, sign: int = 1) -> list[int]:
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
    base.append(_unit(n, n - 1) if kind == "B"
                else [1 if k >= n - 2 else 0 for k in range(n)])
    return {"rank": n, "roots": roots, "coroots": coroots,
            "theta": [_unit(n, i, -1) for i in range(n)],
            "levi": {"simple_base": base, "levi_simples": list(levi_simples),
                     "a_coordinates": list(a_coords)}}


def _build(name: str) -> tuple[dict, str, str]:
    """The document, --xi-m and --nu: xi_m regular on the Levi, nu with
    denominator 5 on the a-coordinates."""
    if name == "A1x14":
        n = 14
        doc = {"rank": n,
               "roots": [_unit(n, i, 2 * s) for s in (1, -1) for i in range(n)],
               "coroots": [_unit(n, i, s) for s in (1, -1) for i in range(n)],
               "theta": [_unit(n, i, -1) for i in range(n)],
               "levi": {"simple_base": [_unit(n, i, 2) for i in range(n)],
                        "levi_simples": list(range(7)),
                        "a_coordinates": list(range(7, n))}}
        return doc, ",".join(["1/2"] * 7 + ["0"] * 7), ",".join(["0"] * 7 + ["1/5"] * 7)
    doc = {"B3": _type_b_or_d(3, "B", [1, 2], [0]),
           "D4": _type_b_or_d(4, "D", [1, 2, 3], [0]),
           "B4": _type_b_or_d(4, "B", [2, 3], [0, 1])}[name]
    acoords = doc["levi"]["a_coordinates"]
    xi_m = ["0" if i in acoords else f"{2 * i + 1}/2" for i in range(doc["rank"])]
    nu = ["1/5" if i in acoords else "0" for i in range(doc["rank"])]
    return doc, ",".join(xi_m), ",".join(nu)


def _least_us(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return round(best * 1e6, 1)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--datum", required=True, choices=DATA)
    ap.add_argument("--src", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    ap.add_argument("--repeat", type=int, default=200)
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    sys.path.insert(0, os.path.abspath(args.src))
    from klvkit import cli, rootdata

    doc, xi_m, nu = _build(args.datum)
    d, lv = rootdata.rootdatum_from_json(doc)
    if d.validate() or lv.validate(d):
        sys.exit(f"{args.datum} is not a valid root datum")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"{args.datum}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        generic = ["generic", path, "--xi-m", xi_m, "--nu", nu]

        def run_generic():
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.run(generic) != 0:
                    sys.exit(f"generic on {args.datum} failed")

        us = {"rootdatum_from_json": _least_us(
                  lambda: rootdata.rootdatum_from_json(doc), args.repeat),
              "RootDatum.validate": _least_us(d.validate, args.repeat),
              "LeviSelection.validate": _least_us(lambda: lv.validate(d), args.repeat),
              "generic": _least_us(run_generic, args.repeat)}
    print(json.dumps({"datum": args.datum, "roots": len(d.roots),
                      "repeat": args.repeat, "python": platform.python_version(),
                      "us": us}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
