"""Digests of the reports of a klvkit checkout, to show that two
checkouts print the same bytes.

    python tools/report_digests.py ROOT > digests.json

imports klvkit from ROOT/src and the benchmark inputs from
ROOT/bench/inputs.py, then runs through `klvkit.cli.run`, in this
process, every distinct operation of the four benchmark workloads at
seeds 1 and 2, one fixed argv per subcommand, and `generic` on A1^14
and on root data that each break one axiom.  It prints JSON
{op: [exit code, sha256 of stdout, stderr]}.  The inputs are written
under a temporary directory and named by relative paths, so that the
reports, which hold the input paths, do not depend on where it is.
Run it on two checkouts and compare the outputs, e.g. with `cmp`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

SEEDS = (1, 2)

# split sl2(R), its Levi the torus: a datum of rank one
_SL2 = {"rank": 1, "roots": [[2], [-2]], "coroots": [[1], [-1]],
        "theta": [[-1]], "levi": {"simple_base": [[2]], "levi_simples": [],
                                 "a_coordinates": [0]}}
_IDENTITY = {"pairs": [["D+", "D+"], ["D-", "D-"], ["P", "P"]], "length_shift": 0}
_A1xA1 = {"rank": 2, "roots": [[2, 0], [0, 2], [-2, 0], [0, -2]],
          "coroots": [[1, 0], [0, 1], [-1, 0], [0, -1]],
          "theta": [[-1, 0], [0, -1]],
          "levi": {"simple_base": [[2, 0], [0, 2]], "levi_simples": [0],
                   "a_coordinates": [1]}}
_A2 = {"rank": 2, "roots": [[1, 0], [0, 1], [1, 1], [-1, 0], [0, -1], [-1, -1]],
       "coroots": [[2, -1], [-1, 2], [1, 1], [-2, 1], [1, -2], [-1, -1]],
       "theta": [[1, 0], [0, 1]],
       "levi": {"simple_base": [[1, 0], [0, 1]], "levi_simples": [0],
                "a_coordinates": []}}
# data that each break one axiom, as in test_validate_names_each_violation:
# generic exits 2 and names the first violation
_BROKEN = {
    "duplicate": {**_SL2, "roots": [[2], [-2], [2]], "coroots": [[1], [-1], [1]]},
    "negation": {**_SL2, "roots": [[2]], "coroots": [[1]], "theta": [[1]]},
    "theta-squared": {**_A1xA1, "theta": [[0, -1], [1, 0]]},
    "theta-permutes": {**_A1xA1, "theta": [[1, 1], [0, -1]]},
    "reflection": {**_A2, "coroots": [[2, 0], [0, 2], [1, 1], [-2, 0], [0, -2],
                                      [-1, -1]]},
}
_UNITS = [[int(i == j) for j in range(14)] for i in range(14)]
# A1^14, whose 2^14 Weyl elements exceed the enumeration cap
_A1x14 = {"rank": 14,
          "roots": [[s * x for x in e] for s in (2, -2) for e in _UNITS],
          "coroots": _UNITS + [[-x for x in e] for e in _UNITS],
          "theta": [[-x for x in e] for e in _UNITS],
          "levi": {"simple_base": [[2 * x for x in e] for e in _UNITS],
                   "levi_simples": list(range(7)), "a_coordinates": list(range(7, 14))}}
# a square that does not commute at "a", so the report holds a witness
_SQUARE = {"iota_xi": [["a", "A"]], "iota_xi_prime": [["a'", "X"]],
           "tL": [["a", "a'"]], "tG": [["A", "A'"]]}


def _fixed_argvs() -> dict[str, list[str]]:
    """One argv per subcommand and the `generic` argvs on A1^14 and on
    the broken data, on inputs written to the current directory."""
    docs = {"sl2.json": _SL2, "identity.json": _IDENTITY, "square.json": _SQUARE,
            "a1x14.json": _A1x14, **{f"{k}.json": v for k, v in _BROKEN.items()}}
    for name, doc in docs.items():
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    zeros = {k: ",".join(["0"] * v["rank"]) for k, v in _BROKEN.items()}
    return {
        **{f"generic/{k}": ["generic", f"{k}.json", "--xi-m", z, "--nu", z]
           for k, z in zeros.items()},
        "generic/A1x14": ["generic", "a1x14.json", "--xi-m", ",".join(["0"] * 14),
                          "--nu", ",".join(["0"] * 7 + ["1/2"] * 7)],
        "validate": ["validate", "builtin:nci2"],
        "blocks": ["blocks", "builtin:nci2"],
        "hecke-apply": ["hecke-apply", "builtin:sl2r", "--simple", "0", "--label", "P"],
        "klv": ["klv", "builtin:nci2", "--check"],
        "induce": ["induce", "builtin:sl2r", "builtin:sl2r", "identity.json"],
        "generic": ["generic", "sl2.json", "--xi-m", "0", "--nu", "3/4"],
        "arrangement": ["arrangement", "sl2.json", "--xi-m", "0"],
        "translate-check": ["translate-check", "sl2.json", "--xi", "1/2",
                            "--mu", "1", "--square", "square.json"],
    }


def _outcome(cli, argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue()]


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = os.path.abspath(args[0])
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    from klvkit import cli
    import inputs

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for seed in SEEDS:
                for workload, build in inputs.WORKLOADS.items():
                    workdir = f"{workload}-{seed}"
                    os.mkdir(workdir)
                    for op in build(random.Random(seed), workdir):
                        key = f"{workload}/{seed}/{op.name}"
                        if key not in digests:
                            digests[key] = _outcome(cli, op.argv)
            for name, op_argv in _fixed_argvs().items():
                digests[name] = _outcome(cli, op_argv)
        finally:
            os.chdir(cwd)
    json.dump(digests, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
