"""Digests of the reports of a klvkit checkout, to show that two
checkouts print the same bytes.

    python tools/report_digests.py ROOT > digests.json

imports klvkit from ROOT/src and the benchmark inputs from
ROOT/bench/inputs.py, then runs through `klvkit.cli.run`, in this
process, every distinct operation of the four benchmark workloads at
seeds 1 and 2, and one fixed argv per subcommand.  It prints JSON
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
# a square that does not commute at "a", so the report holds a witness
_SQUARE = {"iota_xi": [["a", "A"]], "iota_xi_prime": [["a'", "X"]],
           "tL": [["a", "a'"]], "tG": [["A", "A'"]]}


def _fixed_argvs() -> dict[str, list[str]]:
    """One argv per subcommand, on inputs written to the current
    directory."""
    for name, doc in (("sl2.json", _SL2), ("identity.json", _IDENTITY),
                      ("square.json", _SQUARE)):
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return {
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
