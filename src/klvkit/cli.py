"""Command-line front end: file loading, report assembly, exit codes.

Exit codes: 0 success / empty violations, 1 violations or a verdict
falling short of --require-verdict, 2 malformed input or usage error.
All reports are deterministic JSON (sorted keys, LF line endings).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from fractions import Fraction

from . import blockdata, correspondence, genericity, hecke, klv, rootdata, singular
from .gaussian import gvec
from .rootdata import InfChar

_BUILTIN_BLOCKS = {
    "builtin:sl2r": blockdata.builtin_sl2r_block,
    "builtin:nci2": blockdata.builtin_nci2_block,
}


class InputError(Exception):
    pass


# A KLV solve that fails on valid input: exit 1, not 2.
_SOLVE_ERRORS = (klv.DualityError, klv.PSolveError, klv.MultiplicityError)


def _digest(path: str) -> str:
    if path in _BUILTIN_BLOCKS:
        return "builtin"
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_block(path: str) -> blockdata.BlockData:
    if path in _BUILTIN_BLOCKS:
        return _BUILTIN_BLOCKS[path]()
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return blockdata.block_from_json(doc)
    except (OSError, json.JSONDecodeError, blockdata.BlockFormatError) as exc:
        raise InputError(str(exc)) from exc


def _load_rootdatum(path: str):
    try:
        d, lv = rootdata.load_rootdatum(path)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed root-datum file: {exc}") from exc
    if lv is None:
        raise InputError("root-datum file has no levi section")
    return d, lv


def _parse_vector(text: str):
    try:
        return gvec(x.strip() for x in text.split(","))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _report(command: str, inputs: list[str], payload: dict) -> dict:
    return {
        "command": command,
        "inputs": {p: _digest(p) for p in inputs},
        **payload,
    }


def _emit_violations(command: str, path: str, violations) -> int:
    _emit(_report(command, [path], {"violations": [v.to_json() for v in violations]}))
    return 0 if not violations else 1


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_validate(args) -> int:
    if args.block in _BUILTIN_BLOCKS:
        violations = blockdata.validate_block(_BUILTIN_BLOCKS[args.block]())
    else:
        try:
            with open(args.block, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(str(exc)) from exc
        violations = blockdata.validate_block_doc(doc)
    return _emit_violations("validate", args.block, violations)


def _cmd_blocks(args) -> int:
    b = _load_block(args.block)
    violations = blockdata.validate_block(b)
    if violations:
        return _emit_violations("blocks", args.block, violations)
    _emit(_report("blocks", [args.block], {"blocks": klv.partition_blocks(b)}))
    return 0


def _cmd_hecke_apply(args) -> int:
    b = _load_block(args.block)
    if args.label not in b.params:
        raise InputError(f"unknown label: {args.label}")
    if not 0 <= args.simple < len(b.simples):
        raise InputError(f"unknown simple index: {args.simple}")
    result = hecke.apply_T(b, args.simple, args.label)
    _emit(_report("hecke-apply", [args.block], {
        "simple": args.simple,
        "label": args.label,
        "result": {k: str(p) for k, p in sorted(result.coeffs.items())},
    }))
    return 0


def _cmd_klv(args) -> int:
    b = _load_block(args.block)
    violations = blockdata.validate_block(b)
    if violations:
        return _emit_violations("klv", args.block, violations)
    payload: dict = {"blocks": [], "order": [], "R": {}, "P": {}, "M": [], "m": []}
    ok = True
    quad_ok, counter = hecke.check_quadratic(b)
    ok &= quad_ok
    for cls in klv.partition_blocks(b):
        r = klv.compute_duality(b, cls)
        if args.check and not klv.verify_duality(b, cls, r):
            ok = False
        p = klv.compute_P(b, cls, r)
        mm = klv.multiplicities(b, p)
        payload["blocks"].append(cls)
        payload["order"].extend(mm.order)
        payload["R"].update({f"{x}|{y}": str(v) for (x, y), v in r.entries.items()})
        payload["P"].update({f"{x}|{y}": str(v) for (x, y), v in p.entries.items()})
        payload["M"].append([list(row) for row in mm.M])
        payload["m"].append([list(row) for row in mm.m])
    if args.check:
        for s in range(len(b.simples)):
            for t in range(s + 1, len(b.simples)):
                ok &= hecke.check_braid(b, s, t)
        payload["checks_passed"] = ok
    _emit(_report("klv", [args.block], payload))
    return 0 if ok else 1


def _cmd_induce(args) -> int:
    L = _load_block(args.source)
    G = _load_block(args.target)
    try:
        c = correspondence.load_correspondence(args.map)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed correspondence file: {exc}") from exc
    inputs = [args.source, args.target, args.map]
    violations = {"source": blockdata.validate_block(L),
                  "target": blockdata.validate_block(G)}
    if any(violations.values()):
        _emit(_report("induce", inputs, {"violations": {
            role: [v.to_json() for v in vs] for role, vs in violations.items()}}))
        return 1
    deltas = [args.delta] if args.delta is not None else sorted(L.params)
    try:
        verdicts = correspondence.induced_verdict(L, G, c, deltas)
    except _SOLVE_ERRORS:
        raise
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(_report("induce", inputs, {"verdicts": verdicts}))
    if args.require_verdict and any(v["verdict"] != "Irreducible" for v in verdicts):
        return 1
    return 0


def _cmd_generic(args) -> int:
    d, lv = _load_rootdatum(args.rootdatum)
    xi_m = _parse_vector(args.xi_m)
    nu = _parse_vector(args.nu)
    if len(xi_m) != d.rank or len(nu) != d.rank:
        raise InputError("vector length must equal the rank")
    rec = genericity.verdict(d, lv, xi_m, nu)
    _emit(_report("generic", [args.rootdatum], rec))
    if args.require_verdict and rec["verdict"] == "NoConclusion":
        return 1
    return 0


def _cmd_arrangement(args) -> int:
    d, lv = _load_rootdatum(args.rootdatum)
    xi_m = _parse_vector(args.xi_m)
    if len(xi_m) != d.rank:
        raise InputError("vector length must equal the rank")
    try:
        lo, hi = Fraction(args.window[0]), Fraction(args.window[1])
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    fams = genericity.emit_arrangement(d, lv, xi_m, (lo, hi))
    _emit(_report("arrangement", [args.rootdatum],
                  {"window": [str(lo), str(hi)],
                   "families": [f.to_json() for f in fams]}))
    return 0


def _cmd_translate_check(args) -> int:
    d, lv = _load_rootdatum(args.rootdatum)
    xi = InfChar.from_coords(_parse_vector(args.xi), lv.a_coordinates)
    try:
        mu = tuple(int(x.strip()) for x in args.mu.split(","))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if len(xi.coords) != d.rank or len(mu) != d.rank:
        raise InputError("vector length must equal the rank")
    t = singular.TranslationDatum(xi=xi, mu=mu)
    violations = singular.validate_translation_datum(d, lv, t)
    payload: dict = {"violations": violations}
    if args.square:
        try:
            with open(args.square, encoding="utf-8") as fh:
                sq = json.load(fh)
            maps = [
                {str(a): str(b) for a, b in sq[key]}
                for key in ("iota_xi", "iota_xi_prime", "tL", "tG")
            ]
        except (OSError, json.JSONDecodeError, KeyError, TypeError,
                ValueError) as exc:
            raise InputError(f"malformed square file: {exc}") from exc
        try:
            commutes, witness = singular.check_translation_square(*maps)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        payload["square_commutes"] = commutes
        if witness is not None:
            payload["witness"] = witness
        if not commutes:
            violations = violations + ["translation square does not commute"]
    inputs = [args.rootdatum] + ([args.square] if args.square else [])
    _emit(_report("translate-check", inputs, payload))
    return 0 if not violations else 1


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Takes a word such as -1/2 or -1,0,0 as a value, not an option:
    argparse only does so for plain negative numbers by default."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="klvkit",
        description="Exact block combinatorics, multiplicity matrices, and "
                    "irreducibility certificates for induced parameters. "
                    "Block files: JSON {simples, braid, infchar_tag, params}; "
                    "root-datum files: JSON {rank, roots, coroots, theta, levi}; "
                    "use builtin:sl2r or builtin:nci2 for the bundled blocks.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="check every block axiom")
    p.add_argument("block")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("blocks", help="partition a block file into blocks")
    p.add_argument("block")
    p.set_defaults(func=_cmd_blocks)

    p = sub.add_parser("hecke-apply", help="apply a Hecke generator to a basis label")
    p.add_argument("block")
    p.add_argument("--simple", type=int, required=True)
    p.add_argument("--label", required=True)
    p.set_defaults(func=_cmd_hecke_apply)

    p = sub.add_parser("klv", help="R/P polynomials and multiplicity matrices")
    p.add_argument("block")
    p.add_argument("--check", action="store_true",
                   help="also run the duality, quadratic, and braid validators")
    p.set_defaults(func=_cmd_klv)

    p = sub.add_parser("induce", help="verify a label map and emit verdicts")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("map")
    p.add_argument("--delta", help="restrict to one source label")
    p.add_argument("--require-verdict", action="store_true",
                   help="exit 1 unless every verdict is Irreducible")
    p.set_defaults(func=_cmd_induce)

    p = sub.add_parser("generic", help="genericity verdict for xi_m + nu")
    p.add_argument("rootdatum")
    p.add_argument("--xi-m", required=True, dest="xi_m",
                   help='comma-separated coordinates, e.g. "0,3/2" or "1/2+1/2*i"')
    p.add_argument("--nu", required=True)
    p.add_argument("--require-verdict", action="store_true")
    p.set_defaults(func=_cmd_generic)

    p = sub.add_parser("arrangement", help="excluded hyperplanes in a window")
    p.add_argument("rootdatum")
    p.add_argument("--xi-m", required=True, dest="xi_m")
    p.add_argument("--window", nargs=2, default=("-3", "3"),
                   metavar=("LO", "HI"))
    p.set_defaults(func=_cmd_arrangement)

    p = sub.add_parser("translate-check",
                       help="validate a translation datum (and optional square)")
    p.add_argument("rootdatum")
    p.add_argument("--xi", required=True)
    p.add_argument("--mu", required=True, help="comma-separated integers")
    p.add_argument("--square", help="JSON file {iota_xi, iota_xi_prime, tL, tG}")
    p.set_defaults(func=_cmd_translate_check)
    return ap


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _SOLVE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
