"""Command-line front end: file loading, report assembly, exit codes.

Exit codes: 0 success / empty violations, 1 violations, a verdict
falling short of --require-verdict or a reader that closed stdout, 2
malformed input (a root datum that breaks an axiom included) or usage
error.  Every report is the text of json.dumps(report, sort_keys=True,
indent=2) and a newline, and json.dumps writes each of its values but
four: `klv` solves every class first, then writes R, P, M and m one row
per piece straight from the solved classes.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

try:  # the interpreter's own SHA-256: hashlib would map OpenSSL (3.4 MB)
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import blockdata, correspondence, genericity, hecke, klv, rootdata, singular
from .gaussian import gvec

__all__ = ["InputError", "run", "main"]

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
        return sha256(fh.read()).hexdigest()


def _read_json(path: str):
    """The JSON in the file; one too deep or with too long an integer
    for json is an InputError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise
        except RecursionError:
            raise InputError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from None


def _load_block(path: str) -> blockdata.BlockData:
    if path in _BUILTIN_BLOCKS:
        return _BUILTIN_BLOCKS[path]()
    try:
        return blockdata.block_from_json(_read_json(path))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError,
            blockdata.BlockFormatError) as exc:
        raise InputError(str(exc)) from exc


def _load_rootdatum(path: str):
    try:
        d, lv = rootdata.rootdatum_from_json(_read_json(path))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed root-datum file: {exc}") from exc
    if lv is None:
        raise InputError("root-datum file has no levi section")
    violations = d.validate() or lv.validate(d)
    if violations:
        raise InputError(f"invalid root datum: {violations[0]}")
    return d, lv


def _parse_vector(text: str):
    try:
        return gvec(x.strip() for x in text.split(","))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


_encode_str = json.encoder.encode_basestring_ascii


def _dumps(x, indent: str) -> str:
    """json.dumps(x, sort_keys=True, indent=2) for x that starts at the
    given indent.  Indenting every line break is exact: JSON escapes each
    newline inside a string, so each raw newline is one of the layout."""
    return json.dumps(x, sort_keys=True, indent=2).replace("\n", "\n" + indent)


class _IntTexts(dict):
    def __missing__(self, k: int) -> str:
        return int.__repr__(k)


# The texts of the small ints, most entries of M and m; others fall back.
_INT_TEXTS = _IntTexts((i, int.__repr__(i)) for i in range(-16, 17))


def _int_matrices(mats: list, indent: str):
    """The pieces of _dumps(mats, indent) for mats, a list of square
    matrices of ints (M or m of each class), one row per piece."""
    if not mats or not all(mats):
        yield _dumps(mats, indent)
        return
    i1, i2 = indent + "  ", indent + "    "
    sep = ",\n" + i2 + "  "
    head = f"[\n{i1}[\n{i2}"
    for mat in mats:
        for row in mat:
            yield f"{head}[\n{i2}  {sep.join(map(_INT_TEXTS.__getitem__, row))}\n{i2}]"
            head = ",\n" + i2
        head = f"\n{i1}],\n{i1}[\n{i2}"
    yield f"\n{i1}]\n{indent}]"


def _poly_map(mats: list, labels: list[str], indent: str):
    """The pieces of _dumps(d, indent) for the dict d = {f"{x}|{y}":
    str(v)} over the entries (x, y): v of mats (R or P of each class), one
    row x per piece.  No label holds a "|" (`block_from_json` rejects
    one), so the keys are distinct and sort by x + "|", then by y."""
    # one JSON text per distinct value, keyed by id(): safe only as every
    # class's R and P, held in mats, live until the write ends
    texts = {id(v): v for mat in mats for col in mat.cols.values() for v in col.values()}
    texts = {i: _encode_str(str(v)) for i, v in texts.items()}
    rows: dict[str, list] = {x: [] for x in sorted(labels, key=lambda x: x + "|")}
    for mat in mats:
        for y, col in mat.cols.items():
            for x, v in col.items():
                rows[x].append((y, texts[id(v)]))
    # the encoded key of x|y: encoded x, its closing quote dropped, "|",
    # encoded y, its opening quote dropped (JSON encodes char by char)
    enc = {x: _encode_str(x) for x in labels}
    sep, head = f",\n{indent}  ", f"{{\n{indent}  "
    for x, row in rows.items():
        if row:
            row.sort()
            key = enc[x][:-1] + "|"
            yield head + sep.join([f"{key}{enc[y][1:]}: {t}" for y, t in row])
            head = sep
    yield f"\n{indent}}}" if head is sep else "{}"


def _emit(report: dict) -> None:
    """Write report exactly as json.dumps(report, sort_keys=True,
    indent=2) renders it, plus a newline: each value by _dumps, but a
    functools.partial value (R, P, M and m of klv) by the pieces it
    yields."""
    write = sys.stdout.write
    head = "{\n  "
    for key, value in sorted(report.items()):
        write(f"{head}{_encode_str(key)}: ")
        if type(value) is functools.partial:
            for piece in value("  "):
                write(piece)
        else:
            write(_dumps(value, "  "))
        head = ",\n  "
    write("\n}\n")


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
            doc = _read_json(args.block)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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
    violations = blockdata.validate_block(b)
    if violations:
        return _emit_violations("hecke-apply", args.block, violations)
    if args.label not in b.params:
        raise InputError(f"unknown label: {args.label}")
    if not 0 <= args.simple < len(b.simples):
        raise InputError(f"unknown simple index: {args.simple}")
    result = hecke.apply_T(b, args.simple, args.label)
    _emit(_report("hecke-apply", [args.block], {
        "simple": args.simple,
        "label": args.label,
        "result": {k: str(p) for k, p in sorted(result.items())},
    }))
    return 0


def _cmd_klv(args) -> int:
    b = _load_block(args.block)
    violations = blockdata.validate_block(b)
    if violations:
        return _emit_violations("klv", args.block, violations)
    classes = klv.partition_blocks(b)
    solved = [klv.solve_block(b, cls, check=args.check) for cls in classes]
    order = [x for res in solved for x in res.order]
    payload: dict = {
        "blocks": classes, "order": order,
        "R": functools.partial(_poly_map, [res.r for res in solved], order),
        "P": functools.partial(_poly_map, [res.p for res in solved], order),
        "M": functools.partial(_int_matrices, [res.M for res in solved]),
        "m": functools.partial(_int_matrices, [res.m for res in solved]),
    }
    ok = True
    if args.check:
        # a valid block satisfies it (see validate_block), so only here
        ok, _ = hecke.check_quadratic(b)
        ok &= all(res.verified for res in solved)
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
        c = correspondence.correspondence_from_json(_read_json(args.map))
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
    except ZeroDivisionError:
        raise InputError(f"zero denominator in window: {args.window!r}") from None
    fams = genericity.emit_arrangement(d, lv, xi_m, (lo, hi))
    _emit(_report("arrangement", [args.rootdatum],
                  {"window": [str(lo), str(hi)],
                   "families": [f.to_json() for f in fams]}))
    return 0


def _cmd_translate_check(args) -> int:
    d, lv = _load_rootdatum(args.rootdatum)
    xi = _parse_vector(args.xi)
    try:
        mu = tuple(int(x.strip()) for x in args.mu.split(","))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if len(xi) != d.rank or len(mu) != d.rank:
        raise InputError("vector length must equal the rank")
    t = singular.TranslationDatum(xi=xi, mu=mu)
    violations = singular.validate_translation_datum(d, lv, t)
    payload: dict = {"violations": violations}
    if args.square:
        try:
            sq = _read_json(args.square)
            maps = [correspondence._label_map(sq[key], key)
                    for key in ("iota_xi", "iota_xi_prime", "tL", "tG")]
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by later ones:
    parsing leaves it as it was."""
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
                   help="also certify the duality of each class, replay the "
                        "descent recursion of each column of P that it finds, and "
                        "check the quadratic and braid relations")
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
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: exit 1, with stdout on devnull for a quiet shutdown
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
