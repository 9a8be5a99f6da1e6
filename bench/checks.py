"""Checks of every operation's JSON report against `oracle`, and the
corruptions that each check's self-test must reject."""

from __future__ import annotations

import json
import operator

import oracle


class CheckFailed(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _polys(table: dict) -> dict:
    out = {}
    for key, text in table.items():
        p = oracle.parse_vpoly(text)
        if p:
            out[tuple(key.split("|"))] = p
    return out


def _matrices(rep: dict, key: str) -> dict:
    """Nonzero entries of the per-class matrices, keyed by label pairs."""
    out, start = {}, 0
    for cls, mat in zip(rep["blocks"], rep[key]):
        order = rep["order"][start:start + len(cls)]
        _expect(sorted(order) == sorted(cls), "order does not match blocks")
        start += len(cls)
        for i, row in enumerate(mat):
            for j, val in enumerate(row):
                if val:
                    out[(order[i], order[j])] = val
    _expect(start == len(rep["order"]), "order longer than blocks")
    return out


def check_klv_ladder(meta: dict, rep: dict) -> None:
    kl = oracle.ClassicalKL(meta["names"], meta["braid"])
    lengths = kl.lengths()
    p_oracle = kl.labelled(kl.p_polys())
    _expect(rep.get("checks_passed") is True, "validators did not pass")
    _expect(rep["blocks"] == [sorted(lengths)], "complex block is not one class")
    want = {k: oracle.q_to_v(v) for k, v in p_oracle.items() if k[0] != k[1]}
    _expect(_polys(rep["P"]) == want, "P differs from the classical KL oracle")
    order = rep["order"]
    big = rep["M"][0]
    n = len(order)
    _expect(all(big[i][i] == 1 and not any(big[i][:i]) for i in range(n)),
            "M is not unitriangular")
    got_m = _matrices(rep, "M")
    _expect(got_m == oracle.signed_values_at_one(p_oracle, lengths),
            "M differs from the signed oracle P(1)")
    rows_big, rows_small = _rows(got_m), _rows(_matrices(rep, "m"))
    _expect(sorted(rows_small) == sorted(order), "m has an empty row")
    for i, row in rows_small.items():
        acc: dict = {}
        for k, a in row.items():
            for j, b in rows_big.get(k, {}).items():
                acc[j] = acc.get(j, 0) + a * b
        _expect({j: v for j, v in acc.items() if v} == {i: 1}, "m.M is not I")


def _rows(entries: dict) -> dict:
    rows: dict = {}
    for (i, j), val in entries.items():
        rows.setdefault(i, {})[j] = val
    return rows


def _factor_tables(spec) -> dict:
    if spec[0] == "sl2r":
        return oracle.rank_one_tables(oracle.SL2R)
    if spec[0] == "nci2":
        return oracle.rank_one_tables(oracle.NCI2)
    return oracle.complex_tables(spec[1], spec[2])


def check_mixed_products(meta: dict, rep: dict) -> None:
    tables = [_factor_tables(spec) for spec in meta["factors"]]
    want_r = oracle.kronecker(tables, "R", oracle.poly_mul)
    _expect(_polys(rep["R"]) == want_r, "R is not the Kronecker product")
    want_p = {k: v for k, v in oracle.kronecker(tables, "P", oracle.poly_mul).items()
              if k[0] != k[1]}
    _expect(_polys(rep["P"]) == want_p, "P is not the Kronecker product")
    for key in ("M", "m"):
        _expect(_matrices(rep, key) == oracle.kronecker(tables, key, operator.mul),
                f"{key} is not the Kronecker product")


def check_induce_all(meta: dict, rep: dict) -> None:
    mp = meta["map"]
    verdicts = rep["verdicts"]
    _expect([v["delta"] for v in verdicts] == sorted(mp), "not one verdict per label")
    for v in verdicts:
        if meta.get("control"):
            _expect(v["verdict"] == "NoConclusion", "control map was certified")
            _expect(any("cross-action" in x for x in v["correspondence_violations"]),
                    "control map not rejected for its cross-action")
            continue
        _expect(v["verdict"] == "Irreducible", f"{v['delta']} not certified")
        _expect(v["image"] == mp[v["delta"]], "wrong image label")
        _expect({mp[x]: c for x, c in v["source_M_column"].items()}
                == v["target_M_column"], "M columns do not match through the map")


def check_genericity(meta: dict, rep: dict) -> None:
    want = oracle.hypotheses(meta["datum"], meta["xi_m"], meta["nu"])
    for h in ("hypA", "hypB", "hypC", "hypD"):
        _expect(rep[h]["holds"] is want[h], f"{h} differs from the root test")
    _expect(rep["verdict"] == want["verdict"], "verdict differs from the root test")
    _expect(want["verdict"] == meta["intended"], "grid point is not in its class")


CHECKS = {
    "klv_ladder": check_klv_ladder,
    "mixed_products": check_mixed_products,
    "induce_all": check_induce_all,
    "genericity": check_genericity,
}


def corrupt(workload: str, rep: dict) -> dict:
    """A copy of the report with one value changed, which the workload's
    check must reject."""
    bad = json.loads(json.dumps(rep))
    if workload == "klv_ladder":
        key = sorted(bad["P"])[0]
        bad["P"][key] += " + 1*v^2"
    elif workload == "mixed_products":
        key = sorted(bad["R"])[-1]
        bad["R"][key] = "0"
    elif workload == "induce_all":
        col = next(v["target_M_column"] for v in bad["verdicts"]
                   if v["verdict"] == "Irreducible")
        key = sorted(col)[0]
        col[key] += 1
    else:
        bad["hypC"]["holds"] = not bad["hypC"]["holds"]
    return bad
