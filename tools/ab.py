"""Alternated A/B runs of the benchmark on two checkouts.

    python tools/ab.py PARENT CHANGE --workload W

runs ten pairs of the benchmark command of BENCHMARK.json,
`python3 bench/run.py --workload W --seed S --seconds T`, in each
checkout's own directory, so that each side runs its own bench/run.py
on its own src/, every run in a fresh process.  Pair k uses the seed
k + 1 on both sides, and the side that runs first alternates: PARENT
first in even pairs.  T is `run_seconds` of the BENCHMARK.json next to
this script.  Set PYTHONDONTWRITEBYTECODE=1 to make every run compile
klvkit, as a fresh checkout does.  Python still reads bytecode that is
already cached, so a checkout with a src/ __pycache__ starts faster and
smaller than one without; the script refuses a pair of checkouts of
which only one has such a cache.

It prints one JSON document: for each end-to-end metric of
BENCHMARK.json, the median and quartiles (statistics.quantiles, n=4) of
each side's runs and the number of pairs that each side won (lower, or
higher where the metric is better higher; ties count for neither); and
per side the operations attempted and failed and the runs whose outputs
failed their checks.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SIDES = ("parent", "change")


def _run(command: list[str], checkout: str, workload: str, seed: int,
         seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n"
                 f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 5), "q1": round(q1, 5), "q3": round(q3, 5)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    args = ap.parse_args(argv)
    pairs = 10
    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    cached = {side: bool(glob.glob(os.path.join(path, "src", "**", "__pycache__"),
                                   recursive=True))
              for side, path in checkouts.items()}
    if cached["parent"] != cached["change"]:
        sys.exit(f"only one checkout has compiled bytecode under src/: {cached}")

    runs: dict[str, list[dict]] = {side: [] for side in _SIDES}
    for k in range(pairs):
        for side in (_SIDES if k % 2 == 0 else _SIDES[::-1]):
            runs[side].append(_run(bench["command"], checkouts[side], args.workload,
                                   k + 1, bench["run_seconds"]))

    metrics = {}
    for m in bench["end_to_end"]:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in _SIDES}
        wins = dict.fromkeys(_SIDES, 0)
        for p, c in zip(values["parent"], values["change"]):
            if p != c:
                wins["change" if sign * (c - p) < 0 else "parent"] += 1
        metrics[name] = {"unit": m["unit"], "better": m["better"],
                         **{side: _spread(values[side]) for side in _SIDES},
                         "pairs_won": wins}
    report = {
        "workload": args.workload, "pairs": pairs,
        "seconds": bench["run_seconds"], "seeds": [1, pairs],
        "metrics": metrics,
        "operations": {side: {
            "attempted": sum(r["attempted"] for r in runs[side]),
            "failed": sum(r["failed"] for r in runs[side]),
            "incorrect_runs": sum(not r["correct"] for r in runs[side]),
        } for side in _SIDES},
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
