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

    python tools/ab.py PARENT CHANGE --workload W --inproc

runs both sides in this one process instead, where fresh-process pairs
are too noisy to resolve a small change: it imports each checkout's
src/klvkit under its own package name, builds the workload's inputs
once (PARENT's bench/inputs.py, seed 1) in a temporary directory, and
runs ten rounds of the workload's operations through each side's
`cli.run`.  Each operation runs on both sides back to back, PARENT
first in even rounds, and the two (exit code, stdout) must be
identical.  It prints each side's median and quartiles of the round
times, the rounds that each side won, and the median and quartiles of
the per-round ratio change / parent.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import importlib
import importlib.util
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

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


def _load(name: str, path: str):
    """The module or package at path (a package's directory), imported
    under name."""
    init = os.path.join(path, "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init if os.path.isdir(path) else path,
        submodule_search_locations=[path] if os.path.isdir(path) else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _inproc(checkouts: dict[str, str], workload: str, rounds: int, seed: int) -> dict:
    packages, clis = {}, {}
    for side, path in checkouts.items():
        packages[side] = _load(f"klvkit_{side}", os.path.join(path, "src", "klvkit"))
        clis[side] = importlib.import_module(f"klvkit_{side}.cli")
    # bench/inputs.py imports `klvkit` (its blockdata and rootdata, which
    # importing cli has loaded): give it PARENT's for the import
    saved = sys.modules.get("klvkit")
    sys.modules["klvkit"] = packages["parent"]
    try:
        inputs = _load("ab_inputs", os.path.join(checkouts["parent"], "bench", "inputs.py"))
    finally:
        if saved is None:
            del sys.modules["klvkit"]
        else:
            sys.modules["klvkit"] = saved

    times: dict[str, list[float]] = {side: [] for side in _SIDES}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            os.mkdir("inputs")
            ops = inputs.WORKLOADS[workload](random.Random(seed), "inputs")
            for k in range(rounds):
                total = dict.fromkeys(_SIDES, 0.0)
                for op in ops:
                    seen = {}
                    for side in (_SIDES if k % 2 == 0 else _SIDES[::-1]):
                        out, err = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            t0 = time.perf_counter()
                            code = clis[side].run(op.argv)
                            total[side] += time.perf_counter() - t0
                        seen[side] = (code, out.getvalue())
                    if seen["parent"] != seen["change"]:
                        sys.exit(f"{op.name}: exit code or stdout differ between the sides")
                for side in _SIDES:
                    times[side].append(total[side])
        finally:
            os.chdir(cwd)
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    return {
        "workload": workload, "mode": "inproc", "rounds": rounds, "seed": seed,
        "operations_per_round": len(ops),
        "round_s": {side: _spread(times[side]) for side in _SIDES},
        "rounds_won": {"parent": sum(p < c for p, c in zip(times["parent"], times["change"])),
                       "change": sum(c < p for p, c in zip(times["parent"], times["change"]))},
        "ratio": _spread(ratios),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inproc", action="store_true")
    args = ap.parse_args(argv)
    pairs = 10
    if args.inproc:
        report = _inproc({"parent": os.path.abspath(args.parent),
                          "change": os.path.abspath(args.change)},
                         args.workload, pairs, 1)
        print(json.dumps(report, indent=1))
        return 0
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
