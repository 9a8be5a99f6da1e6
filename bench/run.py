"""Benchmark of the klvkit command line: one workload per process.

    python3 bench/run.py --workload klv_ladder --seed 1 --seconds 25 --trace 0

The process builds the workload's inputs from the seed, then runs its
operations as a closed loop of one client on one thread: each operation
is `klvkit.cli.run(argv)` in this process with stdout captured, so it
pays for argument parsing, file loading and report rendering.  A run is
a fixed number of whole rounds, set from --seconds (see ROUND_S), so the
work of a run does not depend on the speed of the host.  Afterwards
every distinct output is checked against values computed in
`oracle.py`, and each check is shown one corrupted output that it must
reject.  The last line of stdout is the JSON result; with --trace 1 it
holds the per-layer metrics of `tracer.py` instead of the end-to-end
ones.  Run records and trace dumps go to .bench_out/.
"""

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = ".bench_out"

# Seconds one round takes on the machine the README's figures come from;
# a run makes round(--seconds / ROUND_S) rounds, at least one.
ROUND_S = {
    "klv_ladder": 22.0,
    "mixed_products": 22.0,
    "induce_all": 12.0,
    "genericity": 8.3,
}
# Set-ups per run; setup_s is the median start-up of a fresh interpreter
# that imports klvkit.cli plus the median time to build the inputs.
SETUPS = 5
_IMPORT_PROBE = "import sys; sys.path.insert(0, 'src'); import klvkit.cli"


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _run_op(cli, tr, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = tr.op(lambda: cli.run(argv)) if tr else cli.run(argv)
        dt = time.perf_counter() - t0
    return rc, dt, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUND_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    from klvkit import cli

    import checks
    import inputs
    import tracer
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"klvkit was imported from {cli.__file__}, not from {src}")

    os.chdir(ROOT)
    tr = tracer.Tracer() if args.trace else None
    if tr:
        tr.install()
    # per process, so that two runs in one checkout never share input files
    workdir = os.path.join(OUT, f"inputs-{args.workload}-{os.getpid()}")
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _IMPORT_PROBE], check=True)
        t1 = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        ops = inputs.WORKLOADS[args.workload](random.Random(args.seed), workdir)
        setups.append({"import_s": t1 - t0, "build_s": time.perf_counter() - t1})

    rounds = max(1, round(args.seconds / ROUND_S[args.workload]))
    first: dict[str, tuple] = {}
    records, changed = [], set()
    for _ in range(rounds):
        for op in ops:
            rc, dt, out, err = _run_op(cli, tr, op.argv)
            records.append({"op": op.name, "rc": rc, "s": dt, "bytes": len(out)})
            if op.name not in first:
                first[op.name] = (op, rc, out, err)
            elif first[op.name][1:3] != (rc, out):
                changed.add(op.name)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check = checks.CHECKS[args.workload]
    problems = [f"{name}: output differs between rounds" for name in sorted(changed)]
    for name, (op, rc, out, err) in first.items():
        if rc != 0:
            print(f"{name}: exit {rc}: {err.strip()}", file=sys.stderr)
            continue
        try:
            check(op.meta, json.loads(out))
        except checks.CheckFailed as exc:
            problems.append(f"{name}: {exc}")
        except (LookupError, TypeError, ValueError) as exc:
            problems.append(f"{name}: malformed report: {exc!r}")
    probes = [(len(out), name) for name, (op, rc, out, _) in first.items()
              if rc == 0 and not op.meta.get("control")]
    if not probes:
        problems.append("self-test: no operation succeeded")
    else:
        op, _, out, _ = first[min(probes)[1]]
        try:
            check(op.meta, checks.corrupt(args.workload, json.loads(out)))
            problems.append(f"self-test: corrupted {op.name} output was accepted")
        except checks.CheckFailed:
            pass
    for p in problems:
        print(p, file=sys.stderr)

    wall_s = sum(r["s"] for r in records)
    ok_times = [r["s"] for r in records if r["rc"] == 0] or [wall_s]
    if tr:
        overhead_s = tr.calls * tracer.wrapper_cost() + tr.bookkeeping_s
        metrics = {f"{name}_s": _metric(v, "s") for name, v in tr.busy().items()}
        metrics.update({
            name: _metric(v, "deg" if name == "klv.p_max_degree" else "count")
            for name, v in tr.counts.items()})
        metrics["cli.report_s"] = _metric(tr.op_self_time(), "s")
        metrics["cli.report_bytes"] = _metric(sum(r["bytes"] for r in records), "bytes")
        metrics["trace.wall_s"] = _metric(wall_s, "s")
        metrics["trace.overhead_pct"] = _metric(
            100 * overhead_s / max(wall_s - overhead_s, 1e-9), "%")
        tr.dump(os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json"))
    else:
        metrics = {
            "setup_s": _metric(statistics.median(x["import_s"] for x in setups)
                               + statistics.median(x["build_s"] for x in setups), "s"),
            "wall_s": _metric(wall_s, "s"),
            "op_p50_s": _metric(statistics.median_high(ok_times), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    result = {"correct": not problems, "attempted": len(records),
              "failed": sum(r["rc"] != 0 for r in records), "metrics": metrics}
    with open(os.path.join(OUT, f"run-{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"rounds": rounds, "setups": setups, "ops": records, "problems": problems, "result": result}, fh, indent=1)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
