"""In-memory spans and counts around the calls into klvkit's public
functions, installed from outside the package by rebinding the module
attributes that callers look up.

A span is [name, start, end, parent index]; the operations the
benchmark runs are spans named "op".  Span times are inclusive of
nested spans.  Counting work done after a call returns is timed apart
and left out of every span.
"""

from __future__ import annotations

import functools
import json
import time

from klvkit import blockdata, correspondence, genericity, hecke, klv, rootdata


def _r_counts(t, r):
    t.add("klv.r_nonzeros", len(r.entries))
    t.add("laurent.r_terms", sum(len(p.terms) for p in r.entries.values()))


def _p_counts(t, p):
    t.add("klv.p_nonzeros", len(p.entries))
    t.add("laurent.p_terms", sum(len(q.terms) for q in p.entries.values()))
    top = max((max(q.terms) // 2 for q in p.entries.values()), default=0)
    t.counts["klv.p_max_degree"] = max(t.counts["klv.p_max_degree"], top)


def _partition_counts(t, classes):
    t.add("klv.classes", len(classes))
    t.add("klv.params", sum(len(c) for c in classes))


def _pipeline_counts(t, r):
    t.add("correspondence.klv_pipelines", 1)
    _r_counts(t, r)


def _weyl_counts(t, elements):
    t.add("rootdata.weyl_elements", len(elements))


# (module, attribute, span name, count function)
_PATCHES = [
    (blockdata, "generate_complex_block", "blockdata.build", None),
    (blockdata, "product_block", "blockdata.build", None),
    (blockdata, "validate_block", "blockdata.validate", None),
    (rootdata, "rootdatum_from_json", "rootdata.load", None),
    (klv, "partition_blocks", "klv.partition", _partition_counts),
    (klv, "compute_duality", "klv.duality", _r_counts),
    (klv, "verify_duality", "klv.verify", None),
    (klv, "compute_P", "klv.psolve", _p_counts),
    (klv, "multiplicities", "klv.mult", None),
    (hecke, "check_quadratic", "hecke.quadratic", None),
    (hecke, "check_braid", "hecke.braid", None),
    (correspondence, "partition_blocks", "klv.partition", _partition_counts),
    (correspondence, "compute_duality", "klv.duality", _pipeline_counts),
    (correspondence, "compute_P", "klv.psolve", _p_counts),
    (correspondence, "multiplicities", "klv.mult", None),
    (correspondence, "check_correspondence", "correspondence.check", None),
    (correspondence, "compare_multiplicities", "correspondence.compare", None),
    (correspondence, "induced_verdict", "correspondence.verdict",
     lambda t, _: t.add("correspondence.deltas", 1)),
    (genericity, "check_hypA", "genericity.hypA", None),
    (genericity, "check_hypB", "genericity.hypB", None),
    (genericity, "check_hypC", "genericity.hypC", None),
    (genericity, "check_hypD", "genericity.hypD", None),
    (genericity, "verdict", "genericity.verdict",
     lambda t, _: t.add("genericity.verdicts", 1)),
    (genericity, "weyl_enumerate", "rootdata.weyl", _weyl_counts),
    (genericity, "weyl_subgroup", "rootdata.weyl", _weyl_counts),
    (genericity, "weyl_stabilizer", "rootdata.weyl", _weyl_counts),
]

TIMED = ["blockdata.build", "blockdata.validate", "rootdata.load",
         "klv.partition", "klv.duality", "klv.verify", "klv.psolve", "klv.mult",
         "hecke.quadratic", "hecke.braid",
         "correspondence.check", "correspondence.compare", "correspondence.verdict",
         "genericity.hypA", "genericity.hypB", "genericity.hypC", "genericity.hypD"]
COUNTED = ["klv.params", "klv.classes", "klv.r_nonzeros", "klv.p_nonzeros",
           "klv.p_max_degree", "laurent.r_terms", "laurent.p_terms",
           "correspondence.deltas", "correspondence.klv_pipelines",
           "genericity.verdicts", "rootdata.weyl_elements"]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTED, 0)
        self.calls = 0
        self.bookkeeping_s = 0.0
        self.op_bookkeeping_s = 0.0
        self._stack: list[int] = []

    def add(self, name: str, n: int) -> None:
        self.counts[name] += n

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            self.calls += 1
            if count is not None:
                t0 = time.perf_counter()
                count(self, result)
                dt = time.perf_counter() - t0
                self.bookkeeping_s += dt
                parent = self.spans[idx][3]
                if parent >= 0 and self.spans[parent][0] == "op":
                    self.op_bookkeeping_s += dt
            return result
        return traced

    def op(self, fn):
        """Call fn() as one operation span."""
        idx = self.begin("op")
        try:
            return fn()
        finally:
            self.end(idx)

    def install(self) -> None:
        for module, attr, name, count in _PATCHES:
            setattr(module, attr, self.wrap(getattr(module, attr), name, count))

    def busy(self) -> dict:
        out = dict.fromkeys(TIMED, 0.0)
        for name, start, end, _ in self.spans:
            if name in out:
                out[name] += end - start
        return out

    def op_self_time(self) -> float:
        """Time of the "op" spans not covered by their direct children,
        less the counting done between those children."""
        total = -self.op_bookkeeping_s
        for name, start, end, parent in self.spans:
            if name == "op":
                total += end - start
            elif parent >= 0 and self.spans[parent][0] == "op":
                total -= end - start
        return total

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def wrapper_cost(n: int = 20000) -> float:
    """Seconds a traced call adds over a direct one."""
    def bare():
        return None
    wrapped = Tracer().wrap(bare, "probe", None)
    t0 = time.perf_counter()
    for _ in range(n):
        bare()
    t1 = time.perf_counter()
    for _ in range(n):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / n)
