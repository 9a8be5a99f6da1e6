"""Slow reference for `klvkit.rootdata.RootDatum.validate`, kept only
for the tests.

`validate` is the check of the root-datum axioms that the library ran
before it packed every root into one integer: it builds one tuple per
root, per theta image and per pair of roots with a nonzero pairing, and
looks each up in the set of roots.  The library's version must return
the same list, message for message and in the same order.
"""

from operator import mul

from klvkit.coxeter import _mat_mul


def validate(d) -> list[str]:
    out = []
    rs = set(d.roots)
    if len(rs) != len(d.roots):
        out.append("duplicate roots")
    for a in d.roots:
        if tuple(-x for x in a) not in rs:
            out.append(f"roots not closed under negation at {a}")
        cr = d.coroots.get(a)
        if cr is None:
            out.append(f"missing coroot for {a}")
        elif sum(map(mul, cr, a)) != 2:
            out.append(f"<coroot,root> != 2 at {a}")
    identity = tuple(tuple(int(i == j) for j in range(d.rank)) for i in range(d.rank))
    if _mat_mul(d.theta, d.theta) != identity:
        out.append("theta^2 != identity")
    for a in d.roots:
        if tuple(sum(map(mul, row, a)) for row in d.theta) not in rs:
            out.append(f"theta does not permute roots at {a}")
    for a in d.roots:
        cr = d.coroots.get(a)
        if cr is None:
            continue
        for b in d.roots:
            # s_a(b) = b - <coroot(a), b> a, which is b itself when the
            # pairing is 0
            p = sum(map(mul, cr, b))
            if p and tuple([x - p * y for x, y in zip(b, a)]) not in rs:
                out.append(f"reflection in {a} does not permute roots")
                break
    return out
