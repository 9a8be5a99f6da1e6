"""Finite Coxeter groups presented by pairwise braid orders in {2, 3, 4, 6},
realized by integer reflection matrices on the root lattice."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CoxeterGroup", "CoxeterCapExceeded"]

# Off-diagonal Cartan entry pairs giving product order 2, 3, 4, 6.
_CARTAN_PAIR = {2: (0, 0), 3: (-1, -1), 4: (-1, -2), 6: (-1, -3)}

IntMat = tuple[tuple[int, ...], ...]

# Most elements an enumerated group may have.
_CAP = 100_000


class CoxeterCapExceeded(RuntimeError):
    pass


def _mat_mul(a: IntMat, b: IntMat) -> IntMat:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


@dataclass
class CoxeterGroup:
    """Enumerated finite Coxeter group.

    `braid[i][j]` is the order of s_i s_j (1 on the diagonal).  Elements
    are integer matrices acting on the root lattice; `word[w]` is the
    lexicographically smallest reduced word (tuple of generator indices).
    """

    names: tuple[str, ...]
    braid: tuple[tuple[int, ...], ...]
    gens: list[IntMat] = field(init=False)
    elements: list[IntMat] = field(init=False)
    length: dict[IntMat, int] = field(init=False)
    word: dict[IntMat, tuple[int, ...]] = field(init=False)

    def __post_init__(self):
        n = len(self.names)
        cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m = self.braid[i][j]
                if m != self.braid[j][i]:
                    raise ValueError("braid matrix must be symmetric")
                try:
                    cij, cji = _CARTAN_PAIR[m]
                except KeyError:
                    raise ValueError(f"unsupported braid order {m}") from None
                cartan[i][j], cartan[j][i] = cij, cji
        # s_i acts on the lattice by e_j -> e_j - cartan[i][j] e_i.
        self.gens = [
            tuple(
                tuple(
                    (1 if r == c else 0) - (cartan[i][c] if r == i else 0)
                    for c in range(n)
                )
                for r in range(n)
            )
            for i in range(n)
        ]
        ident = tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))
        self.elements = [ident]
        self.length = {ident: 0}
        self.word = {ident: ()}
        # Breadth-first by length.  Every left descent i of x one level up
        # has s_i x on the current level, whose words are final, so the
        # lex-min reduced word of x is the least (i,) + word(s_i x).
        level = [ident]
        while level:
            above: dict[IntMat, tuple[int, ...]] = {}
            for w in level:
                for i, g in enumerate(self.gens):
                    sw = _mat_mul(g, w)
                    if sw in self.length:
                        continue
                    cand = (i,) + self.word[w]
                    if sw not in above:
                        if len(self.length) + len(above) >= _CAP:
                            raise CoxeterCapExceeded(f"group exceeds cap {_CAP}")
                        above[sw] = cand
                    elif cand < above[sw]:
                        above[sw] = cand
            for x, wd in above.items():
                self.length[x] = len(wd)
                self.word[x] = wd
            self.elements.extend(above)
            level = list(above)

    def label(self, w: IntMat) -> str:
        wd = self.word[w]
        return "e" if not wd else "".join(self.names[i] for i in wd)

    def left_mul_gen(self, i: int, w: IntMat) -> IntMat:
        return _mat_mul(self.gens[i], w)
