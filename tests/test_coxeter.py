import itertools

import pytest

from klvkit.coxeter import CoxeterCapExceeded, CoxeterGroup, reflection_group

A2 = ((1, 3), (3, 1))
A3 = ((1, 3, 2), (3, 1, 3), (2, 3, 1))
B3 = ((1, 3, 2), (3, 1, 4), (2, 4, 1))


def _least_words(w: CoxeterGroup) -> dict:
    """Brute force: the first word, shortest and then lexicographically
    least, whose product s_i1 ... s_ik of generator matrices gives each
    element."""
    n = len(w.names)
    ident = tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))
    found = {}
    k = 0
    while len(found) < len(w.elements):
        for word in itertools.product(range(n), repeat=k):
            x = ident
            for i in reversed(word):
                x = tuple(
                    tuple(sum(w.gens[i][r][m] * x[m][c] for m in range(n))
                          for c in range(n))
                    for r in range(n))
            found.setdefault(x, word)
        k += 1
    return found


@pytest.mark.parametrize("braid,order", [(A3, 24), (B3, 48)])
def test_words_are_least_reduced_words(braid, order):
    w = CoxeterGroup(("s1", "s2", "s3"), braid)
    assert len(w.elements) == order
    assert w.word == _least_words(w)
    assert all(w.length[x] == len(w.word[x]) for x in w.elements)
    # breadth-first: lengths never decrease along the element list
    lengths = [w.length[x] for x in w.elements]
    assert lengths == sorted(lengths)


@pytest.mark.parametrize("braid,order", [(A2, 6), (B3, 48)])
def test_reflection_group_cap(braid, order):
    """The whole group fits a cap of its order, and one element fewer
    is refused."""
    w = CoxeterGroup(tuple(f"s{i}" for i in range(len(braid))), braid)
    elements, word = reflection_group(w.gens, len(braid), order)
    assert len(elements) == order
    assert (elements, word) == (w.elements, w.word)
    with pytest.raises(CoxeterCapExceeded):
        reflection_group(w.gens, len(braid), order - 1)
