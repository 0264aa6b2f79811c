"""Shared fixtures: named example codes and cached enumerations."""

import random
from collections import Counter

import pytest

from piercedcodes.codes import code
from piercedcodes.piercing import (
    BASE_CODE,
    PiercingSequence,
    PiercingStep,
    enumerate_pierced_codes,
    is_pierceable,
    pierce,
)
from piercedcodes.toric import oriented

# two 1-piercings of the base code: first the background-free one, then
# lambda={2}, sigma={1}
FIG_CODE = code(3, [], [1], [1, 2], [2], [1, 3], [1, 2, 3])

SORT_EXAMPLE = code(3, [], [1], [1, 2], [2], [1, 2, 3], [2, 3])

FULL_3 = code(3, [], [1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3])

CUBIC_CODE = code(3, [], [1], [2], [3], [1, 2, 3])


def binomial_from_words(ring, order, plus, minus):
    """Binomial y_{plus...} - y_{minus...} from codeword multisets."""
    a = ring.monomial(Counter(frozenset(c) for c in plus))
    b = ring.monomial(Counter(frozenset(c) for c in minus))
    return oriented(a, b, order)


def pm_divides(p, q):
    """Pseudo-monomial p divides q: its on- and off-sets lie in q's."""
    return p.on <= q.on and p.off <= q.off


def pm_vanishes_on(p, c):
    """p is zero on every codeword of c: no codeword holds all of p.on
    and none of p.off."""
    return not any(p.on <= w and not p.off & w for w in c.words)


@pytest.fixture(scope="session")
def pierced_n4_k3():
    return list(enumerate_pierced_codes(4, 3))


@pytest.fixture(scope="session")
def pierced_n4_k2():
    return list(enumerate_pierced_codes(4, 2))


def seeded_pierced(n, count, seed, max_k=3):
    """``count`` seeded (code, sequence) pairs on n neurons; each step is
    a uniformly drawn partition, drawn again until it is admissible."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        c, steps = BASE_CODE, []
        while c.n < n:
            blocks = ([], [], [])
            for i in c.neurons:
                blocks[rng.randrange(3)].append(i)
            s = PiercingStep(*map(frozenset, blocks))
            if len(s.lam) <= max_k and is_pierceable(c, s):
                c = pierce(c, s)
                steps.append(s)
        out.append((c, PiercingSequence(steps)))
    return out
