"""Shared fixtures: named example codes and cached enumerations."""

import random

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

# two 1-piercings of the base code: first the background-free one, then
# lambda={2}, sigma={1}
FIG_CODE = code(3, [], [1], [1, 2], [2], [1, 3], [1, 2, 3])

SORT_EXAMPLE = code(3, [], [1], [1, 2], [2], [1, 2, 3], [2, 3])

FULL_3 = code(3, [], [1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3])

CUBIC_CODE = code(3, [], [1], [2], [3], [1, 2, 3])


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
