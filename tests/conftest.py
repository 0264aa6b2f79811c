"""Shared fixtures: named example codes and cached enumerations."""

import pytest

from piercedcodes.codes import code
from piercedcodes.piercing import enumerate_pierced_codes

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
