"""Exact rational LP: Fourier-Motzkin and the simplex cross-check."""

import random
from fractions import Fraction as F

from piercedcodes.exactlp import (
    fm_max_last,
    fm_stages,
    fm_witness,
    max_slack,
    solve_linear,
    strictly_feasible,
)

from .simplex import simplex_max, simplex_max_slack


def test_solve_linear():
    x, null = solve_linear([(1, 1), (1, -1)], [2, 0])
    assert x == (F(1), F(1)) and null == []
    x, null = solve_linear([(1, 1, 0)], [3])
    assert len(null) == 2
    assert solve_linear([(1, 0), (1, 0)], [1, 2]) is None


def test_fm_feasibility():
    # unit square strictly contains a point; x <= 0 and x >= 1 do not
    square = [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
    assert strictly_feasible(square)
    assert not strictly_feasible([((1,), 0), ((-1,), -1)])


def test_fm_max_last():
    rows = [((1, 1), 4), ((-1, 0), 0), ((0, -1), 0), ((1, -1), 1)]
    stages = fm_stages(rows)
    assert len(stages) == 2
    assert fm_max_last(stages) == F(4)
    # back-substitution through the same stages reaches the supremum
    x, y = fm_witness(stages, F(4))
    assert y == 4 and all(sum(p * q for p, q in zip(a, (x, y))) <= b for a, b in rows)
    assert fm_max_last(fm_stages([((1,), 1), ((-1,), -2)])) is None


def test_fm_project_infeasible():
    assert fm_stages([((1, 1), 0), ((-1, -1), -1)]) is None
    assert fm_max_last(None) is None


def test_max_slack_square():
    square = [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
    margin, point = max_slack(square)
    assert margin == F(1, 2)
    assert all(0 < x < 1 for x in point)


def test_max_slack_with_equalities():
    # on the diagonal x = y inside the square
    square = [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
    margin, point = max_slack(square, eq_rows=[((1, -1), 0)])
    assert margin is not None and margin > 0
    assert point[0] == point[1]
    assert all(0 < x < 1 for x in point)
    # equalities outside the strict region
    margin, point = max_slack(square, eq_rows=[((1, 0), 5)])
    assert margin is None


def test_simplex_basic():
    val, z = simplex_max((1, 1), [(1, 0), (0, 1)], (2, 3))
    assert val == F(5) and z == (F(2), F(3))
    val, z = simplex_max((1,), [(1,), (-1,)], (1, -2))
    assert val is None


def test_engines_agree_on_random_systems():
    rng = random.Random(17)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        rows = []
        # a box keeps everything bounded
        for i in range(nvars):
            e = [0] * nvars
            e[i] = 1
            rows.append((tuple(e), 3))
            rows.append((tuple(-x for x in e), 3))
        for _ in range(rng.randint(1, 4)):
            a = tuple(F(rng.randint(-3, 3)) for _ in range(nvars))
            if all(x == 0 for x in a):
                continue
            rows.append((a, F(rng.randint(-2, 4))))
        m_fm, p_fm = max_slack(rows)
        m_sx, p_sx = simplex_max_slack(rows)
        assert (m_fm is None) == (m_sx is None)
        if m_fm is not None:
            assert m_fm == m_sx
            for a, b in rows:
                assert sum(x * y for x, y in zip(a, p_fm)) < b
