"""Exact hyperplane realizations."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from piercedcodes import hyperplane
from piercedcodes.balls import build_ball_realization
from piercedcodes.codes import code
from piercedcodes.exactlp import max_slack, solve_linear
from piercedcodes.hyperplane import (
    arrangement_svg,
    bound_inequalities,
    build_hyperplane_realization,
    nondegeneracy_margin,
    realized_code,
    verify_hyperplane_realization,
)
from piercedcodes.piercing import (
    PiercingSequence,
    PiercingStep,
    recover_piercing_sequence,
)
from .conftest import FIG_CODE, seeded_pierced


def seq_for(c, max_k=3):
    s = recover_piercing_sequence(c, max_k)
    assert s is not None
    return s


def _solved_facets(vertices):
    """Facet rows (a, b), a.x < b, of any simplex, row k opposite vertex
    k: one linear solve per facet, the oracle for the lifted rows."""
    dim = len(vertices[0])
    rows = []
    for k in range(len(vertices)):
        others = [v for i, v in enumerate(vertices) if i != k]
        _, null = solve_linear([tuple(v) + (F(-1),) for v in others], [F(0)] * dim)
        assert len(null) == 1, "vertices are not affinely independent"
        a, b = null[0][:dim], null[0][dim]
        value = sum(ai * xi for ai, xi in zip(a, vertices[k])) - b
        assert value != 0
        if value > 0:
            a, b = tuple(-x for x in a), -b
        rows.append((a, b))
    return rows


def _positive_multiple(row, of):
    (a, b), (a0, b0) = row, of
    scale = sum(map(abs, a)) / sum(map(abs, a0))
    return scale > 0 and a == tuple(scale * x for x in a0) and b == scale * b0


def test_bound_inequalities_triangle():
    tri = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
    rows = bound_inequalities(tri)
    centroid = (F(1, 3), F(1, 3))
    for a, b in rows:
        assert sum(x * y for x, y in zip(a, centroid)) < b
    bad = [
        [(F(0), F(0)), (F(1), F(0)), (F(2), F(0))],   # degenerate
        [(F(0), F(0)), (F(1), F(0)), (F(0), F(2))],   # apex not at height 1
        [(F(0), F(0)), (F(0), F(1)), (F(1), F(0))],   # vertex 1 off the x_1-axis
        [(F(1), F(0)), (F(1), F(0)), (F(0), F(1))],   # vertices 0 and 1 coincide
    ]
    for vertices in bad:
        with pytest.raises(ValueError):
            bound_inequalities(vertices)


@pytest.fixture(scope="module")
def built(pierced_n4_k3):
    """(code, realization) for every n <= 4 code and 20 seeded n = 5 ones."""
    return [(c, build_hyperplane_realization(seq))
            for c, seq in pierced_n4_k3 + seeded_pierced(5, 20, seed=8)]


def test_lifted_facets_match_solved_facets(built):
    # at every level of the construction, the rows lifted through the
    # apexes are the solved facets up to a positive factor, row for row
    for c, r in built:
        vs = r.bound_vertices
        for d in range(1, c.n + 1):
            level = [v[:d] for v in vs[: d + 1]]
            lifted, solved = bound_inequalities(level), _solved_facets(level)
            assert len(lifted) == len(solved) == d + 1
            assert all(map(_positive_multiple, lifted, solved)), (str(c), d)


def test_empty_sequence_is_split_segment():
    r = build_hyperplane_realization(PiercingSequence())
    assert r.dim == 1 and r.heights == [1]
    assert len(r.bound_vertices) == 2
    ok, _ = verify_hyperplane_realization(r, code(1, [], [1]))
    assert ok


def test_one_step_cone():
    seq = PiercingSequence([PiercingStep(frozenset({1}), frozenset(), frozenset())])
    r = build_hyperplane_realization(seq)
    assert r.dim == 2 and len(r.bound_vertices) == 3
    # the new halfspace x_2 >= h cuts below the apex
    assert 0 < r.heights[-1] < 1
    apex = r.bound_vertices[-1]
    assert apex[-1] == F(1)
    ok, _ = verify_hyperplane_realization(r, code(2, [], [1], [1, 2], [2]))
    assert ok


def test_background_only_step_apex_in_atom():
    # new neuron living entirely inside atom 1
    seq = PiercingSequence([PiercingStep(frozenset(), frozenset({1}), frozenset())])
    r = build_hyperplane_realization(seq)
    expected = code(2, [], [1], [1, 2])
    ok, disc = verify_hyperplane_realization(r, expected)
    assert ok, disc
    # the apex p-tilde sits strictly on the on-side of halfspace 1
    apex = r.bound_vertices[-1]
    assert apex[0] > r.heights[0]


def test_two_step_build_exact():
    r = build_hyperplane_realization(seq_for(FIG_CODE))
    ok, disc = verify_hyperplane_realization(r, FIG_CODE)
    assert ok, disc
    assert r.dim == 3
    assert nondegeneracy_margin(r) > 0
    assert realized_code(r).words == FIG_CODE.words


def test_everything_is_rational():
    r = build_hyperplane_realization(seq_for(FIG_CODE))
    assert all(isinstance(h, (F, int)) for h in r.heights)
    for v in r.bound_vertices:
        assert all(isinstance(x, (F, int)) for x in v)
    for w in r.witnesses.values():
        assert all(isinstance(x, (F, int)) for x in w)


def test_verify_catches_wrong_code():
    r = build_hyperplane_realization(seq_for(FIG_CODE))
    wrong = code(3, *[sorted(w) for w in FIG_CODE.words if len(w) != 1], [2, 3])
    ok, disc = verify_hyperplane_realization(r, wrong)
    assert not ok and disc["reason"] == "code mismatch"


def test_verify_names_a_witness_off_its_region():
    # one witness onto a hyperplane of its own neuron, one onto the plane
    # x_n = 0 of the bounding simplex's base facet
    r = build_hyperplane_realization(seq_for(FIG_CODE))
    c = frozenset({1, 2})
    r.witnesses[c] = tuple(r.heights[0] if i == 0 else x for i, x in enumerate(r.witnesses[c]))
    assert verify_hyperplane_realization(r, FIG_CODE) == (
        False, {"reason": "witness fails", "codeword": [1, 2]}
    )
    assert nondegeneracy_margin(r) <= 0
    r = build_hyperplane_realization(seq_for(FIG_CODE))
    w = r.witnesses[frozenset()]
    # every halfspace stays off, so only the bound row has no slack
    r.witnesses[frozenset()] = w[:-1] + (F(0),)
    assert verify_hyperplane_realization(r, FIG_CODE) == (
        False, {"reason": "witness fails", "codeword": []}
    )
    assert nondegeneracy_margin(r) <= 0


def test_one_lp_per_piercing_step(monkeypatch):
    # the witnesses come from the construction: the only LP the builder
    # solves places each step's piercing point
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return max_slack(*args, **kwargs)

    monkeypatch.setattr(hyperplane, "max_slack", counted)
    for c, seq in seeded_pierced(5, 20, seed=8):
        calls.clear()
        build_hyperplane_realization(seq)
        assert len(calls) == c.n - 1, str(c)


@pytest.mark.parametrize("n", [10, 12])
def test_exact_beyond_n6(n):
    for c, seq in seeded_pierced(n, 2, seed=n, max_k=2):
        r = build_hyperplane_realization(seq)
        ok, disc = verify_hyperplane_realization(r, c)
        assert ok, (str(c), disc)
        assert nondegeneracy_margin(r) > 0


def test_invalid_sequence_rejected():
    # both second steps need codeword 12, which the first step never
    # created: one through lambda, one through sigma
    first = PiercingStep(frozenset(), frozenset(), frozenset({1}))
    for second in (
        PiercingStep(frozenset({1, 2}), frozenset(), frozenset()),
        PiercingStep(frozenset(), frozenset({1, 2}), frozenset()),
    ):
        bad = PiercingSequence([first, second])
        for build in (build_hyperplane_realization, build_ball_realization):
            with pytest.raises(ValueError, match="not .* pierceable"):
                build(bad)


def test_svg_export():
    seq = seq_for(code(2, [], [1], [1, 2], [2]))
    r = build_hyperplane_realization(seq)
    svg = arrangement_svg(r)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") == 4
    r3 = build_hyperplane_realization(seq_for(FIG_CODE))
    with pytest.raises(ValueError):
        arrangement_svg(r3)


def test_sweep_n3(pierced_n4_k3):
    for c, seq in pierced_n4_k3:
        if c.n > 3:
            continue
        r = build_hyperplane_realization(seq)
        ok, disc = verify_hyperplane_realization(r, c)
        assert ok, (str(c), disc)
        assert r.dim == c.n
        assert len(r.bound_vertices) == c.n + 1
        assert nondegeneracy_margin(r) > 0


def test_verifier_agrees_with_realized_code(built):
    # realized_code decides all 2^n sign vectors by exact LPs; the
    # verifier solves none
    for c, r in built:
        ok, disc = verify_hyperplane_realization(r, c)
        assert ok, (str(c), disc)
        assert realized_code(r).words == c.words, str(c)


def _corrupt(r, rng):
    """A copy of ``r`` with one seeded change: a shifted height, a moved
    apex, or the newest coordinate's height moved out of (0, 1)."""
    n = r.dim
    m = rng.randrange(2, n + 1)
    small = F(rng.choice((-1, 1)), 2 ** rng.randrange(1, 9))
    kind = rng.randrange(3)
    hs = list(r.heights)
    if kind == 0:
        i = rng.randrange(n)
        hs[i] += small
        return dataclasses.replace(r, heights=hs)
    if kind == 1:
        vs = list(r.bound_vertices)
        k = rng.randrange(m - 1)
        vs[m] = tuple(x + small if j == k else x for j, x in enumerate(vs[m]))
        return dataclasses.replace(r, bound_vertices=vs)
    hs[m - 1] = (1 if small > 0 else 0) + small
    return dataclasses.replace(r, heights=hs)


def test_verifier_sound_under_corruption(pierced_n4_k3):
    # the witnesses are placed afresh for the corrupted arrangement, so
    # only the pattern bound stands between a changed code and acceptance
    rng = random.Random(23)
    cases = [x for x in pierced_n4_k3 if x[0].n >= 3]
    verdicts = Counter()
    for c, seq in rng.sample(cases, 50):
        r = _corrupt(build_hyperplane_realization(seq), rng)
        r.witnesses = {}
        for w in c.words:
            margin, point = max_slack(r.sign_rows(w))
            if margin is not None and margin > 0:
                r.witnesses[w] = point
        ok, disc = verify_hyperplane_realization(r, c)
        verdicts[disc["reason"] if disc else "accepted"] += 1
        if ok:
            assert realized_code(r).words == c.words, str(c)
    assert verdicts["accepted"] and verdicts["code mismatch"], verdicts
    assert verdicts["not a construction arrangement"], verdicts
