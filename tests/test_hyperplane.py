"""Exact hyperplane realizations."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from piercedcodes.codes import code
from piercedcodes.exactlp import max_slack
from piercedcodes.hyperplane import (
    Halfspace,
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


def test_halfspace_rows():
    hs = Halfspace((F(1), F(0)), F(1), 1)
    a, b = hs.on_row()
    assert a == (F(-1), F(0)) and b == F(-1)
    a, b = hs.off_row()
    assert a == (F(1), F(0)) and b == F(1)
    with pytest.raises(ValueError):
        Halfspace((F(0),), F(0))


def test_bound_inequalities_triangle():
    tri = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
    rows = bound_inequalities(tri)
    centroid = (F(1, 3), F(1, 3))
    for a, b in rows:
        assert sum(x * y for x, y in zip(a, centroid)) < b
    with pytest.raises(ValueError):
        bound_inequalities([(F(0), F(0)), (F(1), F(0)), (F(2), F(0))])


def test_empty_sequence_is_split_segment():
    r = build_hyperplane_realization(PiercingSequence())
    assert r.dim == 1 and len(r.halfspaces) == 1
    assert len(r.bound_vertices) == 2
    ok, _ = verify_hyperplane_realization(r, code(1, [], [1]))
    assert ok


def test_one_step_cone():
    seq = PiercingSequence([PiercingStep(frozenset({1}), frozenset(), frozenset())])
    r = build_hyperplane_realization(seq)
    assert r.dim == 2 and len(r.bound_vertices) == 3
    # the new halfspace is horizontal and cuts below the apex
    hs = r.halfspaces[-1]
    assert hs.normal == (F(0), F(1)) and 0 < hs.offset < 1
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
    assert r.halfspaces[0].value(apex) > 0


def test_two_step_build_exact():
    r = build_hyperplane_realization(seq_for(FIG_CODE))
    ok, disc = verify_hyperplane_realization(r, FIG_CODE)
    assert ok, disc
    assert r.dim == 3
    assert nondegeneracy_margin(r) > 0
    assert realized_code(r).words == FIG_CODE.words


def test_everything_is_rational():
    r = build_hyperplane_realization(seq_for(FIG_CODE))
    for hs in r.halfspaces:
        assert all(isinstance(x, (F, int)) for x in hs.normal)
        assert isinstance(hs.offset, (F, int))
    for v in r.bound_vertices:
        assert all(isinstance(x, (F, int)) for x in v)
    for w in r.witnesses.values():
        assert all(isinstance(x, (F, int)) for x in w)


def test_verify_catches_wrong_code():
    r = build_hyperplane_realization(seq_for(FIG_CODE))
    wrong = code(3, *[sorted(w) for w in FIG_CODE.words if len(w) != 1], [2, 3])
    ok, disc = verify_hyperplane_realization(r, wrong)
    assert not ok and disc["reason"] == "code mismatch"


def test_margin_shrinks_with_extra_halvings():
    seq = seq_for(code(2, [], [1], [1, 2], [2]))
    normal = build_hyperplane_realization(seq)
    shrunk = build_hyperplane_realization(seq, extra_scale_halvings=2)
    assert nondegeneracy_margin(shrunk) < nondegeneracy_margin(normal)


def test_invalid_sequence_rejected():
    # second step needs codeword 12, which the first step never created
    bad = PiercingSequence([
        PiercingStep(frozenset(), frozenset(), frozenset({1})),
        PiercingStep(frozenset({1, 2}), frozenset(), frozenset()),
    ])
    with pytest.raises((RuntimeError, ValueError)):
        build_hyperplane_realization(bad)


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


def test_verifier_agrees_with_realized_code(pierced_n4_k3):
    # realized_code decides all 2^n sign vectors by exact LPs; the
    # verifier solves none
    for c, seq in pierced_n4_k3 + seeded_pierced(5, 20, seed=8):
        r = build_hyperplane_realization(seq)
        ok, disc = verify_hyperplane_realization(r, c)
        assert ok, (str(c), disc)
        assert realized_code(r).words == c.words, str(c)


def _corrupt(r, rng):
    """A copy of ``r`` with one seeded change: a shifted offset, a moved
    apex, or a tilted normal on the newest coordinate's halfspace."""
    n = len(r.halfspaces)
    m = rng.randrange(2, n + 1)
    small = F(rng.choice((-1, 1)), 2 ** rng.randrange(1, 9))
    kind = rng.randrange(3)
    if kind == 0:
        i = rng.randrange(n)
        hss = list(r.halfspaces)
        hss[i] = dataclasses.replace(hss[i], offset=hss[i].offset + small)
        return dataclasses.replace(r, halfspaces=hss)
    if kind == 1:
        vs = list(r.bound_vertices)
        k = rng.randrange(m - 1)
        vs[m] = tuple(x + small if j == k else x for j, x in enumerate(vs[m]))
        return dataclasses.replace(r, bound_vertices=vs)
    hss = list(r.halfspaces)
    k = rng.randrange(m - 1)
    normal = tuple(x + small if j == k else x for j, x in enumerate(hss[m - 1].normal))
    hss[m - 1] = dataclasses.replace(hss[m - 1], normal=normal)
    return dataclasses.replace(r, halfspaces=hss)


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
