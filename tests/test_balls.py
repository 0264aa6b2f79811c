"""Numeric ball realizations."""

import dataclasses
import random

import numpy as np
import pytest

from piercedcodes import balls
from piercedcodes.balls import (
    SAMPLE_BLOCK,
    BallConstructionError,
    BallRealization,
    _sampled_patterns,
    build_ball_realization,
    sphere_intersection,
    verify_ball_realization,
)
from piercedcodes.codes import code
from piercedcodes.piercing import (
    PiercingSequence,
    PiercingStep,
    enumerate_pierced_codes,
    recover_piercing_sequence,
)
from .conftest import FIG_CODE, SORT_EXAMPLE, seeded_pierced


def seq_for(c, max_k=3):
    s = recover_piercing_sequence(c, max_k)
    assert s is not None
    return s


def test_sphere_intersection_two_circles():
    centers = np.array([[0.0, 0.0], [1.0, 0.0]])
    radii = np.array([1.0, 1.0])
    q, rho, basis = sphere_intersection(centers, radii)
    assert np.allclose(q, [0.5, 0.0])
    assert np.isclose(rho, np.sqrt(3) / 2)
    assert basis.shape == (2, 1)
    # the two intersection points really lie on both circles
    for s in (1, -1):
        x = q + s * rho * basis[:, 0]
        assert np.isclose(np.linalg.norm(x - centers[0]), 1.0)
        assert np.isclose(np.linalg.norm(x - centers[1]), 1.0)


def test_sphere_intersection_disjoint_raises():
    centers = np.array([[0.0, 0.0], [5.0, 0.0]])
    radii = np.array([1.0, 1.0])
    with pytest.raises(BallConstructionError):
        sphere_intersection(centers, radii)


def test_pattern_and_margin():
    real = BallRealization(2, [np.zeros(2)], [1.0])
    assert real.pattern_at(np.array([0.1, 0.0])) == frozenset({1})
    assert real.pattern_at(np.array([2.0, 0.0])) == frozenset()
    assert real.witness_margin(frozenset({1}), np.zeros(2)) == 1.0
    assert real.witness_margin(frozenset(), np.array([3.0, 0.0])) == 2.0


def test_empty_sequence():
    real = build_ball_realization(PiercingSequence())
    assert real.dim == 1 and len(real.radii) == 1
    rep = verify_ball_realization(real, code(1, [], [1]), samples=2**12)
    assert rep["ok"]


def test_two_disk_chain():
    c = code(2, [], [1], [1, 2], [2])
    real = build_ball_realization(seq_for(c))
    assert real.dim == 2
    rep = verify_ball_realization(real, c, samples=2**14)
    assert rep["ok"] and rep["min_witness_margin"] > 1e-9
    assert rep["exact"] and rep["upper_bound_ok"] and rep["sampling_ok"]


def test_dimension_contract():
    # a 0-pierced chain fits in one dimension
    c = code(2, [], [1], [1, 2])
    seq = seq_for(c)
    assert seq.degree == 0
    real = build_ball_realization(seq)
    assert real.dim == 1


def test_reference_two_step_builds():
    for c in (FIG_CODE, SORT_EXAMPLE):
        seq = seq_for(c, 2)
        real = build_ball_realization(seq)
        assert real.dim == 2
        rep = verify_ball_realization(real, c, samples=2**14)
        assert rep["ok"], (str(c), rep)


def test_moved_sigma_witness_is_checked(monkeypatch):
    # a lambda = ∅ step moves its sigma-witness off the new centre by
    # 1.5 r_new; a radius too large for the step puts it in tau-ball 2
    seq = PiercingSequence([
        PiercingStep(frozenset(), frozenset(), frozenset({1})),
        PiercingStep(frozenset(), frozenset({1}), frozenset({2})),
    ])
    real = build_ball_realization(PiercingSequence(seq.steps[:1]))
    moved = real.witnesses[frozenset({1})] + 1.5 * 1.3 * np.eye(real.dim)[0]
    assert real.pattern_at(moved) == frozenset({2})
    monkeypatch.setattr(balls, "_choose_radius", lambda real, step, p: 1.3)
    with pytest.raises(BallConstructionError, match=r"witness for \[1\] lost after adding ball 3"):
        build_ball_realization(seq)


def test_radii_never_grow():
    real = build_ball_realization(seq_for(SORT_EXAMPLE, 2))
    assert all(b < a for a, b in zip(real.radii, real.radii[1:]))


def test_verification_flags_wrong_code():
    c = code(2, [], [1], [1, 2], [2])
    real = build_ball_realization(seq_for(c))
    smaller = code(2, [], [1], [2])
    rep = verify_ball_realization(real, smaller, samples=2**12)
    assert not rep["ok"]
    assert [1, 2] in rep["unexpected_patterns"] or not rep["witnesses_ok"]


def test_verification_deterministic():
    c = code(2, [], [1], [1, 2], [2])
    real = build_ball_realization(seq_for(c))
    a = verify_ball_realization(real, c, samples=2**12, seed=5)
    b = verify_ball_realization(real, c, samples=2**12, seed=5)
    assert a == b


def test_json_export():
    real = build_ball_realization(seq_for(FIG_CODE, 2))
    d = real.to_json_dict()
    assert d["dim"] == 2 and len(d["centers"]) == 3
    assert set(d["witnesses"]) == {
        "{}", "1", "12", "2", "13", "123",
    }


def test_sweep_n3_k2(pierced_n4_k2):
    for c, seq in pierced_n4_k2:
        if c.n > 3:
            continue
        real = build_ball_realization(seq)
        assert real.dim == max(1, seq.degree + 1)
        rep = verify_ball_realization(real, c, samples=2**13)
        assert rep["ok"], (str(c), rep)


def _built(cases):
    return [(c, build_ball_realization(seq)) for c, seq in cases]


def test_certificate_on_small_codes(pierced_n4_k3):
    for c, real in _built(pierced_n4_k3 + seeded_pierced(5, 50, seed=12)):
        rep = verify_ball_realization(real, c)
        assert rep["ok"] and rep["upper_bound_ok"] and rep["samples"] == 0, (str(c), rep)


def _dense_sample(real, rng):
    """Bitmask patterns of a seeded uniform sample of the whole picture
    and of a box around each ball."""
    centers, radii = np.array(real.centers), np.array(real.radii)
    lo, hi = real.bounding_box()
    boxes = [(lo, hi)] + [(c - 2 * r, c + 2 * r) for c, r in zip(centers, radii)]
    seen = set()
    for blo, bhi in boxes:
        pts = blo + rng.random((8192, real.dim)) * (bhi - blo)
        inside = ((pts[:, None, :] - centers[None]) ** 2).sum(axis=2) < radii**2
        seen |= {int(m) for m in np.unique(inside @ (1 << np.arange(len(radii))))}
    return seen


def test_certificate_sound_under_corruption():
    rng = random.Random(31)
    nrng = np.random.default_rng(31)
    verdicts = {True: 0, False: 0}
    for c, real in _built(seeded_pierced(4, 25, seed=30) + seeded_pierced(5, 25, seed=31)):
        i = rng.randrange(len(real.radii))
        if rng.random() < 0.5:
            radii = list(real.radii)
            radii[i] *= 1 + rng.uniform(0.02, 1.0)
            bad = dataclasses.replace(real, radii=radii)
        else:
            centers = list(real.centers)
            centers[i] = centers[i] + nrng.normal(size=real.dim) * real.radii[i] * 0.3
            bad = dataclasses.replace(real, centers=centers)
        rep = verify_ball_realization(bad, c)
        verdicts[rep["ok"]] += 1
        allowed = {sum(1 << (j - 1) for j in w) for w in c.words}
        if rep["ok"]:
            assert _dense_sample(bad, nrng) <= allowed, str(c)
    assert verdicts[True] and verdicts[False], verdicts


def test_bound_names_unwitnessed_pattern():
    # two overlapping disks realize 12 too; the witnesses cannot show it,
    # the pattern bound does
    real = BallRealization(
        2, [np.zeros(2), np.array([1.0, 0.0])], [1.0, 1.0],
        witnesses={
            frozenset(): np.array([3.0, 0.0]),
            frozenset({1}): np.array([-0.5, 0.0]),
            frozenset({2}): np.array([1.5, 0.0]),
        },
    )
    rep = verify_ball_realization(real, code(2, [], [1], [2]))
    assert rep["witnesses_ok"] and not rep["upper_bound_ok"] and not rep["ok"]
    assert rep["unexpected_patterns"] == [[1, 2]]
    # moved apart until they touch, they realize exactly that code
    apart = dataclasses.replace(
        real,
        centers=[np.zeros(2), np.array([2.0, 0.0])],
        witnesses={**real.witnesses, frozenset({2}): np.array([2.5, 0.0]),
                   frozenset(): np.array([5.0, 0.0])},
    )
    assert verify_ball_realization(apart, code(2, [], [1], [2]))["ok"]


def test_every_n5_code_builds():
    # the construction never fails: all pierced codes on 5 neurons with
    # k <= 3, each certified exactly
    cases = [(c, seq) for c, seq in enumerate_pierced_codes(5, 3) if c.n == 5]
    assert len(cases) == 4120
    for c, real in _built(cases):
        rep = verify_ball_realization(real, c)
        assert rep["ok"], (str(c), rep)


def test_sampled_patterns_match_pointwise_classification():
    # reference: each Sobol point classified on its own, its squared
    # distances summed in Python; two blocks, so the second one meets
    # patterns the first has found
    from scipy.stats import qmc

    for _c, seq in seeded_pierced(4, 4, seed=3):
        real = build_ball_realization(seq)
        found, drawn = _sampled_patterns(real, 2 * SAMPLE_BLOCK, seed=5)
        lo, hi = real.bounding_box()
        pts = lo + qmc.Sobol(d=real.dim, scramble=True, seed=5).random(drawn) * (hi - lo)
        balls = list(enumerate(zip(real.centers, real.radii)))
        want = {
            sum(1 << i for i, (c, r) in balls if sum((x - y) ** 2 for x, y in zip(p, c)) < r * r)
            for p in pts.tolist()
        }
        assert drawn == 2 * SAMPLE_BLOCK and found == want
