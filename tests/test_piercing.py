"""Piercing, sequence recovery, and enumeration."""

import random

import pytest

from piercedcodes.codes import NeuralCode, code, word
from piercedcodes.piercing import (
    BASE_CODE,
    PiercingSequence,
    PiercingStep,
    ResourceLimitExceeded,
    enumerate_pierced_codes,
    is_pierceable,
    pierce,
    recover_piercing_sequence,
    replay,
)
from .conftest import FIG_CODE, FULL_3


def step(lam=(), sigma=(), tau=()):
    return PiercingStep(frozenset(lam), frozenset(sigma), frozenset(tau))


C4 = code(2, [], [1], [1, 2], [2])


def test_pierceability_examples():
    assert is_pierceable(C4, step(lam=[1, 2]))
    assert not is_pierceable(code(2, [], [1], [2]), step(lam=[1, 2]))
    assert not is_pierceable(code(2, [], [1], [1, 2]), step(lam=[1, 2]))


def test_pierce_examples():
    assert pierce(BASE_CODE, step(lam=[1])).words == C4.words
    assert pierce(C4, step(lam=[2], sigma=[1])).words == code(
        3, [], [1], [1, 2], [2], [1, 3], [1, 2, 3]
    ).words
    assert pierce(C4, step(lam=[2], tau=[1])).words == code(
        3, [], [1], [1, 2], [2], [2, 3], [3]
    ).words
    assert pierce(C4, step(lam=[1, 2])).words == code(
        3, [], [1], [1, 2], [2], [1, 3], [2, 3], [1, 2, 3], [3]
    ).words


def test_pierce_rejects_bad_input():
    with pytest.raises(ValueError):
        pierce(code(2, [], [1], [2]), step(lam=[1, 2]))
    with pytest.raises(ValueError):
        step(lam=[1], sigma=[1]).validate_for(1)
    with pytest.raises(ValueError):
        step(lam=[1]).validate_for(2)


def test_pierce_size_formula():
    for c, s in [
        (BASE_CODE, step(lam=[1])),
        (C4, step(lam=[1, 2])),
        (C4, step(sigma=[1], tau=[2])),
    ]:
        assert len(pierce(c, s)) == len(c) + 2 ** len(s.lam)


def test_replay_two_step_build():
    seq = PiercingSequence([step(lam=[1]), step(lam=[2], sigma=[1])])
    assert replay(seq) == FIG_CODE


def test_recover_two_step_build():
    seq = recover_piercing_sequence(FIG_CODE, max_k=3)
    assert seq is not None and seq.relabeling is None
    assert [s.to_json_dict() for s in seq] == [
        {"lambda": [1], "sigma": [], "tau": []},
        {"lambda": [2], "sigma": [1], "tau": []},
    ]


def test_recover_rejects_non_pierced():
    assert recover_piercing_sequence(code(2, [], [1, 2]), 2) is None
    # intersection-incomplete, so no piercing order exists
    assert recover_piercing_sequence(code(2, [1], [2]), 2) is None


def test_recover_respects_degree_cap():
    c = pierce(C4, step(lam=[1, 2]))
    assert recover_piercing_sequence(c, max_k=1) is None
    assert recover_piercing_sequence(c, max_k=2) is not None


def test_recover_with_relabeling():
    # FIG_CODE with labels permuted by 1->2, 2->3, 3->1
    remap = {1: 2, 2: 3, 3: 1}
    scrambled = code(
        3, *[[remap[i] for i in w] for w in FIG_CODE.words]
    )
    assert recover_piercing_sequence(scrambled, 3) is None
    seq = recover_piercing_sequence(scrambled, 3, relabel=True)
    assert seq is not None and seq.relabeling is not None
    rebuilt = replay(seq)
    relabeled = code(
        3,
        *[[seq.relabeling[i - 1] for i in w] for w in rebuilt.words],
    )
    assert relabeled.words == scrambled.words


def _relabeled_replay(seq):
    """The code a sequence rebuilds, in the labels of the code it came from."""
    order = seq.relabeling or tuple(range(1, len(seq) + 2))
    return frozenset(frozenset(order[i - 1] for i in w) for w in replay(seq).words)


def test_relabel_steps_replay():
    c = code(4, [], [1, 2], [1, 2, 3], [2], [2, 4])
    seq = recover_piercing_sequence(c, 3, relabel=True)
    assert seq is not None and seq.relabeling is not None
    assert _relabeled_replay(seq) == c.words


def _random_step(c, rng, max_k):
    while True:
        blocks = ([], [], [])
        for i in c.neurons:
            blocks[rng.randrange(3)].append(i)
        s = step(*blocks)
        if len(s.lam) <= max_k and is_pierceable(c, s):
            return s


def test_relabel_replays_on_seeded_relabellings():
    rng = random.Random(41)
    fives = [c for c, _ in enumerate_pierced_codes(5, 2) if c.n == 5]
    codes = rng.sample(fives, 12)
    codes += [pierce(c, _random_step(c, rng, 2)) for c in rng.sample(fives, 12)]
    for c in codes:
        perm = list(c.neurons)
        rng.shuffle(perm)
        scrambled = NeuralCode(
            c.n, frozenset(frozenset(perm[i - 1] for i in w) for w in c.words)
        )
        seq = recover_piercing_sequence(scrambled, 2, relabel=True)
        assert seq is not None, str(scrambled)
        assert _relabeled_replay(seq) == scrambled.words, str(scrambled)


def test_sequence_json_roundtrip():
    seq = PiercingSequence([step(lam=[1]), step(lam=[2], sigma=[1])], (2, 3, 1))
    assert PiercingSequence.from_json_dict(seq.to_json_dict()) == seq
    assert seq.degree == 1


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_pierced_codes(4, 2)) == 239
    assert sum(1 for _ in enumerate_pierced_codes(4, 3)) == 240
    assert sum(1 for _ in enumerate_pierced_codes(3, 2)) == 23
    assert sum(1 for _ in enumerate_pierced_codes(2, 2)) == 4


def test_enumeration_includes_full_3_code():
    codes = {c.words for c, _ in enumerate_pierced_codes(3, 2)}
    assert FULL_3.words in codes


def test_enumeration_replay_consistency(pierced_n4_k3):
    for c, seq in pierced_n4_k3:
        assert replay(seq) == c
        assert c.labeled_by_construction
        assert word() in c and word([1]) in c


def test_enumeration_dedup(pierced_n4_k3):
    keys = [(c.n, c.words) for c, _ in pierced_n4_k3]
    assert len(set(keys)) == len(keys)


def test_enumeration_resource_cap():
    with pytest.raises(ResourceLimitExceeded):
        list(enumerate_pierced_codes(4, 2, max_codes=10))
