"""Piercing, sequence recovery, and enumeration."""

import itertools
import random
from collections import deque

import pytest

from piercedcodes import piercing, toric
from piercedcodes.codes import NeuralCode, code, word
from piercedcodes.piercing import (
    BASE_CODE,
    PiercingSequence,
    PiercingStep,
    ResourceCapExceeded,
    _recover_last_step,
    enumerate_pierced_codes,
    is_pierceable,
    pierce,
    recover_piercing_sequence,
    replay,
)
from .conftest import FIG_CODE, FULL_3, seeded_pierced


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
    # neuron 4 looks like a piercing of lambda = {1, 2, 3}, but 3 and 23
    # are missing below it
    rest = [[], [1], [2], [1, 2], [1, 3], [1, 2, 3]]
    assert recover_piercing_sequence(code(4, *rest, *(w + [4] for w in _all_words(3))), 3) is None
    # every code on 3 neurons: detected exactly when some relabeling of it
    # is enumerated, and the sequence rebuilds it
    pierced = {c.words for c, _ in enumerate_pierced_codes(3, 2) if c.n == 3}
    perms = list(itertools.permutations(range(1, 4)))
    words = [frozenset(w) for w in _all_words(3)]
    for r in range(1, len(words) + 1):
        for chosen in itertools.combinations(words, r):
            c = NeuralCode(3, frozenset(chosen))
            seq = recover_piercing_sequence(c, 2)
            assert (seq is not None) == (c.words in pierced), str(c)
            assert seq is None or replay(seq) == c
            relabeled = {frozenset(frozenset(p[i - 1] for i in w) for w in c.words) for p in perms}
            seq = recover_piercing_sequence(c, 2, relabel=True)
            assert (seq is not None) == bool(relabeled & pierced), str(c)
            assert seq is None or _relabeled_replay(seq) == c.words


def _all_words(n):
    return [list(w) for r in range(n + 1) for w in itertools.combinations(range(1, n + 1), r)]


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


def _padded(core, n):
    """A 3-neuron core beside singletons 4..n, on n neurons."""
    return code(n, *core, *[[i] for i in range(4, n + 1)])


NOT_PIERCED_CORES = (
    ([], [1], [2], [3], [1, 2, 3]),
    ([], [1], [2], [3], [1, 2], [1, 3], [2, 3]),
    ([], [1], [2], [1, 2], [1, 3], [2, 3]),
)


def test_relabel_search_is_bounded():
    # non-pierced cores padded with singletons: every singleton neuron is
    # removable, so a search over removal orders that backtracks visits
    # about 2^n label sets; deletion makes at most n^2 removal attempts
    for c in [
        _padded(NOT_PIERCED_CORES[0], 12),
        _padded(NOT_PIERCED_CORES[1], 19),
        _padded(NOT_PIERCED_CORES[1], 40),
    ]:
        assert recover_piercing_sequence(c, 3, relabel=True) is None


def _search_oracle(c, max_k, relabel=False):
    """Exhaustive search over removal orders, backtracking, with a memo
    of the label sets that failed; the contract of
    ``recover_piercing_sequence`` on nonempty codes."""
    failed = set()

    def rec(words, labels):
        if len(labels) == 1:
            if words == {frozenset(), frozenset(labels)}:
                return (), labels
            return None
        if labels in failed:
            return None
        neurons = frozenset(labels)
        for j in reversed(labels) if relabel else labels[-1:]:
            got = _recover_last_step(words, neurons, j, max_k)
            if got is None:
                continue
            last, rest = got
            deeper = rec(rest, tuple(l for l in labels if l != j))
            if deeper is not None:
                steps, order = deeper
                return steps + (last,), order + (j,)
        failed.add(labels)
        return None

    got = rec(c.words, tuple(c.neurons))
    if got is None:
        return None
    steps, order = got
    relabeling = None if order == tuple(c.neurons) else order
    moved = PiercingSequence((), relabeling).construction_word
    steps = tuple(PiercingStep(moved(s.lam), moved(s.sigma), moved(s.tau)) for s in steps)
    return PiercingSequence(steps, relabeling)


def _agrees_with_oracle(c, max_k, relabel):
    return recover_piercing_sequence(c, max_k, relabel) == _search_oracle(c, max_k, relabel)


def test_recover_matches_search_oracle_n3():
    words = [frozenset(w) for w in _all_words(3)]
    for r in range(1, len(words) + 1):
        for chosen in itertools.combinations(words, r):
            c = NeuralCode(3, frozenset(chosen))
            for max_k in range(4):
                for relabel in (False, True):
                    assert _agrees_with_oracle(c, max_k, relabel), (str(c), max_k, relabel)


def test_recover_matches_search_oracle_n4():
    # every code on 4 neurons that contains the empty word
    nonempty = [frozenset(w) for w in _all_words(4)][1:]
    for mask in range(1 << len(nonempty)):
        chosen = [w for i, w in enumerate(nonempty) if mask >> i & 1]
        c = NeuralCode(4, frozenset([frozenset(), *chosen]))
        assert _agrees_with_oracle(c, 3, True), str(c)


def test_recover_matches_search_oracle_seeded_n6():
    # relabelled pierced codes, every other one with one word toggled
    rng = random.Random(6)
    all_six = [frozenset(w) for w in _all_words(6)]
    for i, (c, _) in enumerate(seeded_pierced(6, 1500, seed=6, max_k=2)):
        words = set(c.words)
        if i % 2:
            words ^= {rng.choice(all_six)}
        perm = list(c.neurons)
        rng.shuffle(perm)
        moved = NeuralCode(6, frozenset(frozenset(perm[l - 1] for l in w) for w in words))
        for max_k in (1, 2):
            assert _agrees_with_oracle(moved, max_k, True), (str(moved), max_k)


def test_recover_matches_search_oracle_padded_cores():
    # the relabelled non-pierced cores beside 5, 6 and 7 singletons
    rng = random.Random(3)
    for singletons in (5, 6, 7):
        for core in NOT_PIERCED_CORES:
            c = _padded(core, 3 + singletons)
            perm = list(c.neurons)
            rng.shuffle(perm)
            moved = NeuralCode(c.n, frozenset(frozenset(perm[l - 1] for l in w) for w in c.words))
            assert recover_piercing_sequence(moved, 3, relabel=True) is None
            assert _agrees_with_oracle(moved, 3, True), str(moved)


def test_recover_edge_cases():
    assert recover_piercing_sequence(NeuralCode(0, frozenset({frozenset()})), 3) is None
    assert recover_piercing_sequence(code(1, [], [1]), 0) == PiercingSequence()
    assert recover_piercing_sequence(code(1, [1]), 3) is None
    # neuron 2 fires in no codeword
    assert recover_piercing_sequence(code(2, [], [1]), 3, relabel=True) is None
    with pytest.raises(ValueError):
        recover_piercing_sequence(NeuralCode(2), 3)
    for c in [
        NeuralCode(0, frozenset({frozenset()})),
        code(1, [], [1]),
        code(1, [1]),
        code(2, [], [1]),
        code(2, [], [2]),
        code(3, [], [2], [2, 3]),
    ]:
        for relabel in (False, True):
            assert _agrees_with_oracle(c, 3, relabel), str(c)


def test_sequence_json_roundtrip():
    seq = PiercingSequence([step(lam=[1]), step(lam=[2], sigma=[1])], (2, 3, 1))
    assert seq.to_json_dict() == {
        "steps": [
            {"lambda": [1], "sigma": [], "tau": []},
            {"lambda": [2], "sigma": [1], "tau": []},
        ],
        "relabeling": [2, 3, 1],
    }
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
        assert replay(recover_piercing_sequence(c, 3)) == c
        assert NeuralCode.from_json_dict(c.to_json_dict()) == c
        assert word() in c and word([1]) in c


def test_enumeration_dedup(pierced_n4_k3):
    keys = [(c.n, c.words) for c, _ in pierced_n4_k3]
    assert len(set(keys)) == len(keys)


def test_enumeration_reaches_each_code_once():
    # a child's parent and step are read off its words, so the children
    # of distinct (frontier code, admissible step) pairs are distinct;
    # the oracle below yields one child per pair
    codes = list(enumerate_pierced_codes(5, 4))
    children = {(c.n, c.words) for c, _ in codes if c.n > 1}
    assert len(children) == len(codes) - 1


def _enumeration_oracle(max_n, max_k):
    """Breadth-first closure that tries all 3^n (lambda, sigma, tau)
    assignments on every frontier code, in itertools.product order."""
    found = [(BASE_CODE, PiercingSequence())]
    frontier = deque(found)
    while frontier:
        current, seq = frontier.popleft()
        if current.n >= max_n:
            continue
        for blocks in itertools.product((0, 1, 2), repeat=current.n):
            s = step(*([i for i, b in zip(current.neurons, blocks) if b == part]
                       for part in range(3)))
            if s.degree <= max_k and is_pierceable(current, s):
                child = (pierce(current, s), PiercingSequence(seq.steps + (s,)))
                found.append(child)
                frontier.append(child)
    return found


@pytest.mark.parametrize("max_k", range(5))
def test_enumeration_matches_3n_oracle(max_k):
    # codes come level by level, so the n=5 list starts with each shorter one
    codes = list(enumerate_pierced_codes(5, max_k))
    assert codes == _enumeration_oracle(5, max_k)
    for n in range(1, 5):
        assert list(enumerate_pierced_codes(n, max_k)) == [x for x in codes if x[0].n <= n]


def test_enumeration_tests_each_child_once(monkeypatch):
    calls = []

    def counted(code, s):
        calls.append(s)
        return is_pierceable(code, s)

    monkeypatch.setattr(piercing, "is_pierceable", counted)
    codes = list(enumerate_pierced_codes(5, 2))
    assert len(calls) == len(codes) - 1 == 4230


def test_enumeration_resource_cap():
    with pytest.raises(ResourceCapExceeded):
        list(enumerate_pierced_codes(4, 2, max_codes=10))
    # one cap exception: Buchberger's caps raise the same class
    assert toric.ResourceCapExceeded is ResourceCapExceeded
