"""Codeword order, code containers, and serialization."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from piercedcodes.codes import (
    NeuralCode,
    code,
    word,
    word_key,
    word_str,
)


def _compare_oracle(c, d):
    """Three-clause definition of the order, written independently of word_key."""
    mc = max(c) if c else 0
    md = max(d) if d else 0
    if mc != md:
        return -1 if mc < md else 1
    if len(c) != len(d):
        return -1 if len(c) > len(d) else 1
    sc, sd = sorted(c), sorted(d)
    if sc == sd:
        return 0
    return -1 if sc < sd else 1


def all_words(n):
    items = list(range(1, n + 1))
    for r in range(n + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)


def test_compare_matches_oracle_exhaustively_n6():
    words = list(all_words(6))
    for c in words:
        for d in words:
            kc, kd = word_key(c), word_key(d)
            assert (kc > kd) - (kc < kd) == _compare_oracle(c, d)


def test_compare_examples():
    assert word_key(word([1])) < word_key(word([1, 2]))
    assert word_key(word([1, 2])) < word_key(word([2]))
    assert word_key(word()) < word_key(word([1]))
    assert word_key(word([2, 3])) > word_key(word([1, 2, 3]))
    assert word_key(word([1, 3])) == word_key(word([3, 1]))


def test_order_is_total_n5():
    words = list(all_words(5))
    keys = [word_key(c) for c in words]
    assert len(set(keys)) == len(keys)


def test_sort_reference_chain():
    c = code(3, [], [1], [1, 2], [2], [1, 2, 3], [2, 3])
    assert [word_str(w) for w in c.sorted_words()] == [
        "{}", "1", "12", "2", "123", "23",
    ]


def test_sort_is_idempotent_and_stable():
    c = code(4, [2, 4], [], [1, 3], [4], [1, 2, 3, 4])
    once = c.sorted_words()
    assert c.sorted_words() == once
    assert sorted(once, key=word_key) == once


@given(
    st.lists(st.frozensets(st.integers(1, 6), max_size=6), max_size=12)
)
def test_sorted_words_agrees_with_pairwise_compare(words):
    c = NeuralCode(6, frozenset(words))
    out = c.sorted_words()
    for a, b in zip(out, out[1:]):
        assert _compare_oracle(a, b) == -1


def test_word_str():
    assert word_str(word()) == "{}"
    assert word_str(word([3, 1])) == "13"


def test_json_roundtrip():
    c = code(4, [], [1, 4], [2, 3])
    assert NeuralCode.from_json_dict(c.to_json_dict()) == c
    d = c.to_json_dict()
    assert d["neurons"] == 4
    assert d["codewords"][0] == []


def test_validation():
    with pytest.raises(ValueError):
        NeuralCode(2, frozenset({frozenset({3})}))
    with pytest.raises(ValueError):
        NeuralCode(-1)
    with pytest.raises(ValueError):
        NeuralCode(64)
    # the homogenizing dummy neuron 0 is allowed
    NeuralCode(2, frozenset({frozenset({0, 1})}))
