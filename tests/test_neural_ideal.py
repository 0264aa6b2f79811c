"""Pseudo-monomials, canonical forms, and intersection completeness."""

import itertools
import random

import pytest

from piercedcodes.codes import NeuralCode, code, word
from piercedcodes.neural_ideal import (
    PseudoMonomial,
    canonical_form,
    cf_max_degree,
    is_intersection_complete,
    vanishes_on,
)


def pm(on=(), off=()):
    return PseudoMonomial(frozenset(on), frozenset(off))


def test_pseudo_monomial_basics():
    p = pm([1], [2, 3])
    assert p.degree == 3 and p.type == 2
    assert pm([1, 2]).type == 1 and pm(off=[3]).type == 3
    assert str(p) == "x1*(1-x2)*(1-x3)"
    assert str(pm()) == "1"
    with pytest.raises(ValueError):
        pm([1], [1])


def test_divides():
    assert pm([1]).divides(pm([1, 2], [3]))
    assert not pm([1], [2]).divides(pm([1, 2]))


def test_evaluation():
    p = pm([1], [2])
    assert not p.evaluates_zero_on(word([1]))
    assert p.evaluates_zero_on(word([1, 2]))
    assert p.evaluates_zero_on(word()) and p.evaluates_zero_on(word([2]))


def test_canonical_form_two_neuron_code():
    # {(), 1, 12}: neuron 2 fires only with neuron 1
    cf = canonical_form(code(2, [], [1], [1, 2]))
    assert {str(p) for p in cf} == {"x2*(1-x1)"}


def test_canonical_form_full_code_is_empty():
    full = code(2, [], [1], [2], [1, 2])
    assert canonical_form(full) == []
    assert cf_max_degree(full) == 0


def test_canonical_form_cubic_example():
    # {(), 1, 2, 3, 123}: no two neurons fire without the third
    c = code(3, [], [1], [2], [3], [1, 2, 3])
    cf = canonical_form(c)
    assert cf_max_degree(c) == 3
    assert {str(p) for p in cf} == {
        "x1*x2*(1-x3)",
        "x1*x3*(1-x2)",
        "x2*x3*(1-x1)",
    }


def test_canonical_form_rejects_empty_code():
    with pytest.raises(ValueError):
        canonical_form(NeuralCode(2))


def _cf_completeness_oracle(c):
    """Every vanishing pseudo-monomial must be a multiple of a CF element,
    every CF element must vanish and be divisibility-minimal."""
    cf = canonical_form(c)
    neurons = list(c.neurons)
    for assignment in itertools.product((0, 1, 2), repeat=c.n):
        on = frozenset(i for i, a in zip(neurons, assignment) if a == 1)
        off = frozenset(i for i, a in zip(neurons, assignment) if a == 2)
        if not on and not off:
            continue
        p = PseudoMonomial(on, off)
        vanishes = all(p.evaluates_zero_on(w) for w in c.words)
        covered = any(q.divides(p) for q in cf)
        assert vanishes == covered, (str(c), str(p))
    for q in cf:
        assert vanishes_on(q, c)
        assert not any(r is not q and r.divides(q) for r in cf)


def test_cf_completeness_random_codes():
    rng = random.Random(11)
    words = [frozenset(w) for r in range(4) for w in itertools.combinations(range(1, 4), r)]
    for _ in range(60):
        chosen = rng.sample(words, rng.randint(1, len(words)))
        _cf_completeness_oracle(NeuralCode(3, frozenset(chosen)))


def test_intersection_complete():
    assert is_intersection_complete(code(2, [], [1], [1, 2]))
    assert not is_intersection_complete(code(2, [1], [2]))
    # 13 and 23 present but 3 missing
    assert not is_intersection_complete(code(3, [], [1, 3], [2, 3]))


def _ic_oracle(c):
    return all(a & b in c for a, b in itertools.combinations(c.words, 2))


def _cf_criterion(c):
    """Intersection completeness read off the canonical form: no element
    other than a monomial has more than one off-neuron."""
    return all(len(p.off) <= 1 for p in canonical_form(c) if p.type != 1)


def test_intersection_complete_random_codes():
    rng = random.Random(5)
    words = [frozenset(w) for r in range(5) for w in itertools.combinations(range(1, 5), r)]
    for _ in range(80):
        chosen = rng.sample(words, rng.randint(1, 10))
        c = NeuralCode(4, frozenset(chosen))
        assert is_intersection_complete(c) == _ic_oracle(c) == _cf_criterion(c)


def test_pierced_codes_have_quadratic_cf(pierced_n4_k3):
    for c, _ in pierced_n4_k3:
        assert cf_max_degree(c) <= 2, str(c)
        assert is_intersection_complete(c) and _cf_criterion(c), str(c)
