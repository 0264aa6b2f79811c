"""Pseudo-monomials, canonical forms, and intersection completeness."""

import itertools
import random

import pytest

from piercedcodes.codes import NeuralCode, code
from piercedcodes.neural_ideal import (
    PseudoMonomial,
    canonical_form,
    is_intersection_complete,
)
from .conftest import pm_divides, pm_vanishes_on


def pm(on=(), off=()):
    return PseudoMonomial(frozenset(on), frozenset(off))


def test_pseudo_monomial_basics():
    p = pm([1], [2, 3])
    assert p.degree == 3
    assert str(p) == "x1*(1-x2)*(1-x3)"
    assert str(pm()) == "1"
    with pytest.raises(ValueError):
        pm([1], [1])


def test_canonical_form_two_neuron_code():
    # {(), 1, 12}: neuron 2 fires only with neuron 1
    cf = canonical_form(code(2, [], [1], [1, 2]))
    assert {str(p) for p in cf} == {"x2*(1-x1)"}


def test_canonical_form_full_code_is_empty():
    full = code(2, [], [1], [2], [1, 2])
    assert canonical_form(full) == []


def test_canonical_form_cubic_example():
    # {(), 1, 2, 3, 123}: no two neurons fire without the third
    c = code(3, [], [1], [2], [3], [1, 2, 3])
    cf = canonical_form(c)
    assert max(p.degree for p in cf) == 3
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
        covered = any(pm_divides(q, p) for q in cf)
        assert pm_vanishes_on(p, c) == covered, (str(c), str(p))
    for q in cf:
        assert pm_vanishes_on(q, c)
        assert not any(r is not q and pm_divides(r, q) for r in cf)


def _all_words(n):
    return [frozenset(w) for r in range(n + 1) for w in itertools.combinations(range(1, n + 1), r)]


def test_cf_completeness_random_codes():
    rng = random.Random(11)
    words = _all_words(3)
    for _ in range(60):
        chosen = rng.sample(words, rng.randint(1, len(words)))
        _cf_completeness_oracle(NeuralCode(3, frozenset(chosen)))
    # on 1..6 neurons: {∅}, single codewords, and random codes as drawn,
    # with a neuron never on and with it always on
    rng = random.Random(29)
    for n in range(1, 7):
        words = _all_words(n)
        _cf_completeness_oracle(NeuralCode(n, frozenset({frozenset()})))
        for _ in range(8):
            j = rng.randint(1, n)
            chosen = rng.sample(words, rng.randint(1, len(words)))
            for ws in ([rng.choice(words)], chosen, [w - {j} for w in chosen],
                       [w | {j} for w in chosen]):
                _cf_completeness_oracle(NeuralCode(n, frozenset(ws)))


def _wide_code(n):
    """{∅, 1, 1…n}: three codewords, and (n - 1)² canonical-form elements."""
    return code(n, [], [1], range(1, n + 1))


def _circles_code(n):
    """{∅, 1, …, n}: n disjoint circles, a pierced code, and n(n - 1)/2
    canonical-form elements; a walk that extends sets in neuron order
    visits every set of off-literals here, 2^n of them."""
    return code(n, [], *([i] for i in range(1, n + 1)))


def _sparse_code(n, k, seed):
    """k distinct seeded codewords on n neurons, each neuron on with chance 1/3."""
    rng = random.Random(seed)
    words = set()
    while len(words) < k:
        words.add(frozenset(i for i in range(1, n + 1) if rng.random() < 1 / 3))
    return NeuralCode(n, frozenset(words))


def _assert_minimal_vanishing(cf, c):
    """Each element vanishes on c, and dropping any one literal does not."""
    for p in cf:
        assert pm_vanishes_on(p, c), str(p)
        for i in p.on:
            assert not pm_vanishes_on(pm(p.on - {i}, p.off), c), str(p)
        for j in p.off:
            assert not pm_vanishes_on(pm(p.on, p.off - {j}), c), str(p)


@pytest.mark.parametrize("n", [30, 63])
def test_cf_wide_sparse_code(n):
    for c, size in ((_wide_code(n), (n - 1) ** 2), (_circles_code(n), n * (n - 1) // 2)):
        cf = canonical_form(c)
        assert len(cf) == size
        _assert_minimal_vanishing(cf, c)


def test_cf_seeded_sparse_code_n20():
    c = _sparse_code(20, 8, seed=20)
    cf = canonical_form(c)
    assert cf
    _assert_minimal_vanishing(cf, c)


def test_cf_wide_sparse_codes_against_oracles():
    # the 3^n scan, and a 2^n sweep: every non-codeword is killed by an element
    for n in range(2, 11):
        for c in (_wide_code(n), _circles_code(n), _sparse_code(n, 4, seed=n)):
            _cf_completeness_oracle(c)
            cf = canonical_form(c)
            for x in _all_words(n):
                if x not in c:
                    assert any(p.on <= x and not p.off & x for p in cf), (str(c), sorted(x))


def test_intersection_complete():
    assert is_intersection_complete(code(2, [], [1], [1, 2]))
    assert not is_intersection_complete(code(2, [1], [2]))
    # 13 and 23 present but 3 missing
    assert not is_intersection_complete(code(3, [], [1, 3], [2, 3]))


def _ic_oracle(c):
    return all(a & b in c for a, b in itertools.combinations(c.words, 2))


def _cf_criterion(c):
    """Intersection completeness read off the canonical form: no element
    has more than one off-neuron."""
    return all(len(p.off) <= 1 for p in canonical_form(c))


def test_intersection_complete_random_codes():
    rng = random.Random(5)
    words = [frozenset(w) for r in range(5) for w in itertools.combinations(range(1, 5), r)]
    for _ in range(80):
        chosen = rng.sample(words, rng.randint(1, 10))
        c = NeuralCode(4, frozenset(chosen))
        assert is_intersection_complete(c) == _ic_oracle(c) == _cf_criterion(c)


def test_pierced_codes_have_quadratic_cf(pierced_n4_k3):
    for c, _ in pierced_n4_k3:
        assert all(p.degree <= 2 for p in canonical_form(c)), str(c)
        assert is_intersection_complete(c) and _cf_criterion(c), str(c)
