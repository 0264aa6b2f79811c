"""Toric ideals, monomial orders, Buchberger, nesting, and the scan."""

import itertools
import random

import pytest
import sympy

from piercedcodes import toric
from piercedcodes.codes import code, word
from piercedcodes.piercing import (
    PiercingSequence,
    PiercingStep,
    enumerate_pierced_codes,
    replay,
)
from piercedcodes.toric import (
    CodewordLexOrder,
    EliminationOrder,
    ListedLexOrder,
    ResourceCapExceeded,
    WeightedGrevlexOrder,
    binomial_from_words,
    buchberger,
    check_nesting,
    codeword_ring,
    conjecture_scan,
    elimination_ring,
    gb_max_degree,
    homogenize_with_dummy,
    in_kernel,
    monomial_map_image,
    normal_form,
    order_for,
    oriented,
    toric_ideal,
    two_subset_weights,
    verify_buchberger_certificate,
    yvar,
)
from .conftest import CUBIC_CODE, FULL_3, seeded_pierced

C4 = code(2, [], [1], [2], [1, 2])


def test_monomial_map_image():
    ring = codeword_ring(C4)
    m = ring.monomial({yvar([1, 2]): 1})
    assert monomial_map_image(m, ring) == {1: 1, 2: 1}
    m2 = ring.monomial({yvar([1]): 2, yvar([2]): 1})
    assert monomial_map_image(m2, ring) == {1: 2, 2: 1}


def test_generator_example_two_neurons():
    ideal = toric_ideal(C4)
    order = CodewordLexOrder(ideal.ring)
    gb = ideal.reduced_groebner_basis(order)
    assert [g.as_str(ideal.ring) for g in gb] == ["y_{1}*y_{2} - y_{12}"]


def test_lex_orientation_pinning():
    # y_12 is smaller than y_1*y_2 because {1,2} precedes {2}
    ring = codeword_ring(C4)
    order = CodewordLexOrder(ring)
    prod = ring.monomial({yvar([1]): 1, yvar([2]): 1})
    single = ring.monomial({yvar([1, 2]): 1})
    assert order.greater(prod, single)


def test_full_3_code_quadratic_ideal():
    ideal = toric_ideal(FULL_3)
    order = CodewordLexOrder(ideal.ring)
    gb = ideal.reduced_groebner_basis(order)
    assert gb and gb_max_degree(ideal, order) == 2
    # mutual membership against the reference quadratic generating set
    listed = [
        ([[1, 2]], [[1], [2]]),
        ([[1, 3]], [[1], [3]]),
        ([[2, 3]], [[2], [3]]),
        ([[1, 2, 3]], [[1, 2], [3]]),
    ]
    ref = [
        binomial_from_words(ideal.ring, order, plus, minus)
        for plus, minus in listed
    ]
    for b in ref:
        assert ideal.contains(b, order)
    ref_gb = buchberger(ref, order)
    for g in gb:
        assert normal_form(g, ref_gb, order) is None


def test_cubic_example_degree_3_both_orders():
    ideal = toric_ideal(CUBIC_CODE)
    lex = CodewordLexOrder(ideal.ring)
    assert gb_max_degree(ideal, lex) == 3
    gb = ideal.reduced_groebner_basis(lex)
    cubic = binomial_from_words(
        ideal.ring, lex, [[1], [2], [3]], [[1, 2, 3]]
    )
    assert any(g == cubic for g in gb)
    # no quadratic basis under the weighted order either
    wg = WeightedGrevlexOrder(ideal.ring, two_subset_weights)
    assert gb_max_degree(ideal, wg) == 3


def test_zero_pierced_codes_have_zero_ideal(pierced_n4_k3):
    for c, seq in pierced_n4_k3:
        if seq.degree == 0:
            assert toric_ideal(c).generators == []


def _random_monomial(ring, rng, max_deg):
    m = [0] * len(ring.variables)
    for _ in range(rng.randint(0, max_deg)):
        m[rng.randrange(len(m))] += 1
    return tuple(m)


@pytest.mark.parametrize("make_order", [
    lambda r: CodewordLexOrder(r),
    lambda r: WeightedGrevlexOrder(r, two_subset_weights),
    lambda r: ListedLexOrder(
        r, [frozenset(v[1]) for v in r.variables], ascending=True
    ),
])
def test_monomial_order_axioms(make_order):
    ring = codeword_ring(FULL_3)
    order = make_order(ring)
    rng = random.Random(99)
    one = ring.one()
    for _ in range(1000):
        a = _random_monomial(ring, rng, 5)
        b = _random_monomial(ring, rng, 5)
        c = _random_monomial(ring, rng, 5)
        # totality and antisymmetry
        assert (a == b) == (order.sort_key(a) == order.sort_key(b))
        # multiplicativity: a > b implies a + c > b + c
        if order.greater(a, b):
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert order.greater(ac, bc)
        # 1 is the minimum
        if a != one:
            assert order.greater(a, one)


def test_elimination_order_property():
    ering = elimination_ring(C4)
    order = EliminationOrder(ering, CodewordLexOrder(codeword_ring(C4)))
    with_x = ering.monomial({("x", 1): 1})
    pure_y = ering.monomial({yvar([1]): 3, yvar([1, 2]): 2})
    assert order.greater(with_x, pure_y)
    # on x-free monomials the elimination order is its inner order
    yring, ering = codeword_ring(FULL_3), elimination_ring(FULL_3)
    nx = len(ering.variables) - len(yring.variables)
    x3 = ering.monomial({("x", 3): 1})
    rng = random.Random(5)
    for inner in (
        WeightedGrevlexOrder(yring, two_subset_weights),
        ListedLexOrder(yring, [frozenset(v[1]) for v in yring.variables], ascending=False),
    ):
        order = EliminationOrder(ering, inner)
        for _ in range(500):
            a = _random_monomial(yring, rng, 5)
            b = _random_monomial(yring, rng, 5)
            assert order.greater((0,) * nx + a, (0,) * nx + b) == inner.greater(a, b)
            assert order.greater(x3, (0,) * nx + a)


def test_one_buchberger_per_basis(monkeypatch):
    calls = []
    real = toric.buchberger

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(toric, "buchberger", counted)
    ideal = toric_ideal(FULL_3)
    assert calls == []
    ring = ideal.ring
    listing = [frozenset(v[1]) for v in ring.variables]
    for order in (CodewordLexOrder(ring), WeightedGrevlexOrder(ring, two_subset_weights),
                  ListedLexOrder(ring, listing, ascending=False)):
        gb = ideal.reduced_groebner_basis(order)
        assert calls == [EliminationOrder(ideal.ering, order)]
        assert ideal.reduced_groebner_basis(order) is gb
        assert ideal.contains(gb[0], order)
        calls.clear()


def test_basis_order_on_another_ring_rejected():
    with pytest.raises(ValueError):
        toric_ideal(FULL_3).reduced_groebner_basis(CodewordLexOrder(codeword_ring(CUBIC_CODE)))


def test_one_elimination_matches_two_step_bases(pierced_n4_k3):
    # oracle: a second Buchberger run from the codeword-lex basis
    codes = [c for c, _ in pierced_n4_k3] + [c for c, _ in seeded_pierced(5, 10, seed=5)]
    for c in codes:
        if not any(c.words):
            continue
        ideal = toric_ideal(c)
        lex = ideal.generators
        listing = [frozenset(v[1]) for v in ideal.ring.variables]
        for order in (WeightedGrevlexOrder(ideal.ring, two_subset_weights),
                      ListedLexOrder(ideal.ring, listing, ascending=False)):
            assert ideal.reduced_groebner_basis(order) == buchberger(lex, order), str(c)


def test_buchberger_certificate_and_kernel():
    for c in (C4, FULL_3, CUBIC_CODE):
        ideal = toric_ideal(c)
        order = CodewordLexOrder(ideal.ring)
        gb = ideal.reduced_groebner_basis(order)
        assert verify_buchberger_certificate(gb, order)
        for g in gb:
            assert in_kernel(g, ideal.ring)


def test_reduced_basis_is_inter_reduced():
    ideal = toric_ideal(FULL_3)
    order = CodewordLexOrder(ideal.ring)
    gb = ideal.reduced_groebner_basis(order)
    for g in gb:
        others = [h for h in gb if h is not g]
        assert not any(
            all(x <= y for x, y in zip(h.lead, g.lead)) for h in others
        )
        assert not any(
            all(x <= y for x, y in zip(h.lead, g.trail)) for h in others
        )


def test_gb_deterministic():
    a = toric_ideal(FULL_3)
    b = toric_ideal(FULL_3)
    order_a, order_b = CodewordLexOrder(a.ring), CodewordLexOrder(b.ring)
    assert [
        g.as_str(a.ring) for g in a.reduced_groebner_basis(order_a)
    ] == [g.as_str(b.ring) for g in b.reduced_groebner_basis(order_b)]


def test_degree_cap():
    ideal = toric_ideal(CUBIC_CODE)
    order = CodewordLexOrder(ideal.ring)
    with pytest.raises(ResourceCapExceeded):
        buchberger(ideal.generators, order, max_degree=2)


def _kernel_oracle(c, max_deg=4):
    """GB-membership must coincide with the monomial map's kernel."""
    ideal = toric_ideal(c)
    order = CodewordLexOrder(ideal.ring)
    gb = ideal.reduced_groebner_basis(order)
    for g in gb:
        assert in_kernel(g, ideal.ring)
    nvars = len(ideal.ring.variables)
    buckets = {}
    for d in range(max_deg + 1):
        for combo in itertools.combinations_with_replacement(range(nvars), d):
            exps = [0] * nvars
            for i in combo:
                exps[i] += 1
            exps = tuple(exps)
            key = tuple(sorted(monomial_map_image(exps, ideal.ring).items()))
            buckets.setdefault(key, []).append(exps)
    for group in buckets.values():
        base = group[0]
        for other in group[1:]:
            b = oriented(base, other, order)
            assert ideal.contains(b, order), (str(c), base, other)


def test_kernel_oracle_small_codes():
    _kernel_oracle(C4)
    _kernel_oracle(code(2, [], [1], [1, 2]))
    _kernel_oracle(CUBIC_CODE)


def test_nesting_examples():
    sub = code(2, [], [1], [1, 2], [2])
    sup = replay(
        PiercingSequence([
            PiercingStep(frozenset({1}), frozenset(), frozenset()),
            PiercingStep(frozenset({1, 2}), frozenset(), frozenset()),
        ])
    )
    assert check_nesting(sub, sup)
    with pytest.raises(ValueError):
        check_nesting(code(2, [1, 2]), code(2, [], [1]))


def test_homogenization():
    h = homogenize_with_dummy(C4)
    assert h.words == frozenset(
        {word([0]), word([0, 1]), word([0, 2]), word([0, 1, 2])}
    )
    ideal = toric_ideal(h)
    order = CodewordLexOrder(ideal.ring)
    gb = ideal.reduced_groebner_basis(order)
    quad = binomial_from_words(
        ideal.ring, order, [[0, 1], [0, 2]], [[0, 1, 2], [0]]
    )
    assert [g for g in gb] == [quad]
    for g in gb:
        assert sum(g.lead) == sum(g.trail)


def test_counterexample_listed_lex():
    words = [
        [1, 3, 4], [1, 3], [3], [], [1], [1, 2], [3, 4], [2, 3, 4],
        [1, 2, 3, 4], [1, 2, 3], [4],
    ]
    c = code(4, *words)
    h = homogenize_with_dummy(c)
    listing = [frozenset(w) | {0} for w in words]
    ideal = toric_ideal(h)
    order = ListedLexOrder(ideal.ring, listing, ascending=True)
    gb = ideal.reduced_groebner_basis(order)
    assert gb_max_degree(ideal, order) == 3
    assert sum(1 for g in gb if g.degree == 3) == 2
    assert len(gb) == 17


def _as_words(m, words):
    """A monomial as a set of (codeword, exponent) pairs."""
    return frozenset((w, e) for w, e in zip(words, m) if e)


def _sympy_basis(c, kind):
    """Reduced GB of the toric ideal by sympy.groebner, as a set of
    (lead, trail) monomial pairs.

    Lex: the x-free part of an elimination lex basis, with the x's first
    and the codeword-order-largest y most significant.  wgrevlex: sympy's
    basis of that part under a key for two-subset weights, then degree,
    then reverse lex.
    """
    words = sorted((tuple(sorted(w)) for w in c.words if w),
                   key=lambda w: (w[-1], -len(w), w))
    neurons = sorted({i for w in words for i in w})
    xs = [sympy.Symbol(f"x{i}") for i in neurons]
    ys = [sympy.Symbol("y_" + "".join(map(str, w))) for w in words]
    gens = [y - sympy.Mul(*(xs[neurons.index(i)] for i in w)) for y, w in zip(ys, words)]
    elim = sympy.groebner(gens, *xs, *reversed(ys), order="lex")
    kernel = [g for g in elim.exprs if not g.free_symbols & set(xs)]
    if kind == "lex":
        polys = [sympy.Poly(g, *reversed(ys)) for g in kernel]
        listed, key = words[::-1], tuple
    else:
        weights = [int(len(w) == 2) for w in words]

        def key(m):
            return (sum(a * e for a, e in zip(weights, m)), sum(m),
                    tuple(-e for e in reversed(m)))

        polys = sympy.groebner(kernel, *ys, order=key).polys if kernel else []
        listed = words
    out = set()
    for p in polys:
        terms = p.terms()
        assert sorted(int(coef) for _, coef in terms) == [-1, 1]
        lead, trail = sorted((m for m, _ in terms), key=key, reverse=True)
        out.add((_as_words(lead, listed), _as_words(trail, listed)))
    return out


def test_orders_match_sympy_groebner(pierced_n4_k3):
    # an independent oracle for both orders the scan uses
    fours = [c for c, _ in pierced_n4_k3 if c.n == 4]
    codes = [c for c, _ in enumerate_pierced_codes(3, 2)]
    codes += random.Random(7).sample(fours, 10)
    for c in codes:
        if not any(c.words):
            continue
        ideal = toric_ideal(c)
        words = [v[1] for v in ideal.ring.variables]
        for kind in ("lex", "wgrevlex"):
            gb = ideal.reduced_groebner_basis(order_for(ideal.ring, kind))
            got = {(_as_words(g.lead, words), _as_words(g.trail, words)) for g in gb}
            assert got == _sympy_basis(c, kind), (str(c), kind)


def test_conjecture_scan_small():
    report = conjecture_scan(3, 2)
    assert report["codes"] == 23
    assert report["violations"] == [] and report["skipped"] == []
    assert set(report["degree_counts"]) <= {"0", "2"}
    for entry in report["results"]:
        assert entry["status"] == "ok" and entry["gb_degree"] <= 2


def test_conjecture_scan_parallel_matches_serial():
    assert conjecture_scan(3, 2) == conjecture_scan(3, 2, jobs=2)
