"""Toric ideals, monomial orders, Buchberger, nesting, and the scan."""

import itertools
import random
import re
from operator import mul

import pytest
import sympy

from piercedcodes import toric
from piercedcodes.codes import code, word
from piercedcodes.piercing import (
    PiercingSequence,
    PiercingStep,
    enumerate_pierced_codes,
    recover_piercing_sequence,
    replay,
)
from piercedcodes.toric import (
    Binomial,
    CodewordLexOrder,
    EliminationOrder,
    ListedLexOrder,
    MonomialOrder,
    PolyRing,
    ResourceCapExceeded,
    WeightedGrevlexOrder,
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
)
from .conftest import CUBIC_CODE, FULL_3, binomial_from_words, seeded_pierced
from .plain_buchberger import plain_buchberger

C4 = code(2, [], [1], [2], [1, 2])


def test_monomial_map_image():
    ring = codeword_ring(C4)
    m = ring.monomial({word([1, 2]): 1})
    assert monomial_map_image(m, ring) == {1: 1, 2: 1}
    m2 = ring.monomial({word([1]): 2, word([2]): 1})
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
    prod = ring.monomial({word([1]): 1, word([2]): 1})
    single = ring.monomial({word([1, 2]): 1})
    assert order.greater(prod, single)


def test_full_3_code_quadratic_ideal():
    ideal = toric_ideal(FULL_3)
    order = CodewordLexOrder(ideal.ring)
    gb = ideal.reduced_groebner_basis(order)
    assert gb and gb_max_degree(gb) == 2
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
        assert normal_form(b, gb, order) is None
    ref_gb = buchberger(ref, order)
    for g in gb:
        assert normal_form(g, ref_gb, order) is None


def test_cubic_example_degree_3_both_orders():
    ideal = toric_ideal(CUBIC_CODE)
    lex = CodewordLexOrder(ideal.ring)
    gb = ideal.reduced_groebner_basis(lex)
    assert gb_max_degree(gb) == 3
    cubic = binomial_from_words(
        ideal.ring, lex, [[1], [2], [3]], [[1, 2, 3]]
    )
    assert any(g == cubic for g in gb)
    # no quadratic basis under the weighted order either
    wg = WeightedGrevlexOrder(ideal.ring, two_subset_weights)
    assert gb_max_degree(ideal.reduced_groebner_basis(wg)) == 3


def test_zero_pierced_codes_have_zero_ideal(pierced_n4_k3):
    for c, seq in pierced_n4_k3:
        if seq.degree == 0:
            ideal = toric_ideal(c)
            assert ideal.reduced_groebner_basis(CodewordLexOrder(ideal.ring)) == []


def _random_monomial(ring, rng, max_deg):
    m = [0] * len(ring.variables)
    for _ in range(rng.randint(0, max_deg)):
        m[rng.randrange(len(m))] += 1
    return tuple(m)


@pytest.mark.parametrize("make_order", [
    lambda r: CodewordLexOrder(r),
    lambda r: WeightedGrevlexOrder(r, two_subset_weights),
    lambda r: ListedLexOrder(r, r.variables),
    lambda r: WeightedGrevlexOrder(r, [0.1, 0.2, 0.3, 0.7, 0, 1.5, 0.25]),
])
def test_monomial_order_axioms(make_order):
    ring = codeword_ring(FULL_3)
    order = make_order(ring)
    packing = toric._Packing(order, 8)
    rng = random.Random(99)
    one = (0,) * len(ring.variables)
    for _ in range(1000):
        a = _random_monomial(ring, rng, 5)
        b = _random_monomial(ring, rng, 5)
        c = _random_monomial(ring, rng, 5)
        # totality and antisymmetry
        assert (a == b) == (order.sort_key(a) == order.sort_key(b))
        # the packed key orders monomials as sort_key does
        ka, kb = packing.key(packing.pack(a)), packing.key(packing.pack(b))
        assert (ka > kb, ka == kb) == (order.sort_key(a) > order.sort_key(b), a == b)
        # multiplicativity: a > b implies a + c > b + c
        if order.greater(a, b):
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert order.greater(ac, bc)
        # 1 is the minimum
        if a != one:
            assert order.greater(a, one)


@pytest.mark.parametrize("width", [8, 16])
def test_packed_word_operations_match_tuples(width):
    # x-variables (ints) and codeword variables
    ring = _every_neuron_ring(codeword_ring(FULL_3))
    packing = toric._Packing(EliminationOrder(ring, CodewordLexOrder(codeword_ring(FULL_3))), width)
    grading = [1 if isinstance(v, int) else len(v) for v in ring.variables]
    rng = random.Random(13)
    n = len(ring.variables)

    def monomial():
        # a degree below 2^(width-1), the most a packing holds, split
        # over a random support
        support = rng.sample(range(n), rng.randint(0, n))
        d = rng.randrange(packing.limit)
        cuts = sorted(rng.randint(0, d) for _ in support[1:])
        m = [0] * n
        for i, lo, hi in zip(support, [0] + cuts, cuts + [d]):
            m[i] = hi - lo
        return tuple(m)

    for _ in range(1000):
        a, b = monomial(), monomial()
        pa, pb = packing.pack(a), packing.pack(b)
        assert packing.unpack(pa) == a
        assert packing.divides(pa, pb) == all(x <= y for x, y in zip(a, b))
        lcm = packing.lcm(pa, pb)
        assert packing.unpack(lcm) == tuple(map(max, a, b))
        # the lcm's degree, up to 2^width - 2, reads exactly as a residue
        assert lcm % packing.modulus == sum(map(max, a, b))
        # and so does its toric degree, deg x_i = 1 and deg y_c = |c|
        assert packing.toric_degree(lcm) == sum(map(mul, grading, map(max, a, b)))
        assert (lcm == pa + pb) == all(x == 0 or y == 0 for x, y in zip(a, b))


def test_float_weights_give_a_monomial_order():
    # summed in floating point, a = y2^2*y4 beats b = y2*y3^3 (1.1 against
    # 1.0999999999999999) but a*y3 loses to b*y3
    ring = PolyRing(tuple(word([i]) for i in range(1, 5)))
    order = WeightedGrevlexOrder(ring, [0.1, 0.2, 0.3, 0.7])
    a, b, y3 = (0, 2, 0, 1), (0, 1, 3, 0), (0, 0, 1, 0)
    ay3 = tuple(map(sum, zip(a, y3)))
    by3 = tuple(map(sum, zip(b, y3)))
    assert order.greater(a, b) == order.greater(ay3, by3)
    assert order.greater(b, a) == order.greater(by3, ay3)
    # integral weights stay ints, whatever their type
    w = WeightedGrevlexOrder(ring, [1.0, 0, 2, True]).weights[0]
    assert w == (1, 0, 2, 1) and {type(x) for x in w} == {int}


def _every_neuron_ring(ring):
    """The elimination ring with an x for every neuron, singletons included."""
    return PolyRing(tuple(sorted({i for c in ring.variables for i in c})) + ring.variables)


def test_elimination_order_property():
    ering = _every_neuron_ring(codeword_ring(C4))
    order = EliminationOrder(ering, CodewordLexOrder(codeword_ring(C4)))
    with_x = ering.monomial({1: 1})
    pure_y = ering.monomial({word([1]): 3, word([1, 2]): 2})
    assert order.greater(with_x, pure_y)
    # on x-free monomials the elimination order is its inner order
    yring = codeword_ring(FULL_3)
    ering = _every_neuron_ring(yring)
    nx = len(ering.variables) - len(yring.variables)
    x3 = ering.monomial({3: 1})
    rng = random.Random(5)
    for inner in (
        WeightedGrevlexOrder(yring, two_subset_weights),
        ListedLexOrder(yring, yring.variables[::-1]),
    ):
        order = EliminationOrder(ering, inner)
        for _ in range(500):
            a = _random_monomial(yring, rng, 5)
            b = _random_monomial(yring, rng, 5)
            assert order.greater((0,) * nx + a, (0,) * nx + b) == inner.greater(a, b)
            assert order.greater(x3, (0,) * nx + a)


def test_one_elimination_per_call(monkeypatch):
    calls = []
    real = toric.buchberger

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(toric, "buchberger", counted)
    ideal = toric_ideal(FULL_3)
    assert calls == []
    ring = ideal.ring
    for order in (CodewordLexOrder(ring), WeightedGrevlexOrder(ring, two_subset_weights),
                  ListedLexOrder(ring, ring.variables[::-1])):
        gb = ideal.reduced_groebner_basis(order)
        assert calls == [EliminationOrder(ideal.ering, order)]
        # nothing is cached: asking again runs the same elimination again
        assert ideal.reduced_groebner_basis(order) == gb
        assert calls == [EliminationOrder(ideal.ering, order)] * 2
        assert normal_form(gb[0], gb, order) is None
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
        lex = ideal.reduced_groebner_basis(CodewordLexOrder(ideal.ring))
        for order in (WeightedGrevlexOrder(ideal.ring, two_subset_weights),
                      ListedLexOrder(ideal.ring, ideal.ring.variables[::-1])):
            assert ideal.reduced_groebner_basis(order) == buchberger(lex, order), str(c)


def _elimination(ideal, order):
    """The eliminate-every-neuron route: the graph binomials x^c - y_c over
    an x for every neuron, oriented under the elimination order."""
    ering = _every_neuron_ring(ideal.ring)
    eorder = EliminationOrder(ering, order)
    graph = [oriented(ering.monomial(dict.fromkeys(c, 1)), ering.monomial({c: 1}), eorder)
             for c in ideal.ring.variables]
    return graph, eorder


def _three_orders(ring):
    return (CodewordLexOrder(ring), WeightedGrevlexOrder(ring, two_subset_weights),
            ListedLexOrder(ring, ring.variables[::-1]))


def test_substitution_matches_eliminating_every_neuron(pierced_n4_k3):
    # oracle: the x-free part of the elimination with an x for every neuron
    codes = [c for c, _ in pierced_n4_k3] + [c for c, _ in seeded_pierced(5, 10, seed=5)]
    codes = [c for c in codes if any(c.words)]
    for c in codes + [homogenize_with_dummy(c) for c in codes]:
        ideal = toric_ideal(c)
        for order in _three_orders(ideal.ring):
            graph, eorder = _elimination(ideal, order)
            nx = len(eorder.ring.variables) - len(ideal.ring.variables)
            oracle = [Binomial(g.lead[nx:], g.trail[nx:])
                      for g in buchberger(graph, eorder) if not any(g.lead[:nx])]
            assert ideal.reduced_groebner_basis(order) == oracle, (str(c), order)


def test_buchberger_matches_plain_oracle_on_pierced_codes(pierced_n4_k3, monkeypatch):
    # both the engine's own input, with y_{i} for x_i, and the
    # eliminate-every-neuron route's
    inputs = []
    real = toric.buchberger
    monkeypatch.setattr(toric, "buchberger",
                        lambda gens, order, *a: inputs.append((gens, order)) or real(gens, order, *a))
    codes = [c for c, _ in pierced_n4_k3] + [c for c, _ in seeded_pierced(5, 12, seed=11, max_k=2)]
    for c in codes:
        if not any(c.words):
            continue
        ideal = toric_ideal(c)
        for order in _three_orders(ideal.ring):
            assert verify_buchberger_certificate(ideal.reduced_groebner_basis(order), order)
            for graph, eorder in (inputs.pop(), _elimination(ideal, order)):
                assert real(graph, eorder) == plain_buchberger(graph, eorder), str(c)


def test_certificate_rejects_bases_with_an_element_dropped(pierced_n4_k3):
    # oracle: a subset of a reduced basis is a Groebner basis exactly when
    # it is the reduced basis of the ideal it generates.  The full code is
    # left out: plain Buchberger takes seconds on its subsets.
    codes = [c for c, _ in pierced_n4_k3 if c.n == 4 and len(c.words) < 16][::4]
    rejected = accepted = 0
    for c in codes:
        ideal = toric_ideal(c)
        for order in (CodewordLexOrder(ideal.ring),
                      WeightedGrevlexOrder(ideal.ring, two_subset_weights),
                      ListedLexOrder(ideal.ring, ideal.ring.variables[::-1])):
            gb = ideal.reduced_groebner_basis(order)
            for i in range(len(gb)):
                rest = gb[:i] + gb[i + 1:]
                certified = verify_buchberger_certificate(rest, order)
                assert certified == (plain_buchberger(rest, order) == rest), (str(c), i)
                rejected += not certified
                accepted += certified
    assert rejected and accepted


def _lcm_shared(leads):
    """Two different pairs of distinct leads have the same lcm."""
    seen = set()
    for a, b in itertools.combinations(sorted(set(leads)), 2):
        lcm = tuple(map(max, a, b))
        if lcm in seen:
            return True
        seen.add(lcm)
    return False


def _random_binomial_set(rng):
    """A few binomials on 3 to 6 variables, from monomials of degree at
    most 3; on so few variables many pairs of leads share their lcm."""
    nvars = rng.randint(3, 6)
    ring = PolyRing(tuple(range(nvars)))

    def monomial():
        m = [0] * nvars
        for _ in range(rng.randint(1, 3)):
            m[rng.randrange(nvars)] += 1
        return tuple(m)

    pairs = [(monomial(), monomial()) for _ in range(rng.randint(2, 5))]
    return ring, pairs


def test_buchberger_matches_plain_oracle_on_random_binomials():
    rng = random.Random(24)
    shuffle = random.Random(25)     # its own stream: the binomial sets stay as drawn
    shared = 0
    for trial in range(150):
        ring, pairs = _random_binomial_set(rng)
        n = len(ring.variables)
        orders = (MonomialOrder(ring, tuple(range(n))),
                  MonomialOrder(ring, tuple(reversed(range(n))), ((1,) * n,), reverse=True),
                  WeightedGrevlexOrder(ring, [0.1, 0.2, 0.3, 0.7, 0.1, 0.2][:n]),
                  MonomialOrder(ring, tuple(shuffle.sample(range(n), n))))
        gbs = []
        for order in orders:
            gens = [oriented(a, b, order) for a, b in pairs]
            gbs.append(buchberger(gens, order))
            assert gbs[-1] == plain_buchberger(gens, order), (pairs, order)
            assert verify_buchberger_certificate(gbs[-1], order)
            shared += _lcm_shared([g.lead for g in gbs[-1]])
        if trial < 30:
            # sympy's reduced lex basis, x0 the most significant variable
            xs = sympy.symbols(f"x0:{n}")
            polys = [sympy.Mul(*(x ** e for x, e in zip(xs, a)))
                     - sympy.Mul(*(x ** e for x, e in zip(xs, b))) for a, b in pairs]
            ref = set()
            for p in sympy.groebner(polys, *xs, order="lex").polys:
                (lead, one), (trail, minus_one) = p.terms()
                assert (one, minus_one) == (1, -1)
                ref.add((lead, trail))
            assert {(g.lead, g.trail) for g in gbs[0]} == ref, pairs
    # the edge case of criteria B and F: leads whose pairs share an lcm
    assert shared >= 50


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


# a cap message names the work done before the cap fired
CAP_WORK = re.compile(
    r"after (\d+) S-pairs processed \(cut: (\d+) coprime, (\d+) by criterion B, "
    r"(\d+) by criteria M/F\), (\d+) zero reductions, peak basis size (\d+)$"
)


def test_degree_cap():
    ideal = toric_ideal(CUBIC_CODE)
    order = CodewordLexOrder(ideal.ring)
    with pytest.raises(ResourceCapExceeded) as exc:
        buchberger(ideal.reduced_groebner_basis(order), order, max_degree=2)
    # the one cubic generator is rejected before any pair exists
    msg = str(exc.value)
    assert msg.startswith("degree cap 2 exceeded after ")
    assert CAP_WORK.search(msg).groups() == ("0",) * 6


DEGREE_CAP_60 = ("degree cap 60 exceeded after 0 S-pairs processed (cut: 0 coprime, "
                 "0 by criterion B, 0 by criteria M/F), 0 zero reductions, peak basis size ")


def test_degree_cap_reads_exact_degrees():
    # degree 300: its fields fit in 7 bits, but the residue mod 255 reads 45
    ring = PolyRing(tuple(range(4)))
    order = MonomialOrder(ring, (0, 1, 2, 3))
    g = Binomial((100, 100, 100, 0), (0, 0, 0, 1))
    with pytest.raises(ResourceCapExceeded) as exc:
        buchberger([g], order, max_degree=60)
    assert str(exc.value) == DEGREE_CAP_60 + "0"
    assert buchberger([g], order, max_degree=400) == [g] == plain_buchberger([g], order)


def test_reduction_past_the_width_widens(monkeypatch):
    # y0^3 - y2 reduces by y0 -> y1^50 to y1^150 - y2, past degree 127,
    # the most 8-bit fields hold; the run starts again 16 bits wide
    ring = PolyRing(tuple(range(3)))
    order = MonomialOrder(ring, (0, 1, 2))
    gens = [Binomial((1, 0, 0), (0, 50, 0)), Binomial((3, 0, 0), (0, 0, 1))]
    widths = []

    class Recorded(toric._Packing):
        def __init__(self, order, width):
            widths.append(width)
            super().__init__(order, width)

    monkeypatch.setattr(toric, "_Packing", Recorded)
    with pytest.raises(ResourceCapExceeded) as exc:
        buchberger(gens, order, max_degree=60)
    assert str(exc.value) == DEGREE_CAP_60 + "1"
    assert widths == [8, 16]
    gb = buchberger(gens, order, max_degree=200)
    assert gb == [Binomial((0, 150, 0), (0, 0, 1)), gens[0]] == plain_buchberger(gens, order)
    assert normal_form(gens[1], gens[:1], order) == gb[0]


def test_pair_cap_names_the_work_done():
    ideal = toric_ideal(FULL_3)
    with pytest.raises(ResourceCapExceeded) as exc:
        ideal.reduced_groebner_basis(CodewordLexOrder(ideal.ring), max_pairs=1)
    msg = str(exc.value)
    assert msg.startswith("S-pair cap 1 exceeded after ")
    processed, coprime, by_b, by_mf, zero, peak = map(int, CAP_WORK.search(msg).groups())
    # 4 graph binomials, as y_{i} stands for x_i and the singletons' are
    # zero, and at most one reduced S-binomial: each pair of these 5 is
    # cut once, reduced once, or still queued
    assert processed == 1 and zero <= 1
    assert coprime > 0 and 0 < peak <= 5
    assert processed + coprime + by_b + by_mf <= 5 * 4 // 2
    # the counters pin the selection by toric degree: taken by standard
    # degree, another pair comes first and the cut reads 4 coprime
    assert (coprime, by_b, by_mf, zero, peak) == (3, 0, 1, 0, 5)


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
            assert normal_form(b, gb, order) is None, (str(c), base, other)


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


def test_nesting_computes_only_the_subcode_basis(monkeypatch):
    rings = []
    compute = toric.ToricIdeal.reduced_groebner_basis

    def recorded(self, *args, **kwargs):
        rings.append(self.ring)
        return compute(self, *args, **kwargs)

    monkeypatch.setattr(toric.ToricIdeal, "reduced_groebner_basis", recorded)
    sub = code(3, [], [1], [2], [1, 2], [3], [1, 3])
    assert check_nesting(sub, FULL_3)
    assert rings == [codeword_ring(sub)]


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
    order = ListedLexOrder(ideal.ring, listing)
    gb = ideal.reduced_groebner_basis(order)
    assert gb_max_degree(gb) == 3
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
        words = [tuple(sorted(c)) for c in ideal.ring.variables]
        for kind in ("lex", "wgrevlex"):
            gb = ideal.reduced_groebner_basis(order_for(ideal.ring, kind))
            got = {(_as_words(g.lead, words), _as_words(g.trail, words)) for g in gb}
            assert got == _sympy_basis(c, kind), (str(c), kind)


NO_SINGLETON = code(3, [], [1, 2], [1, 2, 3])


@pytest.mark.parametrize("c, xs", [
    # every neuron has a singleton: no x is left
    (FULL_3, ()),
    # no neuron has one: every x is kept
    (NO_SINGLETON, (1, 2, 3)),
    (code(3, [], [1, 2], [1, 3], [2, 3], [1, 2, 3]), (1, 2, 3)),
    (homogenize_with_dummy(code(3, [1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3])),
     (0, 1, 2, 3)),
    # only the dummy neuron 0 has one, from the empty codeword
    (homogenize_with_dummy(C4), (1, 2)),
], ids=["full-3", "12-123", "pairs-123", "homogenized-no-0", "homogenized-C4"])
def test_substitution_ends_match_sympy_groebner(c, xs):
    ideal = toric_ideal(c)
    assert ideal.ering.variables == xs + ideal.ring.variables
    assert elimination_ring(c) == ideal.ering
    words = [tuple(sorted(w)) for w in ideal.ring.variables]
    for kind in ("lex", "wgrevlex"):
        gb = ideal.reduced_groebner_basis(order_for(ideal.ring, kind))
        got = {(_as_words(g.lead, words), _as_words(g.trail, words)) for g in gb}
        assert got == _sympy_basis(c, kind), (str(c), kind)
        assert bool(gb) == (c != NO_SINGLETON)


def test_full_code_on_five_neurons_is_quadratic_under_lex():
    # the code of all 32 words, 4-pierced, under the default caps
    full = code(5, *(w for k in range(6) for w in itertools.combinations(range(1, 6), k)))
    assert recover_piercing_sequence(full, 4).degree == 4
    ideal = toric_ideal(full)
    assert gb_max_degree(ideal.reduced_groebner_basis(CodewordLexOrder(ideal.ring))) == 2


def test_conjecture_scan_small():
    report = conjecture_scan(3, 2)
    assert report["codes"] == 23
    assert report["violations"] == [] and report["skipped"] == []
    assert set(report["degree_counts"]) <= {"0", "2"}
    for entry in report["results"]:
        assert entry["status"] == "ok" and entry["gb_degree"] <= 2


def test_conjecture_scan_parallel_matches_serial():
    assert conjecture_scan(3, 2) == conjecture_scan(3, 2, jobs=2)
