"""End-to-end acceptance gate.

Each test covers one shipping criterion at its stated tolerance and
prints a single pass/fail line (visible with pytest -s or on failure).
The criteria sweep the full enumerations, so this module is the slow
part of the suite; everything else is unit-scale.
"""

import itertools
import random
import time

import pytest

from piercedcodes.balls import build_ball_realization, verify_ball_realization
from piercedcodes.codes import code, word_str
from piercedcodes.complexes import (
    connected_components,
    is_clique_complex,
    is_vertex_decomposable,
    polar_complex_of,
    shelling_order,
    simplicial_complex_of,
    verify_shelling,
)
from piercedcodes.hyperplane import (
    build_hyperplane_realization,
    nondegeneracy_margin,
    verify_hyperplane_realization,
)
from piercedcodes.neural_ideal import (
    PseudoMonomial,
    canonical_form,
    is_intersection_complete,
)
from piercedcodes.piercing import (
    BASE_CODE,
    PiercingStep,
    enumerate_pierced_codes,
    pierce,
)
from piercedcodes.toric import (
    CodewordLexOrder,
    EliminationOrder,
    ListedLexOrder,
    PolyRing,
    WeightedGrevlexOrder,
    buchberger,
    check_nesting,
    codeword_ring,
    conjecture_scan,
    gb_max_degree,
    homogenize_with_dummy,
    in_kernel,
    monomial_map_image,
    normal_form,
    oriented,
    toric_ideal,
    two_subset_weights,
    verify_buchberger_certificate,
)
from .conftest import binomial_from_words, pm_divides, pm_vanishes_on


def _report(num, name, ok, t0, budget):
    dt = time.time() - t0
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {name}: {status} ({dt:.1f}s, budget {budget:.0f}s)",
          flush=True)
    assert ok, f"criterion {num} ({name}) failed"
    assert dt < budget, f"criterion {num} exceeded its {budget:.0f}s budget ({dt:.1f}s)"


@pytest.fixture(scope="module")
def enum_n4_k3():
    return list(enumerate_pierced_codes(4, 3))


@pytest.fixture(scope="module")
def enum_n4_k2():
    return list(enumerate_pierced_codes(4, 2))


@pytest.fixture(scope="module")
def enum_n5_k2():
    return list(enumerate_pierced_codes(5, 2))


def step(lam=(), sigma=(), tau=()):
    return PiercingStep(frozenset(lam), frozenset(sigma), frozenset(tau))


def test_criterion_1_piercing_examples():
    t0 = time.time()
    two = code(2, [], [1], [1, 2], [2])
    ok = pierce(BASE_CODE, step(lam=[1])).words == two.words
    ok &= pierce(two, step(lam=[2], sigma=[1])).words == code(
        3, [], [1], [1, 2], [2], [1, 3], [1, 2, 3]
    ).words
    ok &= pierce(two, step(lam=[2], tau=[1])).words == code(
        3, [], [1], [1, 2], [2], [2, 3], [3]
    ).words
    ok &= pierce(two, step(lam=[1, 2])).words == code(
        3, [], [1], [1, 2], [2], [1, 3], [2, 3], [1, 2, 3], [3]
    ).words
    built = pierce(pierce(BASE_CODE, step(lam=[1])), step(lam=[2], sigma=[1]))
    ok &= built.words == code(
        3, [], [1], [1, 2], [2], [1, 3], [1, 2, 3]
    ).words
    _report(1, "piercing examples", ok, t0, 1)


def test_criterion_2_order_and_shelling(enum_n5_k2):
    t0 = time.time()
    c = code(3, [], [1], [1, 2], [2], [1, 2, 3], [2, 3])
    listed = [word_str(w) for w in c.sorted_words()]
    ok = listed == ["{}", "1", "12", "2", "123", "23"]
    gamma = polar_complex_of(c)
    shelled, _ = verify_shelling(gamma, shelling_order(c))
    ok &= shelled
    failures = 0
    for cd, _seq in enum_n5_k2:
        g = polar_complex_of(cd)
        good, _ = verify_shelling(g, shelling_order(cd))
        failures += not good
    ok &= failures == 0 and len(enum_n5_k2) == 4231
    _report(2, f"order + shelling ({len(enum_n5_k2)} codes)", ok, t0, 120)


def test_criterion_3_combinatorial_consequences(enum_n5_k2):
    t0 = time.time()
    failures = 0
    for c, _seq in enum_n5_k2:
        if any(pm.degree > 2 for pm in canonical_form(c)):
            failures += 1
            continue
        if not is_intersection_complete(c):
            failures += 1
            continue
        delta = simplicial_complex_of(c)
        if not is_clique_complex(delta):
            failures += 1
            continue
        if not all(
            is_vertex_decomposable(comp)[0]
            for comp in connected_components(delta)
        ):
            failures += 1
    ok = failures == 0
    _report(3, f"quadratic CF + IC + clique + VD ({len(enum_n5_k2)} codes)",
            ok, t0, 300)


def test_criterion_4_toric_exactness():
    t0 = time.time()
    # two neurons: a single quadratic relation
    ideal2 = toric_ideal(code(2, [], [1], [2], [1, 2]))
    lex2 = CodewordLexOrder(ideal2.ring)
    gb2 = ideal2.reduced_groebner_basis(lex2)
    ok = [g.as_str(ideal2.ring) for g in gb2] == ["y_{1}*y_{2} - y_{12}"]
    # full 3-neuron code: mutual membership against the quadratic listing
    full3 = code(3, [], [1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3])
    ideal3 = toric_ideal(full3)
    lex3 = CodewordLexOrder(ideal3.ring)
    gb3 = ideal3.reduced_groebner_basis(lex3)
    ref = [
        binomial_from_words(ideal3.ring, lex3, plus, minus)
        for plus, minus in [
            ([[1, 2]], [[1], [2]]),
            ([[1, 3]], [[1], [3]]),
            ([[2, 3]], [[2], [3]]),
            ([[1, 2, 3]], [[1, 2], [3]]),
        ]
    ]
    ok &= all(normal_form(b, gb3, lex3) is None for b in ref)
    ref_gb = buchberger(ref, lex3)
    ok &= all(normal_form(g, ref_gb, lex3) is None for g in gb3)
    # the cubic obstruction, under both orders
    cubic = toric_ideal(code(3, [], [1], [2], [3], [1, 2, 3]))
    ok &= gb_max_degree(cubic.reduced_groebner_basis(CodewordLexOrder(cubic.ring))) == 3
    wg = WeightedGrevlexOrder(cubic.ring, two_subset_weights)
    ok &= gb_max_degree(cubic.reduced_groebner_basis(wg)) == 3
    _report(4, "toric ideals match reference computations", ok, t0, 10)


def test_criterion_5_conjecture_evidence():
    t0 = time.time()
    report = conjecture_scan(4, 2, "lex")
    ok = (
        report["codes"] == 239
        and report["violations"] == []
        and report["skipped"] == []
        and set(report["degree_counts"]) <= {"0", "2"}
    )
    _report(5, "quadratic GB scan n<=4 k<=2 (239 codes)", ok, t0, 900)


def test_criterion_6_homogenized_counterexample():
    t0 = time.time()
    words = [
        [1, 3, 4], [1, 3], [3], [], [1], [1, 2], [3, 4], [2, 3, 4],
        [1, 2, 3, 4], [1, 2, 3], [4],
    ]
    c = code(4, *words)
    h = homogenize_with_dummy(c)
    ideal = toric_ideal(h)
    order = ListedLexOrder(ideal.ring, [frozenset(w) | {0} for w in words])
    gb = ideal.reduced_groebner_basis(order)
    cubics = [g for g in gb if g.degree == 3]
    ok = gb_max_degree(gb) == 3 and len(cubics) == 2
    # stretch: the full 17-element reduced basis, all homogeneous
    ok &= len(gb) == 17
    ok &= all(sum(g.lead) == sum(g.trail) for g in gb)
    _report(6, "homogenized counterexample has cubic GB", ok, t0, 30)


def test_criterion_7_nesting(enum_n4_k3):
    t0 = time.time()
    failures = 0
    pairs = 0
    for _c, seq in enum_n4_k3:
        prev = BASE_CODE
        for s in seq:
            nxt = pierce(prev, s)
            pairs += 1
            if not check_nesting(prev, nxt):
                failures += 1
            prev = nxt
    ok = failures == 0 and pairs > 0
    _report(7, f"toric nesting along {pairs} piercing steps", ok, t0, 300)


def test_criterion_8_exact_hyperplanes(enum_n4_k3):
    t0 = time.time()
    failures = 0
    for c, seq in enum_n4_k3:
        r = build_hyperplane_realization(seq)
        good, _disc = verify_hyperplane_realization(r, c)
        good &= r.dim == c.n
        good &= len(r.bound_vertices) == c.n + 1
        good &= nondegeneracy_margin(r) > 0
        failures += not good
    ok = failures == 0
    _report(8, f"exact hyperplane realizations ({len(enum_n4_k3)} codes)",
            ok, t0, 600)


def test_criterion_9_numeric_balls(enum_n4_k2):
    t0 = time.time()
    failures = 0
    for c, seq in enum_n4_k2:
        real = build_ball_realization(seq)
        good = real.dim == max(1, seq.degree + 1)
        rep = verify_ball_realization(real, c, samples=2**20)
        good &= rep["ok"]
        good &= rep["exact"] and rep["upper_bound_ok"]
        good &= rep["samples"] == 2**20 and rep["sampling_ok"]
        good &= rep["min_witness_margin"] > 1e-9
        failures += not good
    ok = failures == 0
    _report(9, f"ball realizations, 2^20 samples each ({len(enum_n4_k2)} codes)",
            ok, t0, 600)


def _monomials_up_to(nvars, maxdeg):
    for d in range(maxdeg + 1):
        for combo in itertools.combinations_with_replacement(range(nvars), d):
            m = [0] * nvars
            for i in combo:
                m[i] += 1
            yield tuple(m)


def _order_axioms_hold(ring, order, rng, triples=1000):
    one = (0,) * len(ring.variables)

    def rand_monomial():
        m = [0] * len(ring.variables)
        for _ in range(rng.randint(0, 5)):
            m[rng.randrange(len(m))] += 1
        return tuple(m)

    for _ in range(triples):
        a, b, c = rand_monomial(), rand_monomial(), rand_monomial()
        if (a == b) != (order.sort_key(a) == order.sort_key(b)):
            return False
        if order.greater(a, b):
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            if not order.greater(ac, bc):
                return False
        if a != one and not order.greater(a, one):
            return False
    return True


def _kernel_matches_gb(c):
    ideal = toric_ideal(c)
    order = CodewordLexOrder(ideal.ring)
    gb = ideal.reduced_groebner_basis(order)
    # soundness: reductions only ever move within the kernel
    if not all(in_kernel(g, ideal.ring) for g in gb):
        return False
    # completeness: every kernel binomial of degree <= 4 reduces to zero
    buckets = {}
    for m in _monomials_up_to(len(ideal.ring.variables), 4):
        key = tuple(sorted(monomial_map_image(m, ideal.ring).items()))
        buckets.setdefault(key, []).append(m)
    for group in buckets.values():
        base = group[0]
        for other in group[1:]:
            if normal_form(oriented(base, other, order), gb, order) is not None:
                return False
    return True


def _cf_is_exactly_minimal_vanishing(c):
    cf = canonical_form(c)
    neurons = list(c.neurons)
    vanishing = []
    for assignment in itertools.product((0, 1, 2), repeat=c.n):
        on = frozenset(i for i, a in zip(neurons, assignment) if a == 1)
        off = frozenset(i for i, a in zip(neurons, assignment) if a == 2)
        if not on and not off:
            continue
        p = PseudoMonomial(on, off)
        if pm_vanishes_on(p, c):
            vanishing.append(p)
    covered = all(any(pm_divides(q, p) for q in cf) for p in vanishing)
    sound = all(p in vanishing for p in cf)
    minimal = not any(
        q is not p and pm_divides(q, p) for p in cf for q in cf
    )
    return covered and sound and minimal


def test_criterion_10_property_suites(enum_n4_k3):
    t0 = time.time()
    rng = random.Random(2718)
    full3 = code(3, [], [1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3])
    yring = codeword_ring(full3)
    ering = PolyRing((1, 2, 3) + yring.variables)   # an x for every neuron
    orders = [
        CodewordLexOrder(yring),
        WeightedGrevlexOrder(yring, two_subset_weights),
        ListedLexOrder(yring, yring.variables),
        EliminationOrder(ering, CodewordLexOrder(yring)),
    ]
    ok = all(
        _order_axioms_hold(o.ring, o, rng) for o in orders
    )
    # S-pair certificates for every GB computed in this criterion
    certified = 0
    for c, _seq in enum_n4_k3:
        if not any(c.words):
            continue
        ideal = toric_ideal(c)
        order = CodewordLexOrder(ideal.ring)
        gb = ideal.reduced_groebner_basis(order)
        if not verify_buchberger_certificate(gb, order):
            ok = False
        certified += 1
    # kernel oracle, exhaustive in degree <= 4, over the n <= 4 enumeration
    for c, _seq in enum_n4_k3:
        if not any(c.words):
            continue
        if not _kernel_matches_gb(c):
            ok = False
    # CF oracle, exhaustive pseudo-monomial enumeration over the same codes
    for c, _seq in enum_n4_k3:
        if not _cf_is_exactly_minimal_vanishing(c):
            ok = False
    _report(
        10,
        f"order axioms + {certified} GB certificates + kernel/CF oracles",
        ok, t0, 600,
    )
