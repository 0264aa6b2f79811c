"""Toric ideals of neural codes and their Groebner bases.

The toric ideal is the kernel of the monomial map sending the codeword
variable y_c to the product of the neuron variables x_i, i in c.  All
ideals here are generated by pure-difference binomials, so Buchberger's
algorithm works entirely on exponent vectors: S-polynomials and
reductions of binomials are again binomials, with coefficients +-1.
Each kernel basis is the x-free part of one elimination (Sturmfels 1996, Alg. 4.5).

Each binomial carries the support bitmask of its lead, so one int test
rules out most non-divisors in reduction and decides coprime leads.
New pairs pass the Gebauer-Moeller criteria (Gebauer-Moeller 1988;
Becker-Weispfenning 1993, UPDATE): criterion B drops queued pairs that a
new element makes redundant, M and F keep one new pair per minimal lcm,
and pairs with coprime leads are never queued.  ``max_pairs`` counts
the pairs that survive them and are reduced.

The codeword variable y_c is the codeword c itself, a frozenset, and
the neuron variable x_i is the int i.  A PolyRing fixes a tuple of
variables; monomials are exponent tuples over it.  Every lex order is a
codeword listing (``ListedLexOrder``); codeword lex lists the codewords
in the codeword order.  No basis is cached: each call of
``ToricIdeal.reduced_groebner_basis`` runs one elimination, and callers
keep the basis they computed.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from operator import le, mul
from typing import Iterable, Optional

from .codes import NeuralCode, word_key
from .piercing import ResourceCapExceeded, enumerate_pierced_codes


def var_str(v) -> str:
    """x3 for the neuron variable 3, y_{12} for the codeword {1, 2}."""
    if isinstance(v, int):
        return f"x{v}"
    return "y_{" + "".join(str(i) for i in sorted(v)) + "}"


@dataclass(frozen=True)
class PolyRing:
    variables: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {v: i for i, v in enumerate(self.variables)}
        )

    def monomial(self, powers: dict) -> tuple:
        exps = [0] * len(self.variables)
        for v, e in powers.items():
            exps[self._index[v]] += e
        return tuple(exps)

    def one(self) -> tuple:
        return (0,) * len(self.variables)

    def monomial_str(self, m: tuple) -> str:
        parts = []
        for v, e in zip(self.variables, m):
            if e == 1:
                parts.append(var_str(v))
            elif e > 1:
                parts.append(f"{var_str(v)}^{e}")
        return "*".join(parts) if parts else "1"


def codeword_ring(code: NeuralCode) -> PolyRing:
    """Ring on y_c for the nonempty codewords, in the codeword order."""
    return PolyRing(tuple(sorted((c for c in code.words if c), key=word_key)))


def elimination_ring(code: NeuralCode) -> PolyRing:
    xs = tuple(sorted({i for c in code.words for i in c}))
    return PolyRing(xs + codeword_ring(code).variables)


# ---------------------------------------------------------------------------
# monomial orders


@dataclass(frozen=True)
class MonomialOrder:
    """A total order on the exponent tuples of one ring.

    Monomials compare first by each weight row, then by their exponents
    taken in ``significance`` order, most significant first; ``reverse``
    negates those exponents, giving reverse lex.  Two orders are equal
    when their fields are.
    """

    ring: PolyRing
    significance: tuple
    weights: tuple = ()
    reverse: bool = False

    def sort_key(self, m: tuple) -> tuple:
        """A tuple that compares like the order; larger key, larger monomial."""
        if self.reverse:
            lex = [-m[i] for i in self.significance]
        else:
            lex = [m[i] for i in self.significance]
        if self.weights:
            return tuple([sum(map(mul, row, m)) for row in self.weights] + lex)
        return tuple(lex)

    def greater(self, a: tuple, b: tuple) -> bool:
        return self.sort_key(a) > self.sort_key(b)


def CodewordLexOrder(ring: PolyRing) -> MonomialOrder:
    """Lex on codeword variables, induced by the codeword order.

    The listing of the ring's codewords in the codeword order, so the
    variable of the codeword-order-largest codeword is most significant;
    this orientation makes y_12 smaller than y_1*y_2, since {1,2}
    precedes {2}.
    """
    return ListedLexOrder(ring, sorted(ring.variables, key=word_key))


def ListedLexOrder(ring: PolyRing, listing: Iterable, ascending: bool = True) -> MonomialOrder:
    """Lex induced by an explicit listing of the ring's codewords.

    ``ascending=True`` ranks the last-listed codeword's variable most
    significant (the orientation consistent with the codeword-order
    lex); ``ascending=False`` flips it.
    """
    pos = {c: i for i, c in enumerate(listing)}
    significance = sorted(range(len(ring.variables)),
                          key=lambda i: pos[ring.variables[i]], reverse=ascending)
    return MonomialOrder(ring, tuple(significance))


def WeightedGrevlexOrder(ring: PolyRing, weights) -> MonomialOrder:
    """Weight vector first, then total degree, then reverse lex.

    ``weights`` is a per-variable vector or a callable on variables, of
    finite nonnegative numbers (else no monomial order).  Reverse lex
    compares the last differing exponent in the ring's variable listing,
    the smaller exponent winning.  Integral weights are held as ints and
    the rest as exact Fractions of their values: rounded float sums
    would break multiplicativity.
    """
    n = len(ring.variables)
    w = tuple(map(weights, ring.variables) if callable(weights) else weights)
    if len(w) != n:
        raise ValueError("weight vector length mismatch")
    if not all(0 <= x < math.inf for x in w):
        raise ValueError("weights must be finite and nonnegative")
    w = tuple(map(_exact, w))
    return MonomialOrder(ring, tuple(reversed(range(n))), (w, (1,) * n), reverse=True)


def _exact(x) -> int | Fraction:
    """``x`` as an int when it is integral, else as an exact Fraction."""
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f


def two_subset_weights(v) -> int:
    """The n=3 classification weights: 1 on two-element codewords, else 0."""
    return 1 if isinstance(v, frozenset) and len(v) == 2 else 0


def EliminationOrder(ring: PolyRing, inner: MonomialOrder) -> MonomialOrder:
    """Block order on ``ring``: the x-variables, then those of ``inner``'s ring.

    Total x-degree compares first, so any monomial containing an x-variable
    beats every x-free monomial (the elimination property); then come
    ``inner``'s rows and significance, after the x-exponents.  On x-free
    monomials the order is ``inner``.
    """
    nx = len(ring.variables) - len(inner.ring.variables)
    x_row = (1,) * nx + (0,) * len(inner.ring.variables)
    rows = tuple((0,) * nx + tuple(row) for row in inner.weights)
    significance = tuple(range(nx)) + tuple(nx + i for i in inner.significance)
    return MonomialOrder(ring, significance, (x_row,) + rows, inner.reverse)


def order_for(ring: PolyRing, kind: str, weights=None) -> MonomialOrder:
    """The order named by ``kind``: "lex" (codeword lex) or "wgrevlex".

    wgrevlex uses ``weights`` (a per-variable vector or a callable on
    variables; ``two_subset_weights`` by default), and raises ValueError
    on a vector of the wrong length or a bad weight.  Lex takes no weights.
    """
    if kind == "lex":
        return CodewordLexOrder(ring)
    if kind == "wgrevlex":
        return WeightedGrevlexOrder(ring, two_subset_weights if weights is None else weights)
    raise ValueError(f"unknown order kind {kind!r}")


# ---------------------------------------------------------------------------
# binomials and Buchberger


@dataclass(frozen=True)
class Binomial:
    """lead - trail with lead strictly greater under the ambient order.

    ``mask`` is the support bitmask of the lead: bit i is set when
    variable i occurs in it.
    """

    lead: tuple
    trail: tuple
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mask", _support(self.lead))

    @property
    def degree(self) -> int:
        return max(sum(self.lead), sum(self.trail))

    def as_str(self, ring: PolyRing) -> str:
        return f"{ring.monomial_str(self.lead)} - {ring.monomial_str(self.trail)}"


def oriented(a: tuple, b: tuple, order: MonomialOrder) -> Optional[Binomial]:
    if a == b:
        return None
    return Binomial(a, b) if order.greater(a, b) else Binomial(b, a)


def _support(m: tuple) -> int:
    s = 0
    for i, e in enumerate(m):
        if e:
            s |= 1 << i
    return s


def _divides(a: tuple, b: tuple) -> bool:
    return all(map(le, a, b))


def _lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def _sub_add(m: tuple, sub: tuple, add: tuple) -> tuple:
    return tuple([x - s + a for x, s, a in zip(m, sub, add)])


def _reduce_monomial(m: tuple, basis: list) -> tuple:
    """Rewrite m by lead -> trail moves until no lead divides it.

    A lead whose support leaves m's support cannot divide m, so one mask
    test against ``~support(m)`` skips it before the exponent test.
    """
    off = ~_support(m)
    changed = True
    while changed:
        changed = False
        for g in basis:
            if not g.mask & off and _divides(g.lead, m):
                m = _sub_add(m, g.lead, g.trail)
                off = ~_support(m)
                changed = True
    return m


def normal_form(b: Optional[Binomial], basis: list, order: MonomialOrder) -> Optional[Binomial]:
    if b is None:
        return None
    lead = _reduce_monomial(b.lead, basis)
    trail = _reduce_monomial(b.trail, basis)
    return oriented(lead, trail, order)


def _s_binomial(f: Binomial, g: Binomial, order: MonomialOrder) -> Optional[Binomial]:
    lcm = _lcm(f.lead, g.lead)
    a = _sub_add(lcm, f.lead, f.trail)
    b = _sub_add(lcm, g.lead, g.trail)
    return oriented(a, b, order)


def buchberger(
    generators: Iterable[Binomial],
    order: MonomialOrder,
    max_pairs: int = 200_000,
    max_degree: int = 60,
) -> list:
    """Reduced Groebner basis of a pure-difference binomial ideal.

    Deterministic: pairs are processed in normal selection order (by
    lcm), the result is tail-reduced and sorted by the order on leading
    monomials.  Pairs go through the Gebauer-Moeller update (Becker-
    Weispfenning 1993, UPDATE) as each element joins, and ``max_pairs``
    caps the S-binomials reduced, that is the pairs that survive it.
    """
    basis: list = []        # every element found; pairs index into it
    active: list = []       # indices of the elements no later lead divides
    reducers: list = []     # basis[i] for i in active, in that order
    live: dict = {}         # queued pair (i, j) -> (lcm, support mask of lcm)
    heap: list = []         # (degree, order key of lcm, i, j); lazily deleted
    processed = zero = peak = cut_coprime = cut_b = cut_mf = 0

    def exceeded(cap: str) -> ResourceCapExceeded:
        return ResourceCapExceeded(
            f"{cap} exceeded after {processed} S-pairs processed "
            f"(cut: {cut_coprime} coprime, {cut_b} by criterion B, "
            f"{cut_mf} by criteria M/F), {zero} zero reductions, "
            f"peak basis size {peak}"
        )

    def add(h: Binomial) -> None:
        nonlocal active, reducers, peak, cut_coprime, cut_b, cut_mf
        if h.degree > max_degree:
            raise exceeded(f"degree cap {max_degree}")
        k = len(basis)
        basis.append(h)
        hl, hm = h.lead, h.mask
        # B: a queued pair whose lcm lead(h) divides is implied by its two
        # pairs with h, unless one of those has the same lcm
        for ij, (lcm, lm) in list(live.items()):
            if not hm & ~lm and _divides(hl, lcm):
                i, j = ij
                if _lcm(basis[i].lead, hl) != lcm and _lcm(basis[j].lead, hl) != lcm:
                    del live[ij]
                    cut_b += 1
        # M/F: of the new pairs, keep one per lcm, and only for the lcms no
        # other new lcm divides; coprime leads give a pair that reduces to
        # zero, and so does every pair sharing its lcm
        new: dict = {}      # lcm -> [first i, coprime pairs, mask, pairs]
        for i in active:
            gm = basis[i].mask
            lcm = _lcm(basis[i].lead, hl)
            entry = new.setdefault(lcm, [i, 0, gm | hm, 0])
            entry[1] += not gm & hm
            entry[3] += 1
        for lcm, (i, coprime, lm, pairs) in new.items():
            if coprime:
                cut_coprime += coprime
                cut_mf += pairs - coprime
            elif any(other != lcm and not om & ~lm and _divides(other, lcm)
                     for other, (_, _, om, _) in new.items()):
                cut_mf += pairs
            else:
                cut_mf += pairs - 1
                live[i, k] = (lcm, lm)
                heapq.heappush(heap, (sum(lcm), order.sort_key(lcm), i, k))
        # elements whose lead lead(h) divides get no further pairs and stop
        # reducing: lead(h) reduces all they would
        active = [i for i in active if hm & ~basis[i].mask or not _divides(hl, basis[i].lead)]
        active.append(k)
        reducers = [basis[i] for i in active]
        peak = max(peak, len(active))

    for g in generators:
        g = normal_form(g, reducers, order)
        if g is not None:
            add(g)
    while heap:
        _, _, i, j = heapq.heappop(heap)
        if live.pop((i, j), None) is None:
            continue
        if processed == max_pairs:
            raise exceeded(f"S-pair cap {max_pairs}")
        processed += 1
        h = normal_form(_s_binomial(basis[i], basis[j], order), reducers, order)
        if h is None:
            zero += 1
        else:
            add(h)
    return _tail_reduce(reducers, order)


def _tail_reduce(minimal: list, order: MonomialOrder) -> list:
    """The reduced basis from a Groebner basis whose leads divide no other lead.

    The lead is reducible only by itself within a minimal basis, so only
    trails are rewritten.
    """
    reduced = [oriented(g.lead, _reduce_monomial(g.trail, minimal), order) for g in minimal]
    reduced.sort(key=lambda g: order.sort_key(g.lead))
    return reduced


def verify_buchberger_certificate(basis: list, order: MonomialOrder) -> bool:
    """Every S-binomial of the basis reduces to zero.

    Pairs with coprime leads are skipped: their S-binomials always reduce
    to zero (Buchberger's first criterion), so the answer is the same.
    """
    return all(
        not f.mask & g.mask or normal_form(_s_binomial(f, g, order), basis, order) is None
        for f, g in itertools.combinations(basis, 2)
    )


# ---------------------------------------------------------------------------
# toric ideals


def monomial_map_image(m: tuple, ring: PolyRing) -> dict:
    """Image of a codeword-variable monomial under y_c -> prod x_i.

    Returned as a neuron -> exponent dict.
    """
    image: dict = {}
    for v, e in zip(ring.variables, m):
        if e == 0:
            continue
        if not isinstance(v, frozenset):
            raise ValueError(f"not a codeword variable: {v!r}")
        for i in v:
            image[i] = image.get(i, 0) + e
    return {i: e for i, e in sorted(image.items()) if e}


def in_kernel(b: Binomial, ring: PolyRing) -> bool:
    return monomial_map_image(b.lead, ring) == monomial_map_image(b.trail, ring)


@dataclass
class ToricIdeal:
    """The kernel of y_c -> x^c on the codeword ring ``ring``.

    Its basis under an order is the x-free part of one elimination in
    ``ering``; each call runs that elimination, and nothing is cached.
    """

    ring: PolyRing
    ering: PolyRing

    def reduced_groebner_basis(
        self, order: MonomialOrder, max_pairs: int = 200_000, max_degree: int = 60
    ) -> list:
        if order.ring != self.ring:
            raise ValueError("the order is on another ring than the ideal's")
        eorder = EliminationOrder(self.ering, order)
        graph = [oriented(self.ering.monomial(dict.fromkeys(c, 1)),
                          self.ering.monomial({c: 1}), eorder) for c in self.ring.variables]
        nx = len(self.ering.variables) - len(self.ring.variables)
        # an x-free lead has an x-free trail, and there the order is ``order``
        return [
            Binomial(g.lead[nx:], g.trail[nx:])
            for g in buchberger(graph, eorder, max_pairs, max_degree)
            if not any(g.lead[:nx])
        ]


def toric_ideal(code: NeuralCode) -> ToricIdeal:
    """The toric ideal of a code with a nonempty codeword; no basis is computed yet."""
    if not any(code.words):
        raise ValueError("code needs at least one nonempty codeword")
    return ToricIdeal(codeword_ring(code), elimination_ring(code))


def gb_max_degree(gb: list) -> int:
    """The largest degree of a basis element; 0 for the empty basis."""
    return max((g.degree for g in gb), default=0)


def binomial_from_words(
    ring: PolyRing, order: MonomialOrder, plus: Iterable, minus: Iterable
) -> Optional[Binomial]:
    """Binomial y_{plus...} - y_{minus...} from codeword multisets."""
    a = ring.monomial(Counter(frozenset(c) for c in plus))
    b = ring.monomial(Counter(frozenset(c) for c in minus))
    return oriented(a, b, order)


def check_nesting(sub: NeuralCode, sup: NeuralCode) -> bool:
    """Every generator of the smaller code's toric ideal lies in the larger's."""
    if not sub.words <= sup.words:
        raise ValueError("first code must be a subset of the second")
    if not any(sub.words):
        return True
    isub = toric_ideal(sub)
    isup = toric_ideal(sup)
    order = CodewordLexOrder(isup.ring)
    gb = isup.reduced_groebner_basis(order)

    def embed(m: tuple) -> tuple:
        return isup.ring.monomial(dict(zip(isub.ring.variables, m)))

    return all(
        normal_form(oriented(embed(g.lead), embed(g.trail), order), gb, order) is None
        for g in isub.reduced_groebner_basis(CodewordLexOrder(isub.ring))
    )


def homogenize_with_dummy(code: NeuralCode) -> NeuralCode:
    """Adjoin dummy neuron 0 to every codeword, making the toric ideal homogeneous."""
    return NeuralCode(code.n, frozenset(w | {0} for w in code.words))


# ---------------------------------------------------------------------------
# conjecture scan


def _scan_code(code_: NeuralCode, order_kind: str, max_pairs: int, max_degree: int,
               timing: bool) -> tuple:
    """(gb degree, None, ms) or (None, skip reason, ms) for one code; ms only if timing."""
    t0 = time.perf_counter() if timing else None
    reason = None
    try:
        ideal = toric_ideal(code_)
        order = order_for(ideal.ring, order_kind)
        deg = gb_max_degree(ideal.reduced_groebner_basis(order, max_pairs, max_degree))
    except ResourceCapExceeded as exc:
        deg, reason = None, str(exc)
    return deg, reason, round((time.perf_counter() - t0) * 1000, 3) if timing else None


def conjecture_scan(
    max_n: int,
    max_k: int,
    order_kind: str = "lex",
    max_pairs: int = 200_000,
    max_degree: int = 60,
    jobs: int = 1,
    timing: bool = False,
) -> dict:
    """Max GB degree under the given order, for every enumerated pierced code.

    ``order_kind`` is "lex" (codeword-order lex) or "wgrevlex" (with the
    two-subset weights), as built by ``order_for``.  Codes whose
    computation exceeds the caps are reported as skipped, never dropped.
    ``jobs`` > 1 fans the per-code work out to worker processes; the
    report order stays the enumeration order.  ``timing`` adds the
    wall-clock fields ``time_ms`` per code and ``total_time_ms``.
    """
    t_start = time.perf_counter()
    enumerated = list(enumerate_pierced_codes(max_n, max_k))
    codes = [c for c, _ in enumerated]
    work = partial(_scan_code, order_kind=order_kind, max_pairs=max_pairs,
                   max_degree=max_degree, timing=timing)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(work, codes, chunksize=8))
    else:
        outcomes = list(map(work, codes))
    results = []
    for (code_, seq), (deg, reason, t_ms) in zip(enumerated, outcomes):
        entry = {
            "code": str(code_),
            "n": code_.n,
            "k": seq.degree,
            "size": len(code_.words),
        }
        if reason is None:
            entry.update(gb_degree=deg, status="ok")
        else:
            entry.update(status="skipped", reason=reason)
        if timing:
            entry["time_ms"] = t_ms
        results.append(entry)
    ok = [e for e in results if e["status"] == "ok"]
    report = {
        "max_n": max_n,
        "max_k": max_k,
        "order": order_kind,
        "codes": len(results),
        "degree_counts": {
            str(k): v for k, v in sorted(Counter(e["gb_degree"] for e in ok).items())
        },
        "violations": [e for e in ok if e["gb_degree"] > 2],
        "skipped": [e for e in results if e["status"] == "skipped"],
        "results": results,
    }
    if timing:
        report["total_time_ms"] = round((time.perf_counter() - t_start) * 1000, 1)
    return report
