"""Toric ideals of neural codes and their Groebner bases.

The toric ideal is the kernel of the monomial map sending the codeword
variable y_c to the product of the neuron variables x_i, i in c.  All
ideals here are generated by pure-difference binomials, so Buchberger's
algorithm works entirely on exponent vectors: S-polynomials and
reductions of binomials are again binomials, with coefficients +-1.
Each kernel basis is the x-free part of one elimination (Sturmfels 1996,
Alg. 4.5), with y_{i} in place of x_i for each singleton codeword {i}.

Binomials of exponent tuples go in and come out, but the engine packs
each monomial into one int, a field of W bits per variable with a guard
bit on top (Bachmann-Schoenemann 1998): the most significant variable
has the highest field, so lex is int comparison, and a weight row is a
sum of field sums read as residues.  Divisibility, lcm and a reduction
move are a few word operations.  Exact degrees ride along, and every
monomial held has degree below 2^(W-1), which keeps each field below its
guard bit and each residue exact; a step that would cross that bound
starts the run again twice as wide, with the same steps and so the same
result.  W starts at 8 bits, wider only if the inputs' degrees need it.
``normal_form``, the certificate and the tail reduction all use the
packed reduction.

New pairs pass the Gebauer-Moeller criteria (Gebauer-Moeller 1988;
Becker-Weispfenning 1993, UPDATE): criterion B drops queued pairs that a
new element makes redundant, M and F keep one new pair per minimal lcm,
and pairs with coprime leads are never queued.  ``max_pairs`` counts
the pairs that survive them and are reduced, in the order of their lcm's
degree in the toric grading deg x_i = 1, deg y_c = |c|, which makes the
graph binomials homogeneous (Giovini et al. 1991, sugar).

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
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import mul
from typing import Iterable, Optional

from .codes import NeuralCode, word_key
from .piercing import ResourceCapExceeded, enumerate_pierced_codes

MAX_PAIRS, MAX_DEGREE = 200_000, 60  # default caps: S-pairs reduced, monomial degree


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
    """x_i for each neuron i without the codeword {i} (y_{i} stands for the rest), then the y_c."""
    xs = tuple(sorted({i for c in code.words for i in c if frozenset([i]) not in code.words}))
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


def ListedLexOrder(ring: PolyRing, listing: Iterable) -> MonomialOrder:
    """Lex induced by an explicit listing of the ring's codewords.

    The last-listed codeword's variable is most significant (the
    orientation consistent with the codeword-order lex); the reversed
    listing gives the opposite lex.
    """
    pos = {c: i for i, c in enumerate(listing)}
    significance = sorted(range(len(ring.variables)),
                          key=lambda i: pos[ring.variables[i]], reverse=True)
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
    """lead - trail with lead strictly greater under the ambient order."""

    lead: tuple
    trail: tuple

    @property
    def degree(self) -> int:
        return max(sum(self.lead), sum(self.trail))

    def as_str(self, ring: PolyRing) -> str:
        return f"{ring.monomial_str(self.lead)} - {ring.monomial_str(self.trail)}"


def oriented(a: tuple, b: tuple, order: MonomialOrder) -> Optional[Binomial]:
    if a == b:
        return None
    return Binomial(a, b) if order.greater(a, b) else Binomial(b, a)


class _Widen(Exception):
    """A monomial reached the degree its packing holds: run again, wider."""


class _Packing:
    """Monomials of one order's ring as ints of ``width``-bit fields.

    The field of variable ``significance[p]`` lies p fields below the
    top one, so lex is int comparison, and the top bit of each field is
    a guard bit, clear in a packed monomial.  Every monomial held has
    total degree below ``limit`` = 2^(width-1): no field reaches its
    guard bit, so a subtraction borrows no bit from the next field, and
    every sum of fields is below 2^width - 1, the modulus at which a
    packed int is congruent to the sum of its fields.  Degrees are kept
    exactly next to the ints, and a step that would reach ``limit``
    raises ``_Widen``.
    """

    def __init__(self, order: MonomialOrder, width: int):
        n = len(order.ring.variables)
        self.limit = 1 << (width - 1)
        self.modulus = (1 << width) - 1
        self.shifts = [0] * n
        for p, i in enumerate(order.significance):
            self.shifts[i] = width * (n - 1 - p)
        low = sum(1 << s for s in self.shifts)
        self.guard = low << (width - 1)
        self.width = width
        self.reverse = order.reverse
        # each weight row, and the toric grading, as (weight, mask of the
        # fields with that weight) pairs; a zero row compares nothing
        self.rows = [r for r in map(self._masks, order.weights) if r]
        self.grading = self._masks([1 if isinstance(v, int) else len(v) for v in order.ring.variables])

    def _masks(self, row) -> tuple:
        masks: dict = {}
        for w, s in zip(row, self.shifts):
            if w:
                masks[w] = masks.get(w, 0) | (self.limit - 1) << s
        return tuple(masks.items())

    def pack(self, m: tuple) -> int:
        return sum(e << s for e, s in zip(m, self.shifts))

    def unpack(self, x: int) -> tuple:
        f = self.limit - 1
        return tuple((x >> s) & f for s in self.shifts)

    def key(self, x: int):
        """Compares like ``MonomialOrder.sort_key`` of the unpacked monomial.

        A weight row is the sum over its weights w of w times the sum of
        the fields weighted w, read as a residue.
        """
        lex = -x if self.reverse else x
        if not self.rows:
            return lex
        mod = self.modulus
        return (*[sum([w * ((x & mask) % mod) for w, mask in row]) for row in self.rows], lex)

    def toric_degree(self, x: int) -> int:
        return sum([w * ((x & mask) % self.modulus) for w, mask in self.grading])

    def divides(self, a: int, b: int) -> bool:
        g = self.guard
        return (b | g) - a & g == g

    def lcm(self, a: int, b: int) -> int:
        """The fieldwise max; its degree, at most 2^width - 2, reads as a residue."""
        ge = (a | self.guard) - b & self.guard      # guard set where a's field >= b's
        return b ^ (a ^ b) & (ge - (ge >> (self.width - 1)))

    def element(self, g: Binomial) -> tuple:
        """g as (lead, trail - lead, degree change, lead degree).

        Adding ``trail - lead`` to a multiple of the lead is the move
        lead -> trail.
        """
        lead, dl = self.pack(g.lead), sum(g.lead)
        return lead, self.pack(g.trail) - lead, sum(g.trail) - dl, dl

    def reduce(self, m: int, d: int, elements: list) -> tuple:
        """(m, d) rewritten by the elements' moves until no lead divides m.

        Each pass tries every reducer in order and moves whenever its lead
        divides; m is held with its guard bits set, so a divisibility test
        is one subtraction and a move is one addition.
        """
        limit, g = self.limit, self.guard
        if d >= limit:
            raise _Widen
        m |= g
        changed = True
        while changed:
            changed = False
            for lead, move, dd, _ in elements:
                if m - lead & g == g:
                    m += move
                    d += dd
                    if d >= limit:
                        raise _Widen
                    changed = True
        return m ^ g, d


def _packed(order: MonomialOrder, binomials: list, run):
    """``run(packing)`` at the narrowest width that holds ``binomials``.

    Widths start at 8 bits and double; ``run`` starts again from scratch,
    twice as wide, whenever a monomial outgrows the width.
    """
    top = max((g.degree for g in binomials), default=0)
    width = 8
    while top >= 1 << (width - 1):
        width *= 2
    while True:
        try:
            return run(_Packing(order, width))
        except _Widen:
            width *= 2


def normal_form(b: Optional[Binomial], basis: list, order: MonomialOrder) -> Optional[Binomial]:
    if b is None:
        return None

    def run(pk: _Packing) -> Optional[Binomial]:
        elements = [pk.element(g) for g in basis]
        lead, _ = pk.reduce(pk.pack(b.lead), sum(b.lead), elements)
        trail, _ = pk.reduce(pk.pack(b.trail), sum(b.trail), elements)
        return oriented(pk.unpack(lead), pk.unpack(trail), order)

    return _packed(order, [b, *basis], run)


def buchberger(
    generators: Iterable[Optional[Binomial]],
    order: MonomialOrder,
    max_pairs: int = MAX_PAIRS,
    max_degree: int = MAX_DEGREE,
) -> list:
    """Reduced Groebner basis of a pure-difference binomial ideal.

    Deterministic: pairs are processed by their lcm's toric degree, then
    the order, and the result is tail-reduced and sorted by the order on
    leading monomials.  Pairs go through the Gebauer-Moeller update (Becker-
    Weispfenning 1993, UPDATE) as each element joins, and ``max_pairs``
    caps the S-binomials reduced, that is the pairs that survive it.
    A widened run repeats every step, so the result and any cap message
    do not depend on the width.
    """
    gens = [g for g in generators if g is not None]
    return _packed(order, gens, partial(_buchberger, gens, max_pairs, max_degree))


def _buchberger(generators: list, max_pairs: int, max_degree: int, pk: _Packing) -> list:
    """``buchberger`` at one packing; raises ``_Widen`` if it is too narrow."""
    key, lcm, divides, reduce = pk.key, pk.lcm, pk.divides, pk.reduce
    mod = pk.modulus
    basis: list = []        # every element found, as pk.element gives it; pairs index into it
    active: list = []       # indices of the elements no later lead divides
    reducers: list = []     # basis[i] for i in active, in that order
    live: dict = {}         # queued pair (i, j) -> lcm of the leads
    heap: list = []         # (toric degree, order key, degree of lcm, i, j); lazily deleted
    processed = zero = peak = cut_coprime = cut_b = cut_mf = 0

    def exceeded(cap: str) -> ResourceCapExceeded:
        return ResourceCapExceeded(
            f"{cap} exceeded after {processed} S-pairs processed "
            f"(cut: {cut_coprime} coprime, {cut_b} by criterion B, "
            f"{cut_mf} by criteria M/F), {zero} zero reductions, "
            f"peak basis size {peak}"
        )

    def normal(a: int, da: int, b: int, db: int) -> Optional[tuple]:
        """The reduced a - b in pk.element form, or None."""
        a, da = reduce(a, da, reducers)
        b, db = reduce(b, db, reducers)
        if a == b:
            return None
        return (a, b - a, db - da, da) if key(a) > key(b) else (b, a - b, da - db, db)

    def add(h: tuple) -> None:
        nonlocal active, reducers, peak, cut_coprime, cut_b, cut_mf
        hl, _, dd, dl = h
        if max(dl, dl + dd) > max_degree:
            raise exceeded(f"degree cap {max_degree}")
        k = len(basis)
        basis.append(h)
        # B: a queued pair whose lcm lead(h) divides is implied by its two
        # pairs with h, unless one of those has the same lcm
        for ij, m in list(live.items()):
            if divides(hl, m):
                i, j = ij
                if lcm(basis[i][0], hl) != m and lcm(basis[j][0], hl) != m:
                    del live[ij]
                    cut_b += 1
        # M/F: of the new pairs, keep one per lcm, and only for the lcms no
        # other new lcm divides; coprime leads give a pair that reduces to
        # zero, and so does every pair sharing its lcm
        new: dict = {}      # lcm -> [first i, coprime pairs, pairs]
        for i in active:
            gl = basis[i][0]
            m = lcm(gl, hl)
            entry = new.setdefault(m, [i, 0, 0])
            entry[1] += m == gl + hl            # coprime: the lcm is the product
            entry[2] += 1
        degree = {m: m % mod for m in new}
        for m, (i, coprime, pairs) in new.items():
            d = degree[m]
            if coprime:
                cut_coprime += coprime
                cut_mf += pairs - coprime
            # a divisor of m other than m has a smaller degree
            elif any(divides(o, m) for o, do in degree.items() if do < d):
                cut_mf += pairs
            else:
                cut_mf += pairs - 1
                live[i, k] = m
                heapq.heappush(heap, (pk.toric_degree(m), key(m), d, i, k))
        # elements whose lead lead(h) divides get no further pairs and stop
        # reducing: lead(h) reduces all they would
        active = [i for i in active if not divides(hl, basis[i][0])]
        active.append(k)
        reducers = [basis[i] for i in active]
        peak = max(peak, len(active))

    for g in generators:
        h = normal(pk.pack(g.lead), sum(g.lead), pk.pack(g.trail), sum(g.trail))
        if h is not None:
            add(h)
    while heap:
        _, _, d, i, j = heapq.heappop(heap)
        m = live.pop((i, j), None)
        if m is None:
            continue
        if processed == max_pairs:
            raise exceeded(f"S-pair cap {max_pairs}")
        processed += 1
        (_, fmove, fdd, _), (_, gmove, gdd, _) = basis[i], basis[j]
        h = normal(m + fmove, d + fdd, m + gmove, d + gdd)
        if h is None:
            zero += 1
        else:
            add(h)
    # tail reduction: within a minimal basis only the lead reduces the lead,
    # so only trails are rewritten
    reduced = sorted((key(lead), lead, reduce(lead + move, dl + dd, reducers)[0])
                     for lead, move, dd, dl in reducers)
    return [Binomial(pk.unpack(lead), pk.unpack(trail)) for _, lead, trail in reduced]


def verify_buchberger_certificate(basis: list, order: MonomialOrder) -> bool:
    """Every S-binomial of the basis reduces to zero.

    Pairs with coprime leads are skipped: their S-binomials always reduce
    to zero (Buchberger's first criterion), so the answer is the same.
    """
    def run(pk: _Packing) -> bool:
        elements = [pk.element(g) for g in basis]
        for (fl, fmove, fdd, _), (gl, gmove, gdd, _) in itertools.combinations(elements, 2):
            m = pk.lcm(fl, gl)
            if m == fl + gl:        # coprime leads
                continue
            d = m % pk.modulus
            if pk.reduce(m + fmove, d + fdd, elements)[0] != pk.reduce(m + gmove, d + gdd, elements)[0]:
                return False
        return True

    return _packed(order, basis, run)


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
    x_i - y_{i} lies in the graph ideal, so writing y_{i} for each x_i
    that ``ering`` leaves out keeps the x-free part, and so the basis.
    """

    ring: PolyRing
    ering: PolyRing

    def reduced_groebner_basis(
        self, order: MonomialOrder, max_pairs: int = MAX_PAIRS, max_degree: int = MAX_DEGREE
    ) -> list:
        if order.ring != self.ring:
            raise ValueError("the order is on another ring than the ideal's")
        eorder = EliminationOrder(self.ering, order)
        nx = len(self.ering.variables) - len(self.ring.variables)
        # y_{i} for each x_i the ring leaves out; a singleton's binomial is then zero
        graph = [oriented(self.ering.monomial({i if i in self.ering.variables else frozenset([i]): 1
                                               for i in c}),
                          self.ering.monomial({c: 1}), eorder) for c in self.ring.variables]
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


def check_nesting(sub: NeuralCode, sup: NeuralCode) -> bool:
    """Every generator of the smaller code's toric ideal lies in the larger's.

    Membership is decided by the monomial map, so no basis of the larger
    code is computed.  For C a subset of D, D's map restricted to C's
    variables is C's own map, and a pure-difference binomial y^u - y^v
    lies in I_D, the kernel of D's map, exactly when its two sides have
    the same image: the image x^a - x^b is zero only when a = b.  So
    every element of I_C lies in I_D, and the answer is false only when
    the engine returns a basis element of I_C outside the kernel.
    """
    if not sub.words <= sup.words:
        raise ValueError("first code must be a subset of the second")
    if not any(sub.words):
        return True
    isub = toric_ideal(sub)
    return all(in_kernel(g, isub.ring)
               for g in isub.reduced_groebner_basis(CodewordLexOrder(isub.ring)))


def homogenize_with_dummy(code: NeuralCode) -> NeuralCode:
    """Adjoin dummy neuron 0 to every codeword, making the toric ideal homogeneous."""
    return NeuralCode(code.n, frozenset(w | {0} for w in code.words))


# ---------------------------------------------------------------------------
# conjecture scan


def _scan_entry(pair: tuple, order_kind: str, max_pairs: int, max_degree: int,
                timing: bool) -> dict:
    """The report entry of one enumerated (code, sequence) pair."""
    t0 = time.perf_counter()
    code_, seq = pair
    entry = {"code": str(code_), "n": code_.n, "k": seq.degree, "size": len(code_.words)}
    try:
        ideal = toric_ideal(code_)
        gb = ideal.reduced_groebner_basis(order_for(ideal.ring, order_kind), max_pairs, max_degree)
        entry.update(gb_degree=gb_max_degree(gb), status="ok")
    except ResourceCapExceeded as exc:
        entry.update(status="skipped", reason=str(exc))
    if timing:
        entry["time_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    return entry


def conjecture_scan(
    max_n: int,
    max_k: int,
    order_kind: str = "lex",
    max_pairs: int = MAX_PAIRS,
    max_degree: int = MAX_DEGREE,
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
    pairs = enumerate_pierced_codes(max_n, max_k)
    work = partial(_scan_entry, order_kind=order_kind, max_pairs=max_pairs,
                   max_degree=max_degree, timing=timing)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(work, pairs, chunksize=8))
    else:
        results = list(map(work, pairs))
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
