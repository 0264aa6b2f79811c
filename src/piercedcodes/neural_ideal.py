"""Pseudo-monomials over F2 and the canonical form of the neural ideal.

A pseudo-monomial prod_{i in on} x_i * prod_{j in off} (1 - x_j) is
stored as the disjoint pair (on, off), and evaluated only on 0/1
indicator vectors of codewords, so no polynomial arithmetic is needed.
The canonical form is the set of minimal non-faces of the polar
complex (see :mod:`piercedcodes.complexes`), found by one pruned walk
over signed sets with codewords held as bitmasks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .codes import NeuralCode


@dataclass(frozen=True)
class PseudoMonomial:
    on: frozenset
    off: frozenset

    def __post_init__(self):
        object.__setattr__(self, "on", frozenset(self.on))
        object.__setattr__(self, "off", frozenset(self.off))
        if self.on & self.off:
            raise ValueError("on and off sets must be disjoint")

    @property
    def degree(self) -> int:
        return len(self.on) + len(self.off)

    def to_json_dict(self) -> dict:
        return {"on": sorted(self.on), "off": sorted(self.off)}

    def __str__(self) -> str:
        parts = [f"x{i}" for i in sorted(self.on)]
        parts += [f"(1-x{j})" for j in sorted(self.off)]
        return "*".join(parts) if parts else "1"


def _sort_key(pm: PseudoMonomial):
    return (pm.degree, tuple(sorted(pm.on)), tuple(sorted(pm.off)))


def canonical_form(code: NeuralCode) -> list:
    """The minimal non-faces of the polar complex, as pseudo-monomials.

    A codeword is *private* for a literal of a signed set when it
    disagrees with the set there and nowhere else.  A non-face is
    minimal iff each of its literals has a private codeword, and a
    codeword private for a set stays private for every subset that holds
    the literal.  So one depth-first walk keeps only the sets whose every
    literal has one, and emits a set once no codeword agrees with it.  A
    set that codeword a agrees with is extended by each literal that a
    disagrees with; the branch on one may later add only those before
    it, so each set is reached once (the candidate sets of Murakami and
    Uno's MMCS for minimal hitting sets).  A set the walk extends has an
    agreeing codeword and a private one per literal, so fewer than |C|
    literals.  Sorted by degree, then on-set, then off-set.
    """
    if not code.words:
        raise ValueError("code must be nonempty")
    minimal = []

    # literal +i is bit 2i and -i bit 2i+1; a codeword is held as the
    # mask of the n literals it disagrees with
    def walk(s, cand, words):
        agree = next((w for w in words if not s & w), None)
        if agree is None:
            minimal.append(s)
            return
        hit = cand & agree
        cand &= ~hit
        for i in code.neurons:
            lit = hit & 3 << 2 * i
            if not lit:
                continue
            # keep w while it agrees with s2 or is private for one literal;
            # once it disagrees with two literals it can never be either
            s2, kept, private = s | lit, [], 0
            for w in words:
                d = s2 & w
                if d & (d - 1) == 0:
                    kept.append(w)
                    private |= d
            if private == s2:
                walk(s2, cand & ~(3 << 2 * i), kept)
            cand |= lit

    words = [sum(1 << 2 * i + (i in w) for i in code.neurons) for w in code.words]
    walk(0, (1 << 2 * code.n + 2) - 4, words)  # every literal is a candidate
    cf = (PseudoMonomial({i for i in code.neurons if s >> 2 * i & 1},
                         {i for i in code.neurons if s >> 2 * i + 1 & 1}) for s in minimal)
    return sorted(cf, key=_sort_key)


def is_intersection_complete(code: NeuralCode) -> bool:
    """True iff the code contains all intersections of its codewords.

    The direct pairwise check; the tests hold it against the
    canonical-form criterion (no element with more than one off-neuron).
    """
    return all(a & b in code for a, b in itertools.combinations(code.words, 2))
